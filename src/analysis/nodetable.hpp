/**
 * @file
 * A flat per-Tile-node result table: (node, value) pairs in one vector.
 * The analyzers append one entry per Tile node as they walk, then sort
 * once; lookups and iteration follow node-pointer order, the order a
 * std::map<const Node*, V> keeps, without a heap node per entry.
 */

#ifndef TILEFLOW_ANALYSIS_NODETABLE_HPP
#define TILEFLOW_ANALYSIS_NODETABLE_HPP

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/tile.hpp"

namespace tileflow {

template <typename V>
class NodeTable
{
  public:
    using value_type = std::pair<const Node*, V>;
    using const_iterator = typename std::vector<value_type>::const_iterator;

    void reserve(size_t n) { entries_.reserve(n); }

    /** Append the entry of a node not yet in the table. Call sort()
     *  after the last add and before any lookup. */
    void add(const Node* node, V value)
    {
        entries_.emplace_back(node, std::move(value));
    }

    /** Put the entries in node-pointer order. */
    void sort()
    {
        std::sort(entries_.begin(), entries_.end(),
                  [](const value_type& a, const value_type& b) {
                      return std::less<const Node*>()(a.first, b.first);
                  });
    }

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }

    /** The entry of `node`, or end(). */
    const_iterator find(const Node* node) const
    {
        const auto it = std::lower_bound(
            entries_.begin(), entries_.end(), node,
            [](const value_type& entry, const Node* key) {
                return std::less<const Node*>()(entry.first, key);
            });
        return it != entries_.end() && it->first == node ? it : end();
    }

    /** The value of `node`; throws std::out_of_range if absent. */
    const V& at(const Node* node) const
    {
        const auto it = find(node);
        if (it == end())
            throw std::out_of_range("NodeTable::at: node not in table");
        return it->second;
    }

  private:
    std::vector<value_type> entries_;
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_NODETABLE_HPP
