/**
 * @file
 * ShardedFifoCache: the one storage engine under EvalCache and
 * SubtreeCache (DESIGN.md §4.6).
 *
 * A key hashes to one of `shards` independently-locked maps, so
 * concurrent workers rarely contend. Each shard remembers insertion
 * order and evicts oldest-first past its entry cap (fixed at
 * construction; 0 = unbounded). The cap is the cache's memory bound.
 * Eviction changes hit rates only, never values: an evicted entry is
 * recomputed on its next lookup, so search results stay bit-identical
 * under any cap.
 *
 * Byte accounting is exact against the cache's own bookkeeping:
 * `Traits::entryBytes` is a pure function of entry sizes (never
 * capacities), so the bytes credited at insert equal the bytes debited
 * at eviction, and the `<prefix>bytes` gauge stays exactly
 * `<prefix>bytes_inserted − <prefix>bytes_evicted` over the whole
 * process life (telemetry_check asserts it).
 *
 * `Traits` supplies what differs between the caches:
 *
 *     static constexpr const char* kMetricPrefix;   // "evalcache."
 *     static uint64_t hash(const Key&);             // shard + bucket
 *     static size_t entryBytes(const Key&, const Value&);
 *     static bool countsAsHit(const Value&);
 *     static bool keepsOld(const Value& old, const Value& incoming);
 *
 * The last two are policy hooks that only EvalCache uses: a bound-only
 * entry is found but counts as a miss, and a bound-only insert never
 * replaces a full verdict. SubtreeCache counts every stored entry as a
 * hit and lets every insert replace.
 */

#ifndef TILEFLOW_COMMON_SHARDEDCACHE_HPP
#define TILEFLOW_COMMON_SHARDEDCACHE_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/telemetry.hpp"

namespace tileflow {

/** Per-entry overhead both caches' entryBytes add: the unordered_map
 *  node (hash + next pointer + bucket share) and the FIFO deque slot,
 *  amortized. */
constexpr size_t kCacheEntryOverheadBytes = 64;

template <class Key, class Value, class Traits>
class ShardedFifoCache
{
  public:
    ShardedFifoCache(size_t shards, size_t maxEntriesPerShard)
        : shards_(shards == 0 ? 1 : shards),
          maxEntriesPerShard_(maxEntriesPerShard)
    {
    }

    ~ShardedFifoCache()
    {
        // Settle the byte accounting: the gauge tracks live entries, so
        // a destroyed cache's bytes count as evicted.
        uint64_t freed = 0;
        for (Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            freed += shard.bytes;
            shard.bytes = 0;
        }
        creditEvictions(0, freed);
    }

    ShardedFifoCache(const ShardedFifoCache&) = delete;
    ShardedFifoCache& operator=(const ShardedFifoCache&) = delete;

    /**
     * Find an entry; counts a hit, or a miss when it is absent or
     * Traits::countsAsHit rejects it (such an entry is still returned).
     */
    std::optional<Value>
    lookup(const Key& key)
    {
        Shard& shard = shardFor(key);
        std::optional<Value> found;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            const auto it = shard.map.find(key);
            if (it != shard.map.end())
                found = it->second;
        }
        if (found && Traits::countsAsHit(*found)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            metricHits_.add();
        } else {
            misses_.fetch_add(1, std::memory_order_relaxed);
            metricMisses_.add();
        }
        return found;
    }

    /**
     * Store an entry (last writer wins on a benign race, unless
     * Traits::keepsOld keeps the stored one), then evict FIFO-oldest
     * entries of the shard down to its entry cap. An overwrite debits
     * the old entry's bytes as evicted but is not counted as an
     * eviction.
     * Returns false when the stored entry was kept.
     */
    bool
    insert(const Key& key, Value value)
    {
        const size_t newBytes = Traits::entryBytes(key, value);
        uint64_t evicted = 0;
        uint64_t evictedBytes = 0;
        Shard& shard = shardFor(key);
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            const auto it = shard.map.find(key);
            if (it != shard.map.end()) {
                if (Traits::keepsOld(it->second, value))
                    return false;
                const size_t oldBytes =
                    Traits::entryBytes(it->first, it->second);
                evictedBytes += oldBytes;
                shard.bytes -= std::min(shard.bytes, oldBytes);
                it->second = std::move(value);
            } else {
                shard.map.emplace(key, std::move(value));
                shard.order.push_back(key);
            }
            shard.bytes += newBytes;
            while (maxEntriesPerShard_ > 0 &&
                   shard.map.size() > maxEntriesPerShard_ &&
                   !shard.order.empty()) {
                evictedBytes += evictOneLocked(shard);
                ++evicted;
            }
        }
        metricInserts_.add();
        metricBytesInserted_.add(newBytes);
        metricBytes_.add(double(newBytes));
        creditEvictions(evicted, evictedBytes);
        return true;
    }

    /**
     * Instance counters since construction or the last clear().
     * Searches that need totals scoped to one run snapshot these
     * around the run and report the delta (see genetic.cpp /
     * mcts.cpp). The process-cumulative view lives in the global
     * MetricsRegistry (`<prefix>hits` …), which clear() does not reset.
     */
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    uint64_t evictions() const { return evictions_.load(); }

    /** Number of entries held. */
    size_t
    size() const
    {
        size_t total = 0;
        for (const Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total += shard.map.size();
        }
        return total;
    }

    /** Sum of entryBytes() over the entries held. */
    uint64_t
    bytes() const
    {
        uint64_t total = 0;
        for (const Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total += shard.bytes;
        }
        return total;
    }

    /** The size-pure per-entry byte estimate the accounting uses. */
    static size_t
    entryBytes(const Key& key, const Value& value)
    {
        return Traits::entryBytes(key, value);
    }

    /**
     * Drop every entry and zero the instance hits, misses and
     * evictions, so rates computed after a clear never mix fresh
     * lookups with stale totals.
     * The cleared entries count only in the registry's
     * `<prefix>evictions`.
     */
    void
    clear()
    {
        uint64_t entries = 0;
        uint64_t freed = 0;
        for (Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            entries += shard.map.size();
            freed += shard.bytes;
            shard.map.clear();
            shard.order.clear();
            shard.bytes = 0;
        }
        hits_.store(0, std::memory_order_relaxed);
        misses_.store(0, std::memory_order_relaxed);
        evictions_.store(0, std::memory_order_relaxed);
        metricEvictions_.add(entries);
        creditEvictions(0, freed);
    }

    /**
     * Visit every entry as fn(key, value). Each shard is locked while
     * visited, but the walk is not a snapshot: call it while no
     * workers run. Order is unspecified.
     */
    template <class Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            for (const auto& [key, value] : shard.map)
                fn(key, value);
        }
    }

  protected:
    static Counter&
    counter(const char* name)
    {
        return MetricsRegistry::global().counter(
            std::string(Traits::kMetricPrefix) + name);
    }

    // Process-cumulative mirrors (survive clear(); DESIGN.md §10).
    Counter& metricHits_ = counter("hits");
    Counter& metricMisses_ = counter("misses");

  private:
    struct Hasher
    {
        size_t
        operator()(const Key& key) const
        {
            return size_t(Traits::hash(key));
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<Key, Value, Hasher> map;
        std::deque<Key> order; ///< insertion order, for the FIFO cap
        size_t bytes = 0; ///< sum of entryBytes() over map (under mutex)
    };

    Shard&
    shardFor(const Key& key)
    {
        return shards_[Hasher{}(key) % shards_.size()];
    }

    /** Pop the FIFO-oldest entry of a locked shard; returns its bytes
     *  (the caller credits them). */
    static size_t
    evictOneLocked(Shard& shard)
    {
        size_t freed = 0;
        const auto it = shard.map.find(shard.order.front());
        if (it != shard.map.end()) {
            freed = Traits::entryBytes(it->first, it->second);
            shard.bytes -= std::min(shard.bytes, freed);
            shard.map.erase(it);
        }
        shard.order.pop_front();
        return freed;
    }

    /** Credit evicted entries (instance + registry) and bytes. */
    void
    creditEvictions(uint64_t entries, uint64_t bytes)
    {
        if (entries > 0) {
            evictions_.fetch_add(entries, std::memory_order_relaxed);
            metricEvictions_.add(entries);
        }
        if (bytes > 0) {
            metricBytesEvicted_.add(bytes);
            metricBytes_.add(-double(bytes));
        }
    }

    std::vector<Shard> shards_;
    const size_t maxEntriesPerShard_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};

    Counter& metricInserts_ = counter("inserts");
    Counter& metricEvictions_ = counter("evictions");
    Counter& metricBytesInserted_ = counter("bytes_inserted");
    Counter& metricBytesEvicted_ = counter("bytes_evicted");
    Gauge& metricBytes_ = MetricsRegistry::global().gauge(
        std::string(Traits::kMetricPrefix) + "bytes");
};

} // namespace tileflow

#endif // TILEFLOW_COMMON_SHARDEDCACHE_HPP
