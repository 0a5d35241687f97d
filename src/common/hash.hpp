/**
 * @file
 * The one word-wise 64-bit hash the caches key on: the choice-vector
 * key of EvalCache and the subtree Merkle fold and context signature
 * of SubtreeCache (core/tree.hpp). Each 64-bit word costs one
 * splitmix64 finalizer (two multiplies), where byte-wise FNV-1a paid
 * eight.
 */

#ifndef TILEFLOW_COMMON_HASH_HPP
#define TILEFLOW_COMMON_HASH_HPP

#include <cstdint>

namespace tileflow {

/** splitmix64's output step: a bijection of 64-bit words in which
 *  every input bit moves about half of the output bits. */
constexpr uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The hash of the empty sequence. */
constexpr uint64_t kHashSeed = 0;

/** Fold one word into a running hash. The order of the words matters:
 *  each fold remixes all bits folded so far. */
constexpr uint64_t
hashWord(uint64_t hash, uint64_t word)
{
    return mix64(hash ^ word);
}

} // namespace tileflow

#endif // TILEFLOW_COMMON_HASH_HPP
