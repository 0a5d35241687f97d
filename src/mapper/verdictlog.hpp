/**
 * @file
 * The mapper's crash-safe checkpoint: an append-only log of evaluation
 * verdicts.
 *
 * A search is deterministic for a fixed seed, so a killed search does
 * not need its engines' state to resume: it re-runs from its seed and
 * skips only what cost real time, the Evaluator::evaluate calls. The
 * log records each of those calls' verdict, keyed by choice vector:
 *
 *     tileflow-verdicts 1 <config-hash>
 *     v <n> <choice>... <valid> <cycle-bits> <failed> <len> <reason> <sum>
 *     s <elapsed-ms> <evaluations> <sum>
 *
 * Numbers are decimal except the hex cycle bits (bit-exact, NaN
 * payloads included) and the hex FNV-1a `<sum>` of everything on the
 * record before it. The reason is `<len>` raw bytes (spaces and
 * newlines survive). Bound-only entries are never logged: a resumed
 * search recomputes its bounds.
 *
 * Durability: verdicts are appended with write() at each MCTS batch
 * end (flush), so a killed process loses nothing; sync() adds an `s`
 * record with the search time and evaluation count so far and
 * fsyncs, which the GA does at generation boundaries and the mapper
 * at exit (the power-loss guarantee). Loading keeps the longest valid
 * prefix: a torn tail costs only that tail, and is cut off before new
 * records are appended. A missing file, a malformed header or a
 * different config hash starts a fresh log.
 *
 * Replay: guardedEvaluate (mapper/guard.hpp) consults the log where it
 * would otherwise call the evaluator, after the candidate was built
 * and screened, so caches, prunes, counters and budgets evolve as in
 * an uninterrupted run. The first candidate the log cannot serve ends
 * the replay; until then the search's deadline is held.
 */

#ifndef TILEFLOW_MAPPER_VERDICTLOG_HPP
#define TILEFLOW_MAPPER_VERDICTLOG_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mapper/evalcache.hpp"

namespace tileflow {

class VerdictLog
{
  public:
    /**
     * Open the log at `path` for a search described by `config`: any
     * text that changes whenever a verdict or the search trajectory
     * could (the mapper builds it). Only its hash is stored.
     */
    VerdictLog(const std::string& path, const std::string& config);
    ~VerdictLog();

    VerdictLog(const VerdictLog&) = delete;
    VerdictLog& operator=(const VerdictLog&) = delete;

    /** Verdicts loaded from an earlier run (0: a fresh log). */
    size_t loaded() const { return verdicts_.size(); }

    /** Search time of the last loaded `s` record (0 without one). */
    int64_t loggedElapsedMs() const { return loggedElapsedMs_; }

    /** True until a lookup misses, while there are loaded verdicts. */
    bool
    replaying() const
    {
        return replaying_.load(std::memory_order_relaxed);
    }

    /**
     * Copy the logged verdict for `choices` (valid, cycles, failed,
     * reason) into `out`, leaving its bound fields alone; false, and
     * the replay over, when there is none. Thread-safe.
     */
    bool replay(const std::vector<int64_t>& choices, CachedEval& out);

    /** Queue a fresh verdict for the next flush. Thread-safe. */
    void append(const std::vector<int64_t>& choices,
                const CachedEval& verdict);

    /** write() the queued records. Thread-safe. */
    void flush();

    /** Append an `s` record, flush and fsync. Thread-safe. */
    void sync(int64_t elapsed_ms, int64_t evaluations);

  private:
    /** write() `pending_` and clear it; the caller holds `mutex_`. */
    void writeLocked();

    std::map<std::vector<int64_t>, CachedEval> verdicts_;
    int64_t loggedElapsedMs_ = 0;
    std::atomic<bool> replaying_{false};

    std::string path_;
    int fd_ = -1;
    std::mutex mutex_;
    std::string pending_;
};

} // namespace tileflow

#endif // TILEFLOW_MAPPER_VERDICTLOG_HPP
