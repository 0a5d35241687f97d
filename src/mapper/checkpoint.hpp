/**
 * @file
 * Crash-safe checkpoint primitives for the mapper's search engines.
 *
 * A checkpoint is a whitespace-tokenized text payload:
 *
 *     tileflow-ckpt 1 <kind> <config-hash>
 *     ... engine-specific tokens ...
 *     end <fnv1a-checksum-of-everything-above>
 *
 * Doubles are stored as the hex of their bit pattern (bit-exact
 * round-trip, NaN payloads included); strings are length-prefixed raw
 * bytes (RNG engine states and failure reasons may contain spaces).
 *
 * Durability contract: checkpoints are written to `<path>.tmp`,
 * fsync'd, renamed over `<path>`, and the directory is fsync'd, so
 * `<path>` always holds a *complete* checkpoint even across power
 * loss — a crash mid-write leaves at worst a garbage tmp file, which
 * loading ignores. Loading additionally verifies the
 * version, the engine kind, the caller's config hash (resuming under
 * a different search configuration silently starting mid-trajectory
 * would be worse than starting over) and the checksum; any mismatch
 * makes open() fail and the engine start fresh.
 *
 * The GA and MCTS engines serialize their own state with these
 * primitives (see genetic.cpp / mcts.cpp); the checkpointed state
 * includes the RNG engine and the shared EvalCache, which is what
 * makes a resumed run bit-identical to an uninterrupted one at a
 * fixed thread count.
 */

#ifndef TILEFLOW_MAPPER_CHECKPOINT_HPP
#define TILEFLOW_MAPPER_CHECKPOINT_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "mapper/encoding.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/guard.hpp"

namespace tileflow {

/** FNV-1a accumulation helpers for config hashing. */
constexpr uint64_t kCkptHashInit = 0xcbf29ce484222325ULL;
uint64_t ckptHash(uint64_t hash, uint64_t word);
uint64_t ckptHashDouble(uint64_t hash, double value);

/** Fold a space's knob structure (menus + structural flags) in. */
uint64_t ckptHashSpace(uint64_t hash, const MappingSpace& space);

/** Token-stream writer; finish with writeTo(). */
class CkptWriter
{
  public:
    CkptWriter(const std::string& kind, uint64_t config_hash);

    void u64(uint64_t v);
    void i64(int64_t v);
    void d(double v);
    void str(const std::string& s);

    /** Bare keyword token (self-describing payloads). */
    void tag(const char* name);

    /** Append the checksum and write atomically; false on IO failure
     *  (or a simulated crash — see armCheckpointCrashForTesting). */
    bool writeTo(const std::string& path) const;

  private:
    std::string buf_;
};

/** Token-stream reader over a validated checkpoint. */
class CkptReader
{
  public:
    /** Read + validate `path`; nullopt if missing/corrupt/mismatched. */
    static std::optional<CkptReader> open(const std::string& path,
                                          const std::string& kind,
                                          uint64_t config_hash);

    /** False once any read failed; subsequent reads return zeros. */
    bool ok() const { return ok_; }

    uint64_t u64();
    int64_t i64();
    double d();
    std::string str();

    /** Consume an expected keyword; poisons the reader on mismatch. */
    void tag(const char* name);

  private:
    explicit CkptReader(std::string data) : data_(std::move(data)) {}

    std::string nextToken();

    std::string data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Serialize every full-verdict EvalCache entry (tagged "cache");
 *  bound-only entries are not persisted. */
void ckptWriteCache(CkptWriter& w, const EvalCache& cache);

/** Restore entries via insert() (counters untouched); false + poisoned
 *  reader on malformed input, with the cache possibly half-filled. */
bool ckptReadCache(CkptReader& r, EvalCache& cache);

/** Serialize a failure-reason histogram (tagged "hist"). */
void ckptWriteHistogram(CkptWriter& w, const FailureHistogram& hist);
bool ckptReadHistogram(CkptReader& r, FailureHistogram& hist);

/**
 * Test hook simulating a crash inside the checkpoint writer: the next
 * `after` writes succeed, every later write stops mid-payload and
 * skips the rename (leaving a truncated tmp and the previous
 * checkpoint intact) until the hook is disarmed with a negative
 * value.
 */
void armCheckpointCrashForTesting(int after);

} // namespace tileflow

#endif // TILEFLOW_MAPPER_CHECKPOINT_HPP
