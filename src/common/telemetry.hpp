/**
 * @file
 * Process-wide observability: a metrics registry and scoped tracing.
 *
 * Metrics. MetricsRegistry::global() hands out named instruments —
 * monotonic Counters, Gauges and latency Histograms — that live for
 * the whole process. Registration takes a mutex once; the returned
 * reference is stable forever, so hot code resolves a handle once
 * (function-local static or member) and afterwards pays one relaxed
 * atomic RMW per update. reset() zeroes every value but invalidates
 * no handle. Counters are *process-cumulative*. A search resumed
 * from a checkpoint re-runs from its seed (mapper/verdictlog.hpp), so
 * its registry deltas equal the totals in MapperResult as for any
 * other run.
 *
 * Tracing. TraceSpan is an RAII scope marker. When tracing is
 * disabled (the default) constructing one costs a single relaxed
 * atomic load — no clock read, no allocation — so instrumentation
 * can stay in release builds. When enabled (setTracingEnabled, or
 * the TILEFLOW_TRACE environment variable at process start), each
 * span records one complete event into a per-thread buffer: no
 * cross-thread contention on the hot path beyond an uncontended
 * per-buffer mutex. writeChromeTrace() serializes every buffer into
 * the Chrome trace-event JSON format, loadable in chrome://tracing
 * and Perfetto.
 *
 * Span names and categories must be string literals (or otherwise
 * outlive the process): buffers store the pointers, not copies.
 *
 * The naming scheme, span taxonomy and overhead guarantees are the
 * contract documented in DESIGN.md §10.
 */

#ifndef TILEFLOW_COMMON_TELEMETRY_HPP
#define TILEFLOW_COMMON_TELEMETRY_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tileflow {

/** Nanoseconds since an arbitrary process-wide epoch (steady). */
uint64_t telemetryNowNs();

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

/** A monotonic counter. */
class Counter
{
  public:
    /** Add `n`; returns the value *before* the add (handy for
     *  once-per-run warnings: `if (c.add() == 0) warn(...)`). */
    uint64_t
    add(uint64_t n = 1)
    {
        return value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** A last-value-wins gauge (doubles; add() for up/down tracking). */
class Gauge
{
  public:
    void
    set(double v)
    {
        bits_.store(toBits(v), std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        uint64_t old = bits_.load(std::memory_order_relaxed);
        while (!bits_.compare_exchange_weak(old, toBits(fromBits(old) + delta),
                                            std::memory_order_relaxed)) {
        }
    }

    double value() const { return fromBits(bits_.load(std::memory_order_relaxed)); }

    void reset() { bits_.store(0, std::memory_order_relaxed); }

  private:
    static uint64_t toBits(double v);
    static double fromBits(uint64_t b);

    std::atomic<uint64_t> bits_{0};
};

/**
 * A latency histogram over nanoseconds: power-of-two buckets plus
 * exact count / sum / min / max. Every member is a relaxed atomic, so
 * concurrent observe() calls never lock; quantiles are bucket-upper-
 * bound estimates (within 2x of the true value).
 */
class Histogram
{
  public:
    static constexpr size_t kBuckets = 64;

    void observe(uint64_t ns);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sumNs() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t minNs() const;
    uint64_t maxNs() const { return max_.load(std::memory_order_relaxed); }

    double meanNs() const;

    /** Upper bound of the bucket holding quantile `q` in [0,1]. */
    uint64_t quantileNs(double q) const;

    void reset();

  private:
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> min_{UINT64_MAX};
    std::atomic<uint64_t> max_{0};
    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/** Times a scope into a Histogram (always-on; two clock reads). */
class ScopedLatency
{
  public:
    explicit ScopedLatency(Histogram& h) : h_(&h), start_(telemetryNowNs()) {}

    ~ScopedLatency() { h_->observe(telemetryNowNs() - start_); }

    ScopedLatency(const ScopedLatency&) = delete;
    ScopedLatency& operator=(const ScopedLatency&) = delete;

  private:
    Histogram* h_;
    uint64_t start_;
};

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/**
 * Named instrument registry. Names are dot-separated, lowercase,
 * `<subsystem>.<what>[_<unit>]` (DESIGN.md §10); histograms of
 * durations end in `_ns`.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** The process-wide registry every built-in instrument lives in. */
    static MetricsRegistry& global();

    /** Find-or-create; the reference stays valid for the registry's
     *  lifetime (for global(): the process). */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Value lookups for reporting/tests; 0 when `name` is absent. */
    uint64_t counterValue(const std::string& name) const;
    double gaugeValue(const std::string& name) const;

    /** Zero every instrument. Handles stay valid — this resets
     *  values, it never unregisters. */
    void reset();

    /**
     * The registry as a JSON object:
     * {"counters":{...},"gauges":{...},
     *  "histograms":{name:{count,sum_ns,min_ns,max_ns,mean_ns,
     *                      p50_ns,p90_ns,p99_ns}}}
     */
    std::string toJson() const;

    /** Aligned human-readable table (end-of-run report). */
    std::string table() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_tracingEnabled;
} // namespace detail

/** One relaxed load — the only cost instrumentation pays when off. */
inline bool
tracingEnabled()
{
    return detail::g_tracingEnabled.load(std::memory_order_relaxed);
}

void setTracingEnabled(bool enabled);

/** Record a complete ('X') event. `name`/`cat` must outlive export. */
void traceRecordSpan(const char* name, const char* cat, uint64_t start_ns,
                     uint64_t end_ns);

/** Record a Chrome counter ('C') event; no-op when tracing is off. */
void traceCounter(const char* name, double value);

/** Events buffered so far across all threads (dropped excluded). */
size_t traceEventCount();

/** Events lost because a thread buffer hit its cap (a full buffer
 *  overwrites its oldest event). */
uint64_t traceDroppedCount();

/** Drop all buffered events (tests; also useful between runs). */
void clearTrace();

/**
 * Write every buffered event as Chrome trace-event JSON ("traceEvents"
 * array object form, timestamps in microseconds). Safe to call while
 * other threads keep tracing (their in-flight event lands in the next
 * export). False on IO failure.
 */
bool writeChromeTrace(const std::string& path);

/**
 * RAII scope marker. ~ns-cost when tracing is disabled (one relaxed
 * load, nothing stored). Both strings must be literals.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char* name, const char* cat = "tileflow")
    {
        if (tracingEnabled()) {
            name_ = name;
            cat_ = cat;
            start_ = telemetryNowNs();
        }
    }

    ~TraceSpan()
    {
        if (name_)
            traceRecordSpan(name_, cat_, start_, telemetryNowNs());
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    const char* name_ = nullptr;
    const char* cat_ = nullptr;
    uint64_t start_ = 0;
};

// ---------------------------------------------------------------------
// Progress reporting
// ---------------------------------------------------------------------

/**
 * Rate-limits periodic progress lines. Constructed with the reporting
 * interval (<= 0 disables); due() returns true at most once per
 * interval, the first time one interval after construction. Not
 * thread-safe — poll from one thread (the search loops already poll
 * StopControl from their driver thread).
 */
class ProgressMeter
{
  public:
    explicit ProgressMeter(int64_t interval_ms)
        : intervalMs_(interval_ms),
          last_(std::chrono::steady_clock::now())
    {
    }

    bool
    due()
    {
        if (intervalMs_ <= 0)
            return false;
        const auto now = std::chrono::steady_clock::now();
        if (now - last_ < std::chrono::milliseconds(intervalMs_))
            return false;
        last_ = now;
        return true;
    }

  private:
    int64_t intervalMs_;
    std::chrono::steady_clock::time_point last_;
};

/** "17ns" / "4.2us" / "1.3ms" / "2.5s" — for tables and progress. */
std::string humanNs(double ns);

} // namespace tileflow

#endif // TILEFLOW_COMMON_TELEMETRY_HPP
