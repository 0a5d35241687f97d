#include "common/telemetry.hpp"


#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

namespace tileflow {

namespace {

std::chrono::steady_clock::time_point
processEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

/** Force the epoch to be taken early (static init), not mid-trace. */
const bool g_epochInit = (processEpoch(), true);

} // namespace

uint64_t
telemetryNowNs()
{
    (void)g_epochInit;
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - processEpoch())
                        .count());
}

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

uint64_t
Gauge::toBits(double v)
{
    uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

double
Gauge::fromBits(uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

void
Histogram::observe(uint64_t ns)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);

    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (ns < seen &&
           !min_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (ns > seen &&
           !max_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }

    // Bucket i holds values in [2^(i-1), 2^i); bucket 0 holds 0.
    const size_t bucket = size_t(std::bit_width(ns));
    buckets_[std::min(bucket, kBuckets - 1)].fetch_add(
        1, std::memory_order_relaxed);
}

uint64_t
Histogram::minNs() const
{
    const uint64_t m = min_.load(std::memory_order_relaxed);
    return m == UINT64_MAX ? 0 : m;
}

double
Histogram::meanNs() const
{
    const uint64_t n = count();
    return n == 0 ? 0.0 : double(sumNs()) / double(n);
}

uint64_t
Histogram::quantileNs(double q) const
{
    const uint64_t n = count();
    if (n == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the target observation (1-based, ceil).
    const uint64_t rank = std::max<uint64_t>(1, uint64_t(q * double(n) + 0.5));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        seen += buckets_[i].load(std::memory_order_relaxed);
        if (seen >= rank) {
            // Upper bound of bucket i, clamped to the observed max.
            const uint64_t upper =
                i == 0 ? 0 : (i >= 64 ? UINT64_MAX : (uint64_t(1) << i) - 1);
            return std::min(upper, maxNs());
        }
    }
    return maxNs();
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

MetricsRegistry&
MetricsRegistry::global()
{
    // Never destroyed: the workers of the shared mapper pools
    // (ThreadPool::shared) outlive main() and may still be recording a
    // finished task's run time while static destructors run.
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
}

Counter&
MetricsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
MetricsRegistry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

uint64_t
MetricsRegistry::counterValue(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

double
MetricsRegistry::gaugeValue(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second->value();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_)
        c->reset();
    for (auto& [name, g] : gauges_)
        g->reset();
    for (auto& [name, h] : histograms_)
        h->reset();
}

namespace {

void
appendJsonString(std::string& out, const std::string& s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
jsonNumber(double v)
{
    // JSON has no NaN/Inf; clamp to null-safe 0 (metrics are finite in
    // practice; this guards the serializer, not the instruments).
    if (!(v == v) || v > 1.7e308 || v < -1.7e308)
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, name);
        out += ':';
        out += std::to_string(c->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, name);
        out += ':';
        out += jsonNumber(g->value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, name);
        out += ":{\"count\":" + std::to_string(h->count()) +
               ",\"sum_ns\":" + std::to_string(h->sumNs()) +
               ",\"min_ns\":" + std::to_string(h->minNs()) +
               ",\"max_ns\":" + std::to_string(h->maxNs()) +
               ",\"mean_ns\":" + jsonNumber(h->meanNs()) +
               ",\"p50_ns\":" + std::to_string(h->quantileNs(0.50)) +
               ",\"p90_ns\":" + std::to_string(h->quantileNs(0.90)) +
               ",\"p99_ns\":" + std::to_string(h->quantileNs(0.99)) + "}";
    }
    out += "}}";
    return out;
}

std::string
humanNs(double ns)
{
    char buf[32];
    if (ns < 1e3)
        std::snprintf(buf, sizeof(buf), "%.0fns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
    return buf;
}

std::string
MetricsRegistry::table() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    size_t width = 24;
    for (const auto& [name, c] : counters_)
        width = std::max(width, name.size());
    for (const auto& [name, g] : gauges_)
        width = std::max(width, name.size());
    for (const auto& [name, h] : histograms_)
        width = std::max(width, name.size());

    auto pad = [&](const std::string& name) {
        os << "  " << name << std::string(width - name.size() + 2, ' ');
    };

    if (!counters_.empty()) {
        os << "counters:\n";
        for (const auto& [name, c] : counters_) {
            pad(name);
            os << c->value() << "\n";
        }
    }
    if (!gauges_.empty()) {
        os << "gauges:\n";
        for (const auto& [name, g] : gauges_) {
            pad(name);
            os << g->value() << "\n";
        }
    }
    if (!histograms_.empty()) {
        os << "histograms:" << std::string(width - 7, ' ')
           << "count      mean       p50       p99       max\n";
        for (const auto& [name, h] : histograms_) {
            pad(name);
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%8llu %9s %9s %9s %9s",
                          (unsigned long long)h->count(),
                          humanNs(h->meanNs()).c_str(),
                          humanNs(double(h->quantileNs(0.50))).c_str(),
                          humanNs(double(h->quantileNs(0.99))).c_str(),
                          humanNs(double(h->maxNs())).c_str());
            os << buf << "\n";
        }
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

namespace detail {

std::atomic<bool> g_tracingEnabled{[] {
    const char* env = std::getenv("TILEFLOW_TRACE");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}()};

} // namespace detail

void
setTracingEnabled(bool enabled)
{
    detail::g_tracingEnabled.store(enabled, std::memory_order_relaxed);
}

namespace {

struct TraceEvent
{
    const char* name;
    const char* cat;
    uint64_t startNs;
    uint64_t durNs;  // 'X' events
    double value;    // 'C' events
    char phase;      // 'X' or 'C'
};

/** Per-thread event storage; kept alive past thread exit by the
 *  shared_ptr held in the global buffer list. */
struct TraceBuffer
{
    std::mutex mutex;
    std::vector<TraceEvent> events;
    /** Oldest event once the buffer is full (events wrap around). */
    size_t head = 0;
    uint64_t dropped = 0;
    uint32_t tid = 0;

    void
    clear()
    {
        events.clear();
        head = 0;
    }
};

// Capped so a forgotten long trace cannot eat unbounded memory
// (~48 MB/thread at the cap). A full buffer overwrites its oldest
// event, so the trace keeps the latest window of each thread's
// activity; overflow is counted, not silent.
constexpr size_t kMaxEventsPerBuffer = size_t(1) << 20;

struct BufferDirectory
{
    std::mutex mutex;
    std::vector<std::shared_ptr<TraceBuffer>> buffers;
    uint32_t nextTid = 1;
};

BufferDirectory&
directory()
{
    static BufferDirectory dir;
    return dir;
}

TraceBuffer&
threadBuffer()
{
    thread_local std::shared_ptr<TraceBuffer> buffer = [] {
        auto b = std::make_shared<TraceBuffer>();
        BufferDirectory& dir = directory();
        std::lock_guard<std::mutex> lock(dir.mutex);
        b->tid = dir.nextTid++;
        dir.buffers.push_back(b);
        return b;
    }();
    return *buffer;
}

void
pushEvent(const TraceEvent& ev)
{
    TraceBuffer& buf = threadBuffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.events.size() >= kMaxEventsPerBuffer) {
        buf.events[buf.head] = ev;
        buf.head = (buf.head + 1) % buf.events.size();
        ++buf.dropped;
        return;
    }
    buf.events.push_back(ev);
}

} // namespace

void
traceRecordSpan(const char* name, const char* cat, uint64_t start_ns,
                uint64_t end_ns)
{
    pushEvent(TraceEvent{name, cat, start_ns,
                         end_ns >= start_ns ? end_ns - start_ns : 0, 0.0,
                         'X'});
}

void
traceCounter(const char* name, double value)
{
    if (!tracingEnabled())
        return;
    pushEvent(TraceEvent{name, "counter", telemetryNowNs(), 0, value, 'C'});
}

size_t
traceEventCount()
{
    BufferDirectory& dir = directory();
    std::lock_guard<std::mutex> lock(dir.mutex);
    size_t total = 0;
    for (const auto& buf : dir.buffers) {
        std::lock_guard<std::mutex> blk(buf->mutex);
        total += buf->events.size();
    }
    return total;
}

uint64_t
traceDroppedCount()
{
    BufferDirectory& dir = directory();
    std::lock_guard<std::mutex> lock(dir.mutex);
    uint64_t total = 0;
    for (const auto& buf : dir.buffers) {
        std::lock_guard<std::mutex> blk(buf->mutex);
        total += buf->dropped;
    }
    return total;
}

void
clearTrace()
{
    BufferDirectory& dir = directory();
    std::lock_guard<std::mutex> lock(dir.mutex);
    for (const auto& buf : dir.buffers) {
        std::lock_guard<std::mutex> blk(buf->mutex);
        buf->clear();
        buf->dropped = 0;
    }
}

bool
writeChromeTrace(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);

    // Snapshot the buffer list, then drain each buffer under its own
    // lock; writers keep appending to buffers we already passed, which
    // is fine — an export is a snapshot, not a barrier.
    std::vector<std::shared_ptr<TraceBuffer>> buffers;
    {
        BufferDirectory& dir = directory();
        std::lock_guard<std::mutex> lock(dir.mutex);
        buffers = dir.buffers;
    }

    bool first = true;
    for (const auto& buf : buffers) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        // Oldest first: a full buffer starts at its wrap point.
        for (size_t i = 0; i < buf->events.size(); ++i) {
            const TraceEvent& ev =
                buf->events[(buf->head + i) % buf->events.size()];
            if (!first)
                std::fputc(',', f);
            first = false;
            std::string name;
            appendJsonString(name, ev.name);
            // ts/dur are microseconds in the Chrome trace format.
            if (ev.phase == 'X') {
                std::string cat;
                appendJsonString(cat, ev.cat);
                std::fprintf(f,
                             "{\"name\":%s,\"cat\":%s,\"ph\":\"X\","
                             "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                             "\"tid\":%u}",
                             name.c_str(), cat.c_str(),
                             double(ev.startNs) / 1e3,
                             double(ev.durNs) / 1e3, buf->tid);
            } else {
                std::fprintf(f,
                             "{\"name\":%s,\"ph\":\"C\",\"ts\":%.3f,"
                             "\"pid\":1,\"tid\":%u,"
                             "\"args\":{\"value\":%s}}",
                             name.c_str(), double(ev.startNs) / 1e3,
                             buf->tid, jsonNumber(ev.value).c_str());
            }
        }
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace tileflow
