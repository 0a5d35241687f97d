/**
 * @file
 * Schema checker for the telemetry artifacts mapper_search emits
 * (DESIGN.md §10): the Chrome trace-event JSON from --trace-out and
 * the metrics JSON from --metrics-out. CI runs this against a short
 * search so a malformed export fails the build, not a person opening
 * chrome://tracing.
 *
 * Usage:
 *   telemetry_check trace FILE     validate a Chrome trace
 *   telemetry_check metrics FILE   validate a metrics dump
 *
 * Checks are structural (required keys, types, value sanity) plus the
 * cross-consistency contract: the metrics dump's registry counters
 * must equal the search result's own accounting exactly.
 *
 * The parser below is a deliberately small recursive-descent JSON
 * reader (no dependencies — the repo's no-new-deps rule) that builds
 * a full document tree; fine for multi-megabyte traces, not meant as
 * a general-purpose library.
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// -------------------------------------------------------------------
// Minimal JSON document model + parser
// -------------------------------------------------------------------

struct JsonValue;
using JsonPtr = std::unique_ptr<JsonValue>;

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonPtr> array;
    std::map<std::string, JsonPtr> object;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }

    /** Object member or nullptr. */
    const JsonValue*
    get(const std::string& key) const
    {
        if (type != Type::Object)
            return nullptr;
        const auto it = object.find(key);
        return it == object.end() ? nullptr : it->second.get();
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    /** Parses the whole input; throws std::runtime_error on error. */
    JsonPtr
    parse()
    {
        JsonPtr v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after top-level value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string& what)
    {
        size_t line = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i)
            if (text_[i] == '\n')
                ++line;
        std::ostringstream os;
        os << "JSON parse error at line " << line << ": " << what;
        throw std::runtime_error(os.str());
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    JsonPtr
    parseValue()
    {
        skipWs();
        switch (peek()) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return parseString();
        case 't':
        case 'f':
            return parseBool();
        case 'n':
            return parseNull();
        default:
            return parseNumber();
        }
    }

    JsonPtr
    parseObject()
    {
        auto v = std::make_unique<JsonValue>();
        v->type = JsonValue::Type::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            JsonPtr key = parseString();
            skipWs();
            expect(':');
            v->object[key->string] = parseValue();
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonPtr
    parseArray()
    {
        auto v = std::make_unique<JsonValue>();
        v->type = JsonValue::Type::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v->array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonPtr
    parseString()
    {
        auto v = std::make_unique<JsonValue>();
        v->type = JsonValue::Type::String;
        expect('"');
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                case '"':
                case '\\':
                case '/':
                    v->string += e;
                    break;
                case 'b':
                    v->string += '\b';
                    break;
                case 'f':
                    v->string += '\f';
                    break;
                case 'n':
                    v->string += '\n';
                    break;
                case 'r':
                    v->string += '\r';
                    break;
                case 't':
                    v->string += '\t';
                    break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("truncated \\u escape");
                    // Decoded only far enough for the schema checks
                    // (names are ASCII); non-ASCII code points keep a
                    // '?' placeholder.
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else
                            fail("bad \\u escape digit");
                    }
                    v->string += code < 0x80 ? char(code) : '?';
                    break;
                }
                default:
                    fail("bad escape character");
                }
            } else {
                v->string += c;
            }
        }
    }

    JsonPtr
    parseBool()
    {
        auto v = std::make_unique<JsonValue>();
        v->type = JsonValue::Type::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v->boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            v->boolean = false;
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonPtr
    parseNull()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return std::make_unique<JsonValue>();
    }

    JsonPtr
    parseNumber()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        auto v = std::make_unique<JsonValue>();
        v->type = JsonValue::Type::Number;
        try {
            v->number = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            fail("bad number");
        }
        return v;
    }

    const std::string& text_;
    size_t pos_ = 0;
};

// -------------------------------------------------------------------
// Check helpers
// -------------------------------------------------------------------

int g_failures = 0;

void
problem(const std::string& msg)
{
    std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
    ++g_failures;
}

void
check(bool ok, const std::string& msg)
{
    if (!ok)
        problem(msg);
}

double
numberOr(const JsonValue* v, double fallback)
{
    return v && v->isNumber() ? v->number : fallback;
}

// -------------------------------------------------------------------
// Trace schema
// -------------------------------------------------------------------

int
checkTrace(const JsonValue& root)
{
    check(root.isObject(), "trace root must be an object");
    const JsonValue* events = root.get("traceEvents");
    if (!events || !events->isArray()) {
        problem("trace must have a traceEvents array");
        return 1;
    }
    check(!events->array.empty(), "traceEvents must not be empty");

    std::set<std::string> span_names;
    std::set<std::string> counter_names;
    size_t spans = 0;
    size_t counters = 0;
    for (size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue& e = *events->array[i];
        const std::string at = "traceEvents[" + std::to_string(i) + "]";
        if (!e.isObject()) {
            problem(at + " is not an object");
            continue;
        }
        const JsonValue* name = e.get("name");
        const JsonValue* ph = e.get("ph");
        if (!name || !name->isString() || name->string.empty()) {
            problem(at + " lacks a non-empty string name");
            continue;
        }
        if (!ph || !ph->isString()) {
            problem(at + " lacks a ph phase string");
            continue;
        }
        check(e.get("ts") && e.get("ts")->isNumber(),
              at + " lacks a numeric ts");
        check(e.get("pid") && e.get("pid")->isNumber(),
              at + " lacks a numeric pid");
        check(e.get("tid") && e.get("tid")->isNumber(),
              at + " lacks a numeric tid");
        if (ph->string == "X") {
            ++spans;
            span_names.insert(name->string);
            const JsonValue* dur = e.get("dur");
            check(dur && dur->isNumber() && dur->number >= 0.0,
                  at + " complete event needs a non-negative dur");
            check(e.get("cat") && e.get("cat")->isString(),
                  at + " complete event needs a cat");
        } else if (ph->string == "C") {
            ++counters;
            counter_names.insert(name->string);
            const JsonValue* args = e.get("args");
            check(args && args->isObject() && args->get("value") &&
                      args->get("value")->isNumber(),
                  at + " counter event needs args.value");
        } else {
            problem(at + " has unexpected phase '" + ph->string + "'");
        }
    }

    // The spans the instrumented search must have emitted. The GA path
    // nests MCTS, so a mapper_search run contains all of these.
    for (const char* required :
         {"evaluate", "evaluate.data_movement", "evaluate.latency",
          "ga.generation", "mcts.batch"}) {
        check(span_names.count(required) == 1,
              std::string("trace lacks required span '") + required +
                  "'");
    }
    // Cache activity is emitted as Chrome counter ('C') events.
    bool cache_counter = false;
    for (const std::string& n : counter_names)
        if (n.rfind("evalcache.", 0) == 0)
            cache_counter = true;
    check(cache_counter, "trace lacks evalcache counter events");

    if (g_failures > 0)
        return 1;
    std::printf("trace OK: %zu complete events, %zu counter samples, "
                "%zu distinct spans\n",
                spans, counters, span_names.size());
    return 0;
}

// -------------------------------------------------------------------
// Metrics schema
// -------------------------------------------------------------------

int
checkMetrics(const JsonValue& root)
{
    check(root.isObject(), "metrics root must be an object");
    const JsonValue* metrics = root.get("metrics");
    const JsonValue* result = root.get("result");
    if (!metrics || !metrics->isObject()) {
        problem("missing metrics object");
        return 1;
    }
    if (!result || !result->isObject()) {
        problem("missing result object");
        return 1;
    }

    const JsonValue* counters = metrics->get("counters");
    const JsonValue* gauges = metrics->get("gauges");
    const JsonValue* histograms = metrics->get("histograms");
    check(counters && counters->isObject(),
          "metrics.counters must be an object");
    check(gauges && gauges->isObject(),
          "metrics.gauges must be an object");
    check(histograms && histograms->isObject(),
          "metrics.histograms must be an object");
    if (g_failures)
        return 1;

    for (const auto& [name, v] : counters->object) {
        check(v->isNumber() && v->number >= 0.0,
              "counter " + name + " must be a non-negative number");
    }
    for (const auto& [name, h] : histograms->object) {
        if (!h->isObject()) {
            problem("histogram " + name + " must be an object");
            continue;
        }
        for (const char* field : {"count", "sum_ns", "min_ns", "max_ns",
                                  "mean_ns", "p50_ns", "p90_ns",
                                  "p99_ns"}) {
            check(h->get(field) && h->get(field)->isNumber(),
                  "histogram " + name + " lacks numeric " + field);
        }
        const double count = numberOr(h->get("count"), -1.0);
        const double min_ns = numberOr(h->get("min_ns"), -1.0);
        const double max_ns = numberOr(h->get("max_ns"), -1.0);
        if (count > 0.0)
            check(min_ns <= max_ns,
                  "histogram " + name + " has min_ns > max_ns");
    }

    // Required fields in the result section.
    for (const char* field : {"evaluations", "cache_hits",
                              "cache_misses", "failed_evaluations",
                              "best_cycles", "elapsed_ms"}) {
        check(result->get(field) && result->get(field)->isNumber(),
              std::string("result lacks numeric ") + field);
    }
    for (const char* field : {"found", "timed_out", "resumed"}) {
        check(result->get(field) &&
                  result->get(field)->type == JsonValue::Type::Bool,
              std::string("result lacks boolean ") + field);
    }
    if (g_failures)
        return 1;

    // The cross-consistency contract (DESIGN.md §10): the registry's
    // process-cumulative counters must equal the totals the search
    // itself reports — a resumed search re-runs from its seed, so this
    // holds for it too. Exact equality — these are counts.
    struct Pair
    {
        const char* counter;
        const char* field;
    };
    for (const Pair p : {Pair{"mapper.evaluations", "evaluations"},
                         Pair{"mapper.bound_pruned", "bound_pruned"},
                         Pair{"evalcache.hits", "cache_hits"},
                         Pair{"evalcache.misses", "cache_misses"},
                         Pair{"mapper.failed_evaluations",
                              "failed_evaluations"}}) {
        const JsonValue* c = counters->get(p.counter);
        const double reg = numberOr(c, 0.0);
        const double res = numberOr(result->get(p.field), -1.0);
        std::ostringstream os;
        os << p.counter << " (" << reg << ") != result." << p.field
           << " (" << res << ")";
        check(reg == res, os.str());
    }

    check(numberOr(result->get("evaluations"), -1.0) >= 0.0,
          "evaluations must be >= 0");

    // Branch-and-bound accounting (DESIGN.md §12). Every candidate the
    // guard saw was either pruned by the lower bound or fully
    // evaluated — the two buckets partition mapper.candidates exactly.
    // And the tightness histogram observes only candidates where both
    // the bound and a valid full evaluation ran, so its population can
    // never exceed the evaluation count.
    const double candidates =
        numberOr(counters->get("mapper.candidates"), 0.0);
    const double bound_pruned =
        numberOr(counters->get("mapper.bound_pruned"), 0.0);
    const double mapper_evals_bb =
        numberOr(counters->get("mapper.evaluations"), 0.0);
    {
        std::ostringstream os;
        os << "mapper.bound_pruned (" << bound_pruned
           << ") + mapper.evaluations (" << mapper_evals_bb
           << ") != mapper.candidates (" << candidates << ")";
        check(bound_pruned + mapper_evals_bb == candidates, os.str());
    }
    // Each prune counts under the screen tier that decided it (a memo
    // prune under its memo's tier). The tiers partition the total.
    {
        double tiers = 0.0;
        std::ostringstream os;
        os << "mapper.bound_pruned (" << bound_pruned << ") !=";
        const char* sep = " ";
        for (const char* tier : {"roofline", "capacity"}) {
            const std::string name =
                std::string("mapper.bound_pruned_") + tier;
            const double n = numberOr(counters->get(name), 0.0);
            tiers += n;
            os << sep << name << " (" << n << ")";
            sep = " + ";
        }
        check(tiers == bound_pruned, os.str());
    }
    // Every prune stands on a bound the guard computed or read from a
    // bound-only EvalCache entry, and a memo hit is one candidate.
    // The guard registers the memo counter with the others, so a
    // search export that has one has all.
    const JsonValue* memo_counter = counters->get("mapper.bound_memo_hits");
    check(!counters->get("mapper.candidates") || memo_counter,
          "mapper.candidates present without mapper.bound_memo_hits");
    const double bound_evals =
        numberOr(counters->get("mapper.bound_evals"), 0.0);
    const double memo_hits = numberOr(memo_counter, 0.0);
    {
        std::ostringstream os;
        os << "mapper.bound_evals (" << bound_evals
           << ") + mapper.bound_memo_hits (" << memo_hits
           << ") < mapper.bound_pruned (" << bound_pruned << ")";
        check(bound_evals + memo_hits >= bound_pruned, os.str());
    }
    {
        std::ostringstream os;
        os << "mapper.bound_memo_hits (" << memo_hits
           << ") > mapper.candidates (" << candidates << ")";
        check(memo_hits <= candidates, os.str());
    }
    const JsonValue* tightness =
        histograms->get("mapper.bound_tightness");
    if (tightness && tightness->isObject()) {
        const double tcount = numberOr(tightness->get("count"), 0.0);
        std::ostringstream os;
        os << "mapper.bound_tightness count (" << tcount
           << ") > mapper.evaluations (" << mapper_evals_bb << ")";
        check(tcount <= mapper_evals_bb, os.str());
    }

    // Incremental-evaluation counters (DESIGN.md §4.6). The subtree
    // cache performs exactly one lookup per Tile node per incremental
    // evaluation, so hits and misses must partition lookups exactly.
    const double sub_lookups =
        numberOr(counters->get("analysis.subtree_lookups"), 0.0);
    const double sub_hits =
        numberOr(counters->get("analysis.subtree_hits"), 0.0);
    const double sub_misses =
        numberOr(counters->get("analysis.subtree_misses"), 0.0);
    {
        std::ostringstream os;
        os << "analysis.subtree_hits (" << sub_hits
           << ") + analysis.subtree_misses (" << sub_misses
           << ") != analysis.subtree_lookups (" << sub_lookups << ")";
        check(sub_hits + sub_misses == sub_lookups, os.str());
    }

    // Every mapper evaluation the checkpoint did not replay entered
    // exactly one of the two evaluator paths (plain or incremental)
    // unless the tree build itself threw — and those throws are part
    // of mapper.failed_evaluations. The evaluator-side counts
    // therefore bracket mapper.evaluations - mapper.replayed. (Holds
    // for mapper_search exports, which are written before the
    // reference-dataflow evaluations run.) A resumed search must have
    // replayed something.
    const double full_evals =
        numberOr(counters->get("analysis.evaluations"), 0.0);
    const double inc_evals =
        numberOr(counters->get("analysis.incremental_evals"), 0.0);
    const double mapper_evals =
        numberOr(counters->get("mapper.evaluations"), 0.0) -
        numberOr(counters->get("mapper.replayed"), 0.0);
    const double mapper_failed =
        numberOr(counters->get("mapper.failed_evaluations"), 0.0);
    {
        std::ostringstream os;
        os << "analysis.evaluations (" << full_evals
           << ") + analysis.incremental_evals (" << inc_evals
           << ") outside [mapper.evaluations - replayed - failed, "
              "mapper.evaluations - replayed] = ["
           << mapper_evals - mapper_failed << ", " << mapper_evals
           << "]";
        check(full_evals + inc_evals >= mapper_evals - mapper_failed &&
                  full_evals + inc_evals <= mapper_evals,
              os.str());
    }
    const JsonValue* resumed = result->get("resumed");
    check(!resumed->boolean ||
              numberOr(counters->get("mapper.replayed"), 0.0) > 0.0,
          "result.resumed without mapper.replayed > 0");

    // Cache byte gauges are maintained with size-pure estimates whose
    // insert credits equal eviction debits exactly, so gauge ==
    // inserted - evicted at every instant, including after the
    // per-search caches are destroyed (destruction credits the
    // remainder as evicted).
    struct ByteGauge
    {
        const char* gauge;
        const char* inserted;
        const char* evicted;
    };
    for (const ByteGauge b :
         {ByteGauge{"evalcache.bytes", "evalcache.bytes_inserted",
                    "evalcache.bytes_evicted"},
          ByteGauge{"analysis.subtree_bytes",
                    "analysis.subtree_bytes_inserted",
                    "analysis.subtree_bytes_evicted"}}) {
        const double g = numberOr(gauges->get(b.gauge), 0.0);
        const double ins = numberOr(counters->get(b.inserted), 0.0);
        const double ev = numberOr(counters->get(b.evicted), 0.0);
        std::ostringstream os;
        os << b.gauge << " (" << g << ") != " << b.inserted << " ("
           << ins << ") - " << b.evicted << " (" << ev << ")";
        check(g == ins - ev, os.str());
    }
    // Every oom-failed evaluation is also a failed evaluation
    // (DESIGN.md §11).
    const double oom_failed =
        numberOr(counters->get("mem.oom_failed_evals"), 0.0);
    {
        std::ostringstream os;
        os << "mem.oom_failed_evals (" << oom_failed
           << ") > mapper.failed_evaluations (" << mapper_failed << ")";
        check(oom_failed <= mapper_failed, os.str());
    }

    if (g_failures > 0)
        return 1;
    std::printf("metrics OK: %zu counters, %zu gauges, %zu histograms; "
                "registry totals match the search result\n",
                counters->object.size(), gauges->object.size(),
                histograms->object.size());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 3 ||
        (std::strcmp(argv[1], "trace") != 0 &&
         std::strcmp(argv[1], "metrics") != 0)) {
        std::fprintf(stderr, "usage: telemetry_check trace|metrics FILE\n");
        return 2;
    }

    std::ifstream in(argv[2], std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[2]);
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    try {
        JsonParser parser(text);
        const JsonPtr root = parser.parse();
        if (std::strcmp(argv[1], "trace") == 0)
            return checkTrace(*root);
        return checkMetrics(*root);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[2], e.what());
        return 1;
    }
}
