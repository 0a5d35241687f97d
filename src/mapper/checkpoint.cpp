#include "mapper/checkpoint.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hpp"

namespace tileflow {

namespace {

constexpr const char* kMagic = "tileflow-ckpt";
constexpr int kVersion = 1;

std::atomic<int> g_crash_countdown{-1};

uint64_t
fnv1aBytes(const char* data, size_t n, uint64_t hash = kCkptHashInit)
{
    for (size_t i = 0; i < n; ++i) {
        hash ^= uint64_t(uint8_t(data[i]));
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)v);
    return buf;
}

/** fsync an open stdio stream (flush + fsync(fd)); false on failure. */
bool
fsyncFile(std::FILE* f)
{
    if (std::fflush(f) != 0)
        return false;
    return ::fsync(fileno(f)) == 0;
}

/** fsync the directory containing `path`, making a just-renamed entry
 *  durable; false on failure. */
bool
fsyncParentDir(const std::string& path)
{
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

uint64_t
ckptHash(uint64_t hash, uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= word & 0xffULL;
        hash *= 0x100000001b3ULL;
        word >>= 8;
    }
    return hash;
}

uint64_t
ckptHashDouble(uint64_t hash, double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return ckptHash(hash, bits);
}

uint64_t
ckptHashSpace(uint64_t hash, const MappingSpace& space)
{
    hash = ckptHash(hash, space.numKnobs());
    for (const Knob& knob : space.knobs()) {
        hash = fnv1aBytes(knob.name.data(), knob.name.size(), hash);
        hash = ckptHash(hash, knob.structural ? 1 : 0);
        hash = ckptHash(hash, knob.choices.size());
        for (int64_t choice : knob.choices)
            hash = ckptHash(hash, uint64_t(choice));
    }
    return hash;
}

void
armCheckpointCrashForTesting(int after)
{
    g_crash_countdown.store(after);
}

void
ckptWriteCache(CkptWriter& w, const EvalCache& cache)
{
    std::vector<std::pair<std::vector<int64_t>, CachedEval>> entries;
    // Bound-only entries are skipped: a resumed search recomputes
    // those bounds, and the checkpoint format stays the same.
    cache.forEach([&](const std::vector<int64_t>& choices,
                      const CachedEval& value) {
        if (!value.boundOnly)
            entries.emplace_back(choices, value);
    });
    w.tag("cache");
    w.u64(entries.size());
    for (const auto& [choices, value] : entries) {
        w.u64(choices.size());
        for (int64_t c : choices)
            w.i64(c);
        w.u64(value.valid ? 1 : 0);
        w.d(value.cycles);
        w.u64(value.failed ? 1 : 0);
        w.str(value.failReason);
    }
}

bool
ckptReadCache(CkptReader& r, EvalCache& cache)
{
    r.tag("cache");
    const uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        const uint64_t len = r.u64();
        if (!r.ok() || len > (1u << 20))
            return false;
        std::vector<int64_t> choices;
        choices.resize(size_t(len));
        for (auto& c : choices)
            c = r.i64();
        CachedEval value;
        value.valid = r.u64() != 0;
        value.cycles = r.d();
        value.failed = r.u64() != 0;
        value.failReason = r.str();
        if (r.ok())
            cache.insert(choices, value);
    }
    return r.ok();
}

void
ckptWriteHistogram(CkptWriter& w, const FailureHistogram& hist)
{
    w.tag("hist");
    w.u64(hist.size());
    for (const auto& [reason, count] : hist) {
        w.str(reason);
        w.u64(count);
    }
}

bool
ckptReadHistogram(CkptReader& r, FailureHistogram& hist)
{
    r.tag("hist");
    const uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        const std::string reason = r.str();
        const uint64_t count = r.u64();
        if (r.ok())
            hist[reason] = count;
    }
    return r.ok();
}

CkptWriter::CkptWriter(const std::string& kind, uint64_t config_hash)
{
    buf_ = concat(kMagic, " ", kVersion, " ", kind, " ",
                  hex64(config_hash), "\n");
}

void
CkptWriter::u64(uint64_t v)
{
    buf_ += hex64(v);
    buf_ += ' ';
}

void
CkptWriter::i64(int64_t v)
{
    u64(uint64_t(v));
}

void
CkptWriter::d(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
CkptWriter::str(const std::string& s)
{
    // Length token, a single separating space, then raw bytes (which
    // may themselves contain whitespace).
    buf_ += hex64(s.size());
    buf_ += ' ';
    buf_ += s;
    buf_ += ' ';
}

void
CkptWriter::tag(const char* name)
{
    buf_ += name;
    buf_ += ' ';
}

bool
CkptWriter::writeTo(const std::string& path) const
{
    std::string payload = buf_;
    payload += concat("\nend ",
                      hex64(fnv1aBytes(buf_.data(), buf_.size())), "\n");

    bool crash = false;
    const int countdown = g_crash_countdown.load();
    if (countdown >= 0) {
        crash = countdown == 0;
        if (!crash)
            g_crash_countdown.store(countdown - 1);
    }

    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("checkpoint: cannot open '", tmp, "' for writing");
        return false;
    }
    const size_t to_write = crash ? payload.size() / 2 : payload.size();
    const size_t written = std::fwrite(payload.data(), 1, to_write, f);
    // fsync BEFORE the rename: rename-without-fsync can publish the
    // new name pointing at an empty/partial file after power loss,
    // destroying the previous good checkpoint the atomic-replace
    // discipline exists to protect.
    const bool synced = !crash && fsyncFile(f);
    std::fclose(f);
    if (crash || written != payload.size() || !synced)
        return false; // simulated or real crash: previous file intact
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("checkpoint: cannot rename '", tmp, "' to '", path, "'");
        return false;
    }
    // ... and fsync the directory so the rename itself is durable.
    if (!fsyncParentDir(path))
        warn("checkpoint: cannot fsync directory of '", path, "'");
    return true;
}

std::optional<CkptReader>
CkptReader::open(const std::string& path, const std::string& kind,
                 uint64_t config_hash)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

    // Split off the trailing "end <checksum>" line and verify it.
    const size_t end_pos = data.rfind("\nend ");
    if (end_pos == std::string::npos) {
        warn("checkpoint '", path, "': missing checksum; ignoring");
        return std::nullopt;
    }
    const std::string body = data.substr(0, end_pos);
    const uint64_t stored =
        std::strtoull(data.c_str() + end_pos + 5, nullptr, 16);
    if (fnv1aBytes(body.data(), body.size()) != stored) {
        warn("checkpoint '", path, "': checksum mismatch; ignoring");
        return std::nullopt;
    }

    CkptReader reader(body);
    // Header: magic, version, kind, config hash.
    if (reader.nextToken() != kMagic ||
        reader.nextToken() != std::to_string(kVersion) ||
        reader.nextToken() != kind) {
        warn("checkpoint '", path,
             "': wrong magic/version/kind; ignoring");
        return std::nullopt;
    }
    const uint64_t stored_hash =
        std::strtoull(reader.nextToken().c_str(), nullptr, 16);
    if (!reader.ok_ || stored_hash != config_hash) {
        warn("checkpoint '", path,
             "': search configuration changed; starting fresh");
        return std::nullopt;
    }
    return reader;
}

std::string
CkptReader::nextToken()
{
    while (pos_ < data_.size() &&
           std::isspace(uint8_t(data_[pos_])))
        ++pos_;
    if (pos_ >= data_.size()) {
        ok_ = false;
        return {};
    }
    const size_t start = pos_;
    while (pos_ < data_.size() && !std::isspace(uint8_t(data_[pos_])))
        ++pos_;
    return data_.substr(start, pos_ - start);
}

uint64_t
CkptReader::u64()
{
    const std::string token = nextToken();
    if (!ok_)
        return 0;
    return std::strtoull(token.c_str(), nullptr, 16);
}

int64_t
CkptReader::i64()
{
    return int64_t(u64());
}

double
CkptReader::d()
{
    const uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
CkptReader::str()
{
    const uint64_t len = u64();
    if (!ok_)
        return {};
    // Exactly one separator follows the length token, then raw bytes.
    pos_ += 1;
    if (pos_ + len > data_.size()) {
        ok_ = false;
        return {};
    }
    std::string out = data_.substr(pos_, len);
    pos_ += len;
    return out;
}

void
CkptReader::tag(const char* name)
{
    if (nextToken() != name)
        ok_ = false;
}

} // namespace tileflow
