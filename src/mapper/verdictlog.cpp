#include "mapper/verdictlog.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hpp"

namespace tileflow {

namespace {

constexpr const char* kMagic = "tileflow-verdicts 1 ";

uint64_t
fnv1a(const char* data, size_t n)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
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
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/** A record body (every field followed by a space), checksummed. */
std::string
sealed(std::string body)
{
    body += hex64(fnv1a(body.data(), body.size()));
    body += '\n';
    return body;
}

/** Reads one record's fields; a malformed field poisons the reader. */
class Fields
{
  public:
    Fields(const std::string& data, size_t pos) : data_(data), pos_(pos) {}

    size_t pos() const { return pos_; }
    bool ok() const { return ok_; }

    /** The next field, up to and consuming `end`. */
    std::string_view
    text(char end = ' ')
    {
        const size_t stop = ok_ ? data_.find(end, pos_) : std::string::npos;
        if (stop == std::string::npos) {
            ok_ = false;
            return {};
        }
        const std::string_view field(data_.data() + pos_, stop - pos_);
        pos_ = stop + 1;
        return field;
    }

    template <typename T>
    T
    number(int base = 10, char end = ' ')
    {
        const std::string_view field = text(end);
        const char* last = field.data() + field.size();
        T value{};
        const auto [ptr, ec] =
            std::from_chars(field.data(), last, value, base);
        if (field.empty() || ec != std::errc() || ptr != last)
            ok_ = false;
        return value;
    }

    /** `n` raw bytes and the space after them. */
    std::string
    bytes(size_t n)
    {
        if (!ok_ || n >= data_.size() - pos_ || data_[pos_ + n] != ' ') {
            ok_ = false;
            return {};
        }
        std::string out = data_.substr(pos_, n);
        pos_ += n + 1;
        return out;
    }

  private:
    const std::string& data_;
    size_t pos_;
    bool ok_ = true;
};

/** One parsed record: a verdict, or (`sync`) a time stamp. */
struct Record
{
    bool sync = false;
    std::vector<int64_t> choices;
    CachedEval verdict;
    int64_t elapsedMs = 0;
};

/** Parse the record at `start`; its end, or 0 if it is torn. */
size_t
parseRecord(const std::string& data, size_t start, Record& out)
{
    Fields f(data, start);
    const std::string_view type = f.text();
    if (type == "v") {
        const size_t n = f.number<size_t>();
        if (!f.ok() || n > data.size())
            return 0;
        out.choices.resize(n);
        for (int64_t& c : out.choices)
            c = f.number<int64_t>();
        out.verdict.valid = f.number<int>() != 0;
        const uint64_t bits = f.number<uint64_t>(16);
        std::memcpy(&out.verdict.cycles, &bits, sizeof(bits));
        out.verdict.failed = f.number<int>() != 0;
        out.verdict.failReason = f.bytes(f.number<size_t>());
    } else if (type == "s") {
        out.sync = true;
        out.elapsedMs = f.number<int64_t>();
        f.number<int64_t>(); // the evaluation count, for readers
    } else {
        return 0;
    }
    const size_t body_end = f.pos();
    const uint64_t sum = f.number<uint64_t>(16, '\n');
    if (!f.ok() || sum != fnv1a(data.data() + start, body_end - start))
        return 0;
    return f.pos();
}

/** fsync the directory holding `path`, so a new file's entry is
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

VerdictLog::VerdictLog(const std::string& path, const std::string& config)
    : path_(path)
{
    const std::string header =
        concat(kMagic, hex64(fnv1a(config.data(), config.size())), "\n");
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        data.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }

    // The valid prefix: the header, then every record up to the first
    // torn one.
    size_t valid = 0;
    if (data.compare(0, header.size(), header) == 0) {
        valid = header.size();
        while (valid < data.size()) {
            Record record;
            const size_t end = parseRecord(data, valid, record);
            if (end == 0)
                break;
            valid = end;
            if (record.sync)
                loggedElapsedMs_ = record.elapsedMs;
            else
                verdicts_.emplace(std::move(record.choices),
                                  std::move(record.verdict));
        }
        if (valid < data.size()) {
            warn("checkpoint '", path, "': dropping a torn tail of ",
                 data.size() - valid, " bytes");
        }
    } else if (!data.empty()) {
        warn("checkpoint '", path,
             "': not a log of this search; starting fresh");
    }
    replaying_.store(!verdicts_.empty(), std::memory_order_relaxed);

    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        warn("checkpoint: cannot open '", path, "' for writing");
        return;
    }
    if (::ftruncate(fd_, off_t(valid)) != 0)
        warn("checkpoint: cannot truncate '", path, "'");
    if (valid == 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_ = header;
        writeLocked();
        if (fd_ >= 0 && (::fsync(fd_) != 0 || !fsyncParentDir(path)))
            warn("checkpoint: cannot fsync '", path, "'");
    }
}

VerdictLog::~VerdictLog()
{
    flush();
    if (fd_ >= 0)
        ::close(fd_);
}

bool
VerdictLog::replay(const std::vector<int64_t>& choices, CachedEval& out)
{
    const auto it = verdicts_.find(choices);
    if (it == verdicts_.end()) {
        replaying_.store(false, std::memory_order_relaxed);
        return false;
    }
    out.valid = it->second.valid;
    out.cycles = it->second.cycles;
    out.failed = it->second.failed;
    out.failReason = it->second.failReason;
    return true;
}

void
VerdictLog::append(const std::vector<int64_t>& choices,
                   const CachedEval& verdict)
{
    uint64_t bits;
    std::memcpy(&bits, &verdict.cycles, sizeof(bits));
    std::string body = concat("v ", choices.size(), " ");
    for (int64_t c : choices) {
        body += std::to_string(c);
        body += ' ';
    }
    body += concat(verdict.valid ? 1 : 0, " ", hex64(bits), " ",
                   verdict.failed ? 1 : 0, " ", verdict.failReason.size(),
                   " ", verdict.failReason, " ");
    const std::string record = sealed(std::move(body));
    std::lock_guard<std::mutex> lock(mutex_);
    pending_ += record;
}

void
VerdictLog::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    writeLocked();
}

void
VerdictLog::sync(int64_t elapsed_ms, int64_t evaluations)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pending_ += sealed(concat("s ", elapsed_ms, " ", evaluations, " "));
    writeLocked();
    if (fd_ >= 0 && ::fsync(fd_) != 0)
        warn("checkpoint: cannot fsync '", path_, "'");
}

void
VerdictLog::writeLocked()
{
    size_t done = 0;
    while (fd_ >= 0 && done < pending_.size()) {
        const ssize_t n =
            ::write(fd_, pending_.data() + done, pending_.size() - done);
        if (n >= 0) {
            done += size_t(n);
        } else if (errno != EINTR) {
            warn("checkpoint: cannot write '", path_,
                 "'; no longer logging");
            ::close(fd_);
            fd_ = -1;
        }
    }
    pending_.clear();
}

} // namespace tileflow
