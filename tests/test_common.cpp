/**
 * @file
 * Tests for common support: strings, logging, the deterministic RNG,
 * the thread pool and the stop-signal handlers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/signalutil.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"

namespace tileflow {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\t x\n"), "x");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, TrimHandlesEmptyAndAllSpace)
{
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitOnDelimiter)
{
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyPieces)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strings, JoinRoundTripsSplit)
{
    EXPECT_EQ(join({"x", "y", "z"}, "/"), "x/y/z");
    EXPECT_EQ(join({}, "/"), "");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("warn: foo", "warn:"));
    EXPECT_FALSE(startsWith("foo", "warn:"));
    EXPECT_FALSE(startsWith("wa", "warn:"));
}

TEST(Strings, HumanCountScales)
{
    EXPECT_EQ(humanCount(1536.0), "1.54K");
    EXPECT_EQ(humanCount(2.0e6), "2.00M");
    EXPECT_EQ(humanCount(3.0e9), "3.00G");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom ", 42), FatalError);
    try {
        fatal("value=", 7);
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}

TEST(Logging, ConcatFormatsMixedTypes)
{
    EXPECT_EQ(concat("a", 1, "b", 2.5), "a1b2.5");
}

TEST(Rng, DeterministicWithSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int differ = 0;
    for (int i = 0; i < 32; ++i)
        differ += a.uniformInt(0, 1 << 20) != b.uniformInt(0, 1 << 20);
    EXPECT_GT(differ, 0);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformRealInHalfOpenUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChoicePicksContainedElement)
{
    Rng rng(11);
    const std::vector<int> v{3, 5, 7};
    for (int i = 0; i < 50; ++i) {
        const int c = rng.choice(v);
        EXPECT_TRUE(c == 3 || c == 5 || c == 7);
    }
}

TEST(Rng, MixSeedSeparatesStreams)
{
    const uint64_t base = 0x7ea51eafULL;
    EXPECT_NE(mixSeed(base, 0, 0), mixSeed(base, 0, 1));
    EXPECT_NE(mixSeed(base, 0, 0), mixSeed(base, 1, 0));
    EXPECT_NE(mixSeed(base, 1, 0), mixSeed(base, 0, 1));
    // Deterministic: same inputs, same stream.
    EXPECT_EQ(mixSeed(base, 3, 5), mixSeed(base, 3, 5));
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> counts(1000);
    pool.parallelFor(counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (const auto& c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SubmitReturnsValue)
{
    ThreadPool pool(2);
    auto future = pool.submit([]() { return 21 * 2; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A worker that fans out again must run the inner work inline
    // rather than wait on peers that may all be blocked the same way.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](size_t) {
        pool.parallelFor(8, [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(4,
                                  [](size_t i) {
                                      if (i == 2)
                                          fatal("boom");
                                  }),
                 FatalError);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvVar)
{
    setenv("TILEFLOW_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    unsetenv("TILEFLOW_THREADS");
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

// raise() rather than kill(getpid()): it delivers to the calling
// thread before returning, so no pool thread can take the signal.
TEST(SignalUtilTest, StopSignalCancelsToken)
{
    static CancellationToken token;
    installStopSignalHandlers(&token);
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(lastStopSignal(), 0);
    std::raise(SIGTERM);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(lastStopSignal(), SIGTERM);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);

    // The second stop signal kills the process with the signal's own
    // exit status.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            static CancellationToken doomed;
            installStopSignalHandlers(&doomed);
            std::raise(SIGTERM);
            std::raise(SIGTERM);
        },
        testing::KilledBySignal(SIGTERM), "");
}

} // namespace
} // namespace tileflow
