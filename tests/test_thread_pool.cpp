#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "util/rng.hpp"

namespace vu = volsched::util;
namespace ve = volsched::exp;

TEST(ThreadPool, RunsAllSubmittedTasks) {
    vu::ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmittedIndicesEachRunOnce) {
    vu::ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    for (std::size_t i = 0; i < hits.size(); ++i)
        pool.submit([&hits, i] { ++hits[i]; });
    pool.wait_idle();
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
    vu::ThreadPool pool(2);
    for (int i = 0; i < 10; ++i)
        pool.submit([i] {
            if (i == 3) throw std::runtime_error("boom");
        });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
    vu::ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
    vu::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    pool.wait_idle();
    // One worker: strict FIFO execution.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
    vu::ThreadPool pool(2);
    pool.wait_idle();
    SUCCEED();
}

namespace {

/// Unevenly-sized busy work so task completion order is thoroughly shuffled
/// relative to submission order: heavy and light tasks interleave and the
/// queue drains out of index order on any pool with >1 worker.
double busy_work(std::size_t i) {
    vu::Rng rng(vu::mix_seed(0xB05Bu, i));
    const std::size_t spins = 64 + 8 * (rng() % 512);
    double acc = 0.0;
    for (std::size_t k = 0; k < spins; ++k)
        acc += std::sqrt(static_cast<double>(i + k + 1));
    return acc;
}

} // namespace

/// The determinism contract the parallel-campaign work inherits: per-slot
/// results land in per-index storage and are reduced *in index order*, so
/// the floating-point sum is bit-identical to a serial run no matter how
/// the pool interleaves completions.  Summing in completion order instead
/// would reassociate the doubles and drift.
TEST(ThreadPool, OrderedReductionBitMatchesSerialUnderConcurrency) {
    constexpr std::size_t kTasks = 512;

    // Serial reference, single thread of execution, index order.
    std::vector<double> serial(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) serial[i] = busy_work(i);
    double serial_sum = 0.0;
    for (double v : serial) serial_sum += v;

    for (std::size_t threads : {2u, 3u, 7u}) {
        vu::ThreadPool pool(threads);
        std::vector<double> partial(kTasks, 0.0);
        std::vector<std::size_t> completion_order;
        std::mutex order_mutex;
        for (std::size_t i = 0; i < kTasks; ++i)
            pool.submit([&, i] {
                partial[i] = busy_work(i);
                std::lock_guard lock(order_mutex);
                completion_order.push_back(i);
            });
        pool.wait_idle();
        ASSERT_EQ(completion_order.size(), kTasks);

        // Ordered reduction: bit-identical, not just approximately equal.
        double pool_sum = 0.0;
        for (double v : partial) pool_sum += v;
        EXPECT_EQ(pool_sum, serial_sum) << "threads=" << threads;
        EXPECT_EQ(partial, serial) << "threads=" << threads;
    }
}

/// Repeated waves through one pool: wait_idle barriers between bursts of
/// submit()s must not lose tasks or deadlock (exercises the idle/active
/// bookkeeping under contention; run under the tsan preset).
TEST(ThreadPool, RepeatedWavesRetainEveryTask) {
    vu::ThreadPool pool(4);
    std::atomic<long long> total{0};
    for (int wave = 0; wave < 20; ++wave) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&total] { ++total; });
        pool.wait_idle();
        for (int i = 0; i < 10; ++i)
            pool.submit([&total] { ++total; });
        pool.wait_idle();
    }
    EXPECT_EQ(total.load(), 20 * (50 + 10));
}

namespace {

/// Bit-identical table comparison: exact ==, not almost-equal (mirrors
/// test_campaign's shard-merge contract).
void expect_tables_identical(const ve::DfbTable& a, const ve::DfbTable& b) {
    ASSERT_EQ(a.num_heuristics(), b.num_heuristics());
    EXPECT_EQ(a.instances(), b.instances());
    for (std::size_t h = 0; h < a.num_heuristics(); ++h) {
        EXPECT_EQ(a.mean_dfb(h), b.mean_dfb(h));
        EXPECT_EQ(a.dfb(h).variance(), b.dfb(h).variance());
        EXPECT_EQ(a.dfb(h).min(), b.dfb(h).min());
        EXPECT_EQ(a.dfb(h).max(), b.dfb(h).max());
        EXPECT_EQ(a.makespan(h).mean(), b.makespan(h).mean());
        EXPECT_EQ(a.wins(h), b.wins(h));
    }
}

template <typename Key>
void expect_maps_identical(const std::map<Key, ve::DfbTable>& ma,
                           const std::map<Key, ve::DfbTable>& mb) {
    ASSERT_EQ(ma.size(), mb.size());
    for (const auto& [key, table] : ma) {
        const auto it = mb.find(key);
        ASSERT_NE(it, mb.end()) << "missing key " << key;
        expect_tables_identical(table, it->second);
    }
}

void expect_results_identical(const ve::SweepResult& a,
                              const ve::SweepResult& b) {
    EXPECT_EQ(a.heuristics, b.heuristics);
    expect_tables_identical(a.overall, b.overall);
    expect_maps_identical(a.by_wmin, b.by_wmin);
    expect_maps_identical(a.by_tasks, b.by_tasks);
    expect_maps_identical(a.by_ncom, b.by_ncom);
    expect_maps_identical(a.by_checkpoint, b.by_checkpoint);
}

/// Serial reference for run_sweep that shares none of its executor: every
/// job in ordinal order, every trial in order, no pool, each trial seeded
/// from (master_seed, seed_ordinal, trial).
ve::SweepResult serial_sweep(const ve::SweepConfig& cfg,
                             const std::vector<std::string>& heuristics) {
    ve::SweepResult result(heuristics);
    for (const ve::GridJob& job : ve::grid_jobs(cfg)) {
        const ve::RealizedScenario rs = ve::realize(job.scenario);
        ve::DfbTable local(heuristics.size());
        for (int t = 0; t < cfg.trials_per_scenario; ++t) {
            const std::uint64_t seed =
                vu::mix_seed(cfg.master_seed, 0x54524cULL, job.seed_ordinal,
                             static_cast<std::uint64_t>(t));
            local.add_instance(ve::run_instance(rs, job.scenario.tasks,
                                                heuristics, cfg.run, seed,
                                                job.scenario.checkpoint)
                                   .makespans);
        }
        ve::merge_job_tables(result, job.scenario, local);
    }
    return result;
}

} // namespace

/// run_sweep drains through the campaign's completion pipeline: pin that
/// thread count never leaks into results.  Every instance derives its RNG
/// streams from (master_seed, seed_ordinal, trial) and per-job tables
/// merge in job order, so 1, 2, and 5 threads must each produce
/// SweepResults bit-identical to the pool-free serial reference.
TEST(ThreadPool, RunSweepBitIdenticalAcrossThreadCounts) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3, 4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 2;
    cfg.master_seed = 2026;
    const std::vector<std::string> heuristics = {"mct", "emct"};

    const ve::SweepResult reference = serial_sweep(cfg, heuristics);
    ASSERT_EQ(reference.overall.instances(), 16);

    for (std::size_t threads : {1u, 2u, 5u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        cfg.threads = threads;
        expect_results_identical(ve::run_sweep(cfg, heuristics), reference);
    }
}

TEST(ThreadPool, LargeReductionIsCorrect) {
    vu::ThreadPool pool(4);
    std::vector<long long> partial(1000, 0);
    for (std::size_t i = 0; i < partial.size(); ++i)
        pool.submit([&partial, i] {
            partial[i] = static_cast<long long>(i) * static_cast<long long>(i);
        });
    pool.wait_idle();
    const long long total =
        std::accumulate(partial.begin(), partial.end(), 0LL);
    long long expect = 0;
    for (long long i = 0; i < 1000; ++i) expect += i * i;
    EXPECT_EQ(total, expect);
}
