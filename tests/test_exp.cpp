#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/campaign_builder.hpp"
#include "api/experiment_builder.hpp"
#include "core/factory.hpp"
#include "exp/dfb.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "support/golden.hpp"

namespace ve = volsched::exp;
namespace va = volsched::api;
using volsched::test::TempDir;
using volsched::test::read_file;

TEST(Scenario, RealizeIsDeterministic) {
    ve::Scenario sc;
    sc.seed = 987;
    const auto a = ve::realize(sc);
    const auto b = ve::realize(sc);
    EXPECT_EQ(a.platform.w, b.platform.w);
    ASSERT_EQ(a.chains.size(), b.chains.size());
    for (std::size_t q = 0; q < a.chains.size(); ++q)
        EXPECT_DOUBLE_EQ(a.chains[q].matrix().p_uu(),
                         b.chains[q].matrix().p_uu());
}

TEST(Scenario, SpeedsInPaperRange) {
    for (int wmin : {1, 4, 10}) {
        ve::Scenario sc;
        sc.wmin = wmin;
        sc.seed = 33 + wmin;
        const auto rs = ve::realize(sc);
        for (int w : rs.platform.w) {
            EXPECT_GE(w, wmin);
            EXPECT_LE(w, 10 * wmin);
        }
        EXPECT_EQ(rs.platform.t_data, wmin);
        EXPECT_EQ(rs.platform.t_prog, 5 * wmin);
    }
}

TEST(Scenario, ContentionFactorsScaleTransferTimes) {
    ve::Scenario sc;
    sc.wmin = 1;
    sc.tdata_factor = 5.0;
    sc.tprog_factor = 25.0;
    sc.seed = 5;
    const auto rs = ve::realize(sc);
    EXPECT_EQ(rs.platform.t_data, 5);
    EXPECT_EQ(rs.platform.t_prog, 25);
}

TEST(Scenario, RejectsBadParameters) {
    ve::Scenario sc;
    sc.p = 0;
    EXPECT_THROW(ve::realize(sc), std::invalid_argument);
}

TEST(Dfb, SingleInstanceBasics) {
    ve::DfbTable table(3);
    table.add_instance({100, 150, 100});
    EXPECT_EQ(table.instances(), 1);
    EXPECT_DOUBLE_EQ(table.mean_dfb(0), 0.0);
    EXPECT_DOUBLE_EQ(table.mean_dfb(1), 50.0);
    EXPECT_DOUBLE_EQ(table.mean_dfb(2), 0.0);
    EXPECT_EQ(table.wins(0), 1);
    EXPECT_EQ(table.wins(1), 0);
    EXPECT_EQ(table.wins(2), 1); // ties count as wins
}

TEST(Dfb, AveragesAcrossInstances) {
    ve::DfbTable table(2);
    table.add_instance({100, 120}); // dfb: 0, 20
    table.add_instance({110, 100}); // dfb: 10, 0
    EXPECT_DOUBLE_EQ(table.mean_dfb(0), 5.0);
    EXPECT_DOUBLE_EQ(table.mean_dfb(1), 10.0);
    EXPECT_EQ(table.wins(0), 1);
    EXPECT_EQ(table.wins(1), 1);
}

TEST(Dfb, RejectsBadInput) {
    ve::DfbTable table(2);
    EXPECT_THROW(table.add_instance({1, 2, 3}), std::invalid_argument);
    EXPECT_THROW(table.add_instance({0, 5}), std::invalid_argument);
}

TEST(Dfb, MergeAccumulates) {
    ve::DfbTable a(2), b(2);
    a.add_instance({100, 200});
    b.add_instance({100, 100});
    a.merge(b);
    EXPECT_EQ(a.instances(), 2);
    EXPECT_DOUBLE_EQ(a.mean_dfb(1), 50.0);
    EXPECT_EQ(a.wins(1), 1);
    ve::DfbTable wrong(3);
    EXPECT_THROW(a.merge(wrong), std::invalid_argument);
}

TEST(Runner, AllHeuristicsShareTheAvailability) {
    ve::Scenario sc;
    sc.p = 8;
    sc.tasks = 5;
    sc.ncom = 3;
    sc.wmin = 1;
    sc.seed = 1234;
    const auto rs = ve::realize(sc);
    ve::RunConfig rc;
    rc.iterations = 2;
    const auto outcome =
        ve::run_instance(rs, sc.tasks, {"mct", "emct"}, rc, 555);
    ASSERT_EQ(outcome.makespans.size(), 2u);
    EXPECT_GT(outcome.makespans[0], 0);
    EXPECT_GT(outcome.makespans[1], 0);
    // Re-running is bit-identical.
    const auto again =
        ve::run_instance(rs, sc.tasks, {"mct", "emct"}, rc, 555);
    EXPECT_EQ(outcome.makespans, again.makespans);
}

TEST(Sweep, TinySweepProducesConsistentTables) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 6;
    cfg.run.iterations = 2;
    cfg.master_seed = 99;
    const std::vector<std::string> heuristics = {"mct", "random"};
    const auto result = ve::run_sweep(cfg, heuristics);
    EXPECT_EQ(result.overall.instances(), 2LL * 2 * 2);
    ASSERT_EQ(result.by_wmin.size(), 2u);
    long long by_wmin_total = 0;
    for (const auto& [wmin, table] : result.by_wmin)
        by_wmin_total += table.instances();
    EXPECT_EQ(by_wmin_total, result.overall.instances());
    // Wins per instance: at least one heuristic wins each instance.
    long long wins = 0;
    for (std::size_t h = 0; h < heuristics.size(); ++h)
        wins += result.overall.wins(h);
    EXPECT_GE(wins, result.overall.instances());
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 5;
    cfg.run.iterations = 2;
    cfg.master_seed = 7;
    const std::vector<std::string> heuristics = {"mct", "emct*"};

    cfg.threads = 1;
    const auto a = ve::run_sweep(cfg, heuristics);
    cfg.threads = 4;
    const auto b = ve::run_sweep(cfg, heuristics);
    for (std::size_t h = 0; h < heuristics.size(); ++h) {
        EXPECT_DOUBLE_EQ(a.overall.mean_dfb(h), b.overall.mean_dfb(h));
        EXPECT_EQ(a.overall.wins(h), b.overall.wins(h));
    }
}

TEST(Sweep, RecordSinkReceivesEveryInstance) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3, 5};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 1;
    cfg.threads = 3;
    std::vector<ve::InstanceRecord> rows;
    cfg.record = [&](const ve::InstanceRecord& rec) { rows.push_back(rec); };
    const auto result = ve::run_sweep(cfg, {"mct", "emct"});
    EXPECT_EQ(static_cast<long long>(rows.size()),
              result.overall.instances());
    int tasks3 = 0, tasks5 = 0;
    std::set<std::pair<std::uint64_t, int>> identities;
    for (const auto& rec : rows) {
        EXPECT_EQ(rec.makespans.size(), 2u);
        for (long long ms : rec.makespans) EXPECT_GT(ms, 0);
        tasks3 += (rec.scenario.tasks == 3);
        tasks5 += (rec.scenario.tasks == 5);
        identities.emplace(rec.scenario_ordinal, rec.trial);
    }
    EXPECT_EQ(tasks3, 4);
    EXPECT_EQ(tasks5, 4);
    // Every (scenario, trial) instance is reported exactly once.
    EXPECT_EQ(identities.size(), rows.size());
}

TEST(Sweep, ProgressCallbackCoversAllInstances) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1};
    cfg.scenarios_per_cell = 1;
    cfg.trials_per_scenario = 3;
    cfg.p = 4;
    cfg.run.iterations = 1;
    long long last = 0, total_seen = 0;
    cfg.progress = [&](long long done, long long total) {
        last = done;
        total_seen = total;
    };
    (void)ve::run_sweep(cfg, {"mct"});
    EXPECT_EQ(last, 3);
    EXPECT_EQ(total_seen, 3);
}

/// API.md's ResultSink example — a JsonlSink wired through .record() — at
/// four threads must write exactly the record lines of a one-shard
/// campaign's records.jsonl: the hook sees every instance once, in
/// (ordinal, trial) order, whatever the thread timing.
TEST(Sweep, RecordHookFileMatchesCampaignRecords) {
    TempDir dir;
    va::ExperimentBuilder experiment;
    experiment.heuristics({"mct", "emct"})
        .tasks({3, 5, 8})
        .ncom({2, 4})
        .wmin({1, 3})
        .scenarios_per_cell(2)
        .trials(2)
        .processors(8)
        .iterations(2)
        .threads(4);
    {
        ve::JsonlSink sink(dir.file("sweep.jsonl"));
        va::ExperimentBuilder with_hook = experiment;
        (void)with_hook
            .record([&](const ve::InstanceRecord& r) { sink.write(r); })
            .run();
        sink.flush();
    }
    const auto campaign =
        experiment.campaign().directory(dir.path() / "campaign").run();
    ASSERT_TRUE(campaign.complete);
    ASSERT_EQ(campaign.instances_done, 48);
    const std::string jsonl = read_file(campaign.jsonl_path);
    const std::string record_lines = jsonl.substr(jsonl.find('\n') + 1);
    EXPECT_EQ(read_file(dir.file("sweep.jsonl")), record_lines);
}

TEST(Sweep, RejectsBadArgumentsBeforeAnyJob) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 1;
    cfg.threads = 2;
    std::atomic<int> hook_calls{0};
    cfg.record = [&](const ve::InstanceRecord&) { ++hook_calls; };
    cfg.progress = [&](long long, long long) { ++hook_calls; };

    cfg.checkpoint_values = {};
    EXPECT_THROW((void)ve::run_sweep(cfg, {"mct"}), std::invalid_argument);
    // The valid "none" jobs come first in the grid; none may run.
    cfg.checkpoint_values = {"none", "dalyy"};
    EXPECT_THROW((void)ve::run_sweep(cfg, {"mct"}), std::invalid_argument);
    cfg.checkpoint_values = {"none"};
    EXPECT_THROW((void)ve::run_sweep(cfg, {}), std::invalid_argument);
    EXPECT_THROW((void)ve::run_sweep(cfg, {"mct", "mtc"}),
                 std::invalid_argument);
    // The scalar checks live in the same validator (api::ExperimentBuilder
    // calls it too), so a raw sweep rejects them before its pool starts,
    // not on a worker thread.
    const auto rejects = [&](const std::function<void(ve::SweepConfig&)>& bad,
                             const std::string& why) {
        ve::SweepConfig c = cfg;
        bad(c);
        try {
            (void)ve::run_sweep(c, {"mct"});
            ADD_FAILURE() << why << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("grid: " + why),
                      std::string::npos)
                << e.what();
        }
    };
    rejects([](ve::SweepConfig& c) { c.p = 0; }, "processors");
    rejects([](ve::SweepConfig& c) { c.trials_per_scenario = 0; }, "trials");
    rejects([](ve::SweepConfig& c) { c.run.max_slots = 0; }, "max_slots");
    rejects([](ve::SweepConfig& c) { c.wmin_values = {}; }, "wmin");
    rejects([](ve::SweepConfig& c) { c.run.replica_cap = -1; },
            "replica_cap");
    rejects([](ve::SweepConfig& c) { c.tdata_factor = std::nan(""); },
            "tdata/tprog");
    EXPECT_EQ(hook_calls.load(), 0);
}
