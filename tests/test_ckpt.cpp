/// Checkpoint/restart subsystem tests: registry behaviour (self-registered
/// built-ins, shorthand expansion, option validation, did-you-mean),
/// closed-form policy math (Young/Daly interval, crash risk), and engine
/// integration — the `none` bit-identity pin the determinism contract
/// promises, waste reduction under real policies, bandwidth accounting, and
/// replay determinism with checkpointing enabled.

#include <gtest/gtest.h>

#include <cmath>

#include "api/simulation_builder.hpp"
#include "ckpt/policies.hpp"
#include "ckpt/registry.hpp"
#include "core/factory.hpp"
#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "markov/expectation.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "support/fixtures.hpp"

namespace vapi = volsched::api;
namespace vc = volsched::ckpt;
namespace vcore = volsched::core;
namespace ve = volsched::exp;
namespace vm = volsched::markov;
namespace vs = volsched::sim;
namespace vt = volsched::test;

namespace {

/// A small, crash-prone platform on which tasks are long enough for
/// checkpoints to matter (w up to 10) and crashes frequent enough that the
/// recovery path genuinely fires.
struct CrashySetup {
    vs::Platform pf;
    std::vector<vm::MarkovChain> chains;

    CrashySetup() {
        pf.w = {6, 8, 10};
        pf.ncom = 2;
        pf.t_prog = 3;
        pf.t_data = 1;
        chains.assign(3, vt::chain3(0.70, 0.10, 0.25, 0.30, 0.40, 0.20));
    }
};

vs::RunMetrics run_crashy(const CrashySetup& setup,
                          const vc::CheckpointPolicy* policy, int cost,
                          std::uint64_t seed, vs::ActionTrace* trace,
                          const std::string& heuristic = "emct") {
    vs::EngineConfig cfg = vt::audited_config(/*iterations=*/3, /*tasks=*/4);
    cfg.checkpoint = policy;
    cfg.checkpoint_cost = cost;
    if (trace) cfg.observers = {trace};
    const auto sim =
        vs::Simulation::from_chains(setup.pf, setup.chains, cfg, seed);
    const auto sched = vcore::make_scheduler(heuristic);
    return sim.run(*sched);
}

bool same_trace(const vs::ActionTrace& a, const vs::ActionTrace& b) {
    if (a.procs() != b.procs() || a.slots() != b.slots()) return false;
    for (int q = 0; q < a.procs(); ++q) {
        const auto& ra = a.row(q);
        const auto& rb = b.row(q);
        for (std::size_t t = 0; t < ra.size(); ++t)
            if (ra[t].recv != rb[t].recv || ra[t].compute != rb[t].compute)
                return false;
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(CkptRegistry, BuiltInsAreRegistered) {
    auto& reg = vc::CheckpointRegistry::instance();
    for (const char* name : {"none", "periodic", "daly", "risk"})
        EXPECT_TRUE(reg.contains(name)) << name;
    const auto names = reg.names();
    EXPECT_GE(names.size(), 4u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(CkptRegistry, MakesEveryBuiltInSpelling) {
    auto& reg = vc::CheckpointRegistry::instance();
    EXPECT_EQ(reg.make("none")->name(), "none");
    EXPECT_EQ(reg.make("periodic20")->name(), "periodic");
    EXPECT_EQ(reg.make("periodic(k=20)")->name(), "periodic");
    EXPECT_EQ(reg.make("daly")->name(), "daly");
    EXPECT_EQ(reg.make("risk25")->name(), "risk");
    EXPECT_EQ(reg.make("risk(percent=25)")->name(), "risk");
}

TEST(CkptRegistry, RejectsMalformedSpecs) {
    auto& reg = vc::CheckpointRegistry::instance();
    // Missing / out-of-range / unknown options.
    EXPECT_THROW((void)reg.make("periodic"), std::invalid_argument);
    EXPECT_THROW((void)reg.make("periodic(k=0)"), std::invalid_argument);
    EXPECT_THROW((void)reg.make("periodic(k=2.5)"), std::invalid_argument);
    EXPECT_THROW((void)reg.make("risk(percent=200)"), std::invalid_argument);
    EXPECT_THROW((void)reg.make("risk(prcent=25)"), std::invalid_argument);
    EXPECT_THROW((void)reg.make("daly(k=3)"), std::invalid_argument);
    // Shorthand and key=value must not both name the option.
    EXPECT_THROW((void)reg.make("periodic20(k=5)"), std::invalid_argument);
    // Policies do not nest.
    EXPECT_THROW((void)reg.make("periodic20:daly"), std::invalid_argument);
}

TEST(CkptRegistry, SuggestsCloseNames) {
    auto& reg = vc::CheckpointRegistry::instance();
    try {
        (void)reg.make("peridic8");
        FAIL() << "expected an unknown-policy error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("periodic"), std::string::npos)
            << e.what();
    }
}

TEST(CkptRegistry, DuplicateRegistrationThrows) {
    auto& reg = vc::CheckpointRegistry::instance();
    EXPECT_THROW(
        reg.add({"none", "dup",
                 [](const vapi::SchedulerSpec&)
                     -> std::unique_ptr<vc::CheckpointPolicy> {
                     return nullptr;
                 }}),
        std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Closed forms.
// ---------------------------------------------------------------------------

TEST(CkptPolicies, DalyIntervalMatchesFormula) {
    const auto chain = vt::crashy_chain(0.05);
    const double mttd = vm::mean_time_to_down(chain.matrix());
    ASSERT_TRUE(std::isfinite(mttd));
    for (int cost : {1, 2, 5, 20}) {
        const double tau = std::sqrt(2.0 * cost * mttd);
        EXPECT_EQ(vc::daly_interval(chain.matrix(), cost),
                  std::max(1, static_cast<int>(std::nearbyint(tau))))
            << "cost " << cost;
    }
    // Zero/negative cost is clamped to 1 transfer slot.
    EXPECT_EQ(vc::daly_interval(chain.matrix(), 0),
              vc::daly_interval(chain.matrix(), 1));
}

TEST(CkptPolicies, DalyNeverFiresWithoutACrashState) {
    // DOWN unreachable: MTTD infinite, interval 0 ("never").
    EXPECT_EQ(vc::daly_interval(vt::always_up_chain().matrix(), 2), 0);
    EXPECT_EQ(vc::daly_interval(vt::flaky_chain(0.3).matrix(), 2), 0);
}

TEST(CkptPolicies, CrashRiskComplementsPud) {
    const auto chain = vt::crashy_chain(0.08);
    for (int remaining : {1, 2, 7, 40})
        EXPECT_NEAR(vc::crash_risk(chain.matrix(), remaining),
                    1.0 - vm::p_ud_exact(chain.matrix(),
                                         static_cast<unsigned>(remaining)),
                    vt::kMarkovTol)
            << remaining;
    EXPECT_EQ(vc::crash_risk(chain.matrix(), 0), 0.0);
    // Risk grows with the exposure window.
    EXPECT_LT(vc::crash_risk(chain.matrix(), 1),
              vc::crash_risk(chain.matrix(), 50));
}

TEST(CkptPolicies, DecisionRules) {
    auto& reg = vc::CheckpointRegistry::instance();
    const auto chain = vt::crashy_chain(0.05);

    vc::CheckpointView view;
    view.belief = &chain;
    view.cost = 2;
    view.w = 20;
    view.remaining = 15;

    const auto none = reg.make("none");
    const auto periodic = reg.make("periodic(k=5)");
    view.computed = 4;
    EXPECT_FALSE(none->should_checkpoint(view));
    EXPECT_FALSE(periodic->should_checkpoint(view));
    view.computed = 5;
    EXPECT_FALSE(none->should_checkpoint(view));
    EXPECT_TRUE(periodic->should_checkpoint(view));

    const auto daly = reg.make("daly");
    const int tau = vc::daly_interval(chain.matrix(), view.cost);
    ASSERT_GT(tau, 0);
    view.computed = tau - 1;
    EXPECT_FALSE(daly->should_checkpoint(view));
    view.computed = tau;
    EXPECT_TRUE(daly->should_checkpoint(view));
    // Uninformed workers never Daly-checkpoint.
    view.belief = nullptr;
    EXPECT_FALSE(daly->should_checkpoint(view));
    view.belief = &chain;

    const auto risk = reg.make("risk(percent=25)");
    view.computed = 1;
    const double r = vc::crash_risk(chain.matrix(), view.remaining);
    EXPECT_EQ(risk->should_checkpoint(view), r > 0.25);
    view.belief = nullptr;
    EXPECT_FALSE(risk->should_checkpoint(view));
}

// ---------------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------------

TEST(CkptEngine, NonePolicyIsBitIdenticalToNoPolicy) {
    // The acceptance pin: with checkpoint=none, action traces and metrics
    // are bit-identical to an engine without the checkpoint layer.
    const CrashySetup setup;
    const auto none = vc::CheckpointRegistry::instance().make("none");
    for (const auto& name : vcore::greedy_heuristic_names()) {
        vs::ActionTrace bare_trace, none_trace;
        const auto bare =
            run_crashy(setup, nullptr, 1, 99, &bare_trace, name);
        const auto with_none =
            run_crashy(setup, none.get(), 7, 99, &none_trace, name);
        EXPECT_EQ(bare.makespan, with_none.makespan) << name;
        EXPECT_EQ(bare.completed, with_none.completed) << name;
        EXPECT_EQ(bare.tasks_completed, with_none.tasks_completed) << name;
        EXPECT_EQ(bare.wasted_compute_slots, with_none.wasted_compute_slots)
            << name;
        EXPECT_EQ(bare.wasted_transfer_slots,
                  with_none.wasted_transfer_slots)
            << name;
        EXPECT_EQ(bare.iteration_ends, with_none.iteration_ends) << name;
        EXPECT_EQ(with_none.checkpoint_slots, 0) << name;
        EXPECT_EQ(with_none.checkpoints_committed, 0) << name;
        EXPECT_EQ(with_none.recoveries, 0) << name;
        EXPECT_EQ(with_none.saved_compute_slots, 0) << name;
        EXPECT_TRUE(same_trace(bare_trace, none_trace))
            << name << ": attaching the none policy changed the schedule";
    }
}

TEST(CkptEngine, PeriodicReducesWasteAndRecovers) {
    const CrashySetup setup;
    const auto periodic =
        vc::CheckpointRegistry::instance().make("periodic(k=2)");
    long long recoveries = 0, saved = 0, committed = 0;
    long long wasted_none = 0, wasted_ckpt = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto bare = run_crashy(setup, nullptr, 1, seed, nullptr);
        const auto ckpt =
            run_crashy(setup, periodic.get(), 1, seed, nullptr);
        // Both runs replay the same availability realization; they only
        // observe different prefixes of it (down_events differ exactly when
        // makespans do, so no per-seed equality is asserted here).
        wasted_none += bare.wasted_compute_slots;
        wasted_ckpt += ckpt.wasted_compute_slots;
        recoveries += ckpt.recoveries;
        saved += ckpt.saved_compute_slots;
        committed += ckpt.checkpoints_committed;
        EXPECT_GE(ckpt.checkpoint_slots, ckpt.checkpoints_committed) << seed;
    }
    EXPECT_GT(committed, 0);
    EXPECT_GT(recoveries, 0) << "no restart ever resumed from a checkpoint";
    EXPECT_GT(saved, 0);
    EXPECT_LT(wasted_ckpt, wasted_none)
        << "checkpointing did not reduce wasted compute";
}

TEST(CkptEngine, ReplayIsDeterministic) {
    const CrashySetup setup;
    const auto daly = vc::CheckpointRegistry::instance().make("daly");
    vs::ActionTrace t1, t2;
    const auto m1 = run_crashy(setup, daly.get(), 2, 1234, &t1);
    const auto m2 = run_crashy(setup, daly.get(), 2, 1234, &t2);
    EXPECT_EQ(m1.makespan, m2.makespan);
    EXPECT_EQ(m1.checkpoint_slots, m2.checkpoint_slots);
    EXPECT_EQ(m1.checkpoints_committed, m2.checkpoints_committed);
    EXPECT_EQ(m1.recoveries, m2.recoveries);
    EXPECT_EQ(m1.saved_compute_slots, m2.saved_compute_slots);
    EXPECT_EQ(m1.wasted_compute_slots, m2.wasted_compute_slots);
    EXPECT_TRUE(same_trace(t1, t2));
}

TEST(CkptEngine, BandwidthAuditHoldsUnderTightNcom) {
    // ncom=1: checkpoint uploads, program and data transfers all fight for
    // a single slot-unit; the audited run throws if the bound is ever
    // exceeded and the run must still finish.
    CrashySetup setup;
    setup.pf.ncom = 1;
    const auto risk =
        vc::CheckpointRegistry::instance().make("risk(percent=10)");
    const auto m = run_crashy(setup, risk.get(), 2, 77, nullptr);
    EXPECT_GT(m.checkpoint_slots, 0)
        << "risk(10%) never checkpointed on a crashy platform";
}

TEST(CkptEngine, BuilderAttachesPoliciesAndValidates) {
    const CrashySetup setup;
    auto sim = vs::Simulation::builder()
                   .platform(setup.pf)
                   .markov(setup.chains)
                   .iterations(3)
                   .tasks_per_iteration(4)
                   .checkpoint("periodic(k=2)")
                   .checkpoint_cost(1)
                   .audit()
                   .seed(5)
                   .build();
    const auto sched = vcore::make_scheduler("emct");
    const auto with_builder = sim.run(*sched);
    const auto periodic =
        vc::CheckpointRegistry::instance().make("periodic(k=2)");
    const auto direct = run_crashy(setup, periodic.get(), 1, 5, nullptr);
    EXPECT_EQ(with_builder.makespan, direct.makespan);
    EXPECT_EQ(with_builder.checkpoints_committed,
              direct.checkpoints_committed);
    EXPECT_EQ(with_builder.saved_compute_slots, direct.saved_compute_slots);

    EXPECT_THROW((void)vs::Simulation::builder().checkpoint("perodic2"),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)vs::Simulation::builder().checkpoint(
            std::shared_ptr<const vc::CheckpointPolicy>()),
        std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sweep / campaign integration.
// ---------------------------------------------------------------------------

TEST(CkptSweep, DefaultAxisKeepsTheClassicGrid) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    const auto jobs = ve::grid_jobs(cfg);
    ASSERT_EQ(jobs.size(), 4u);
    for (const auto& job : jobs) {
        EXPECT_EQ(job.ordinal, job.seed_ordinal);
        EXPECT_EQ(job.scenario.checkpoint, "none");
    }
}

TEST(CkptSweep, CheckpointAxisSharesSeedsAcrossPolicies) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    cfg.checkpoint_values = {"none", "daly"};
    const auto jobs = ve::grid_jobs(cfg);
    ASSERT_EQ(jobs.size(), 8u);
    for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_EQ(jobs[j].scenario.checkpoint, "none");
        EXPECT_EQ(jobs[j + 4].scenario.checkpoint, "daly");
        // Same draw, same seed: cross-policy comparisons are
        // same-realization by construction.
        EXPECT_EQ(jobs[j].scenario.seed, jobs[j + 4].scenario.seed);
        EXPECT_EQ(jobs[j].seed_ordinal, jobs[j + 4].seed_ordinal);
        EXPECT_NE(jobs[j].ordinal, jobs[j + 4].ordinal);
    }
}

TEST(CkptSweep, RunSweepBreaksDownByPolicy) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3};
    cfg.ncom_values = {2};
    cfg.wmin_values = {2};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 2;
    cfg.checkpoint_values = {"none", "periodic(k=2)"};
    cfg.threads = 1;
    const auto result = ve::run_sweep(cfg, {"mct", "emct"});
    ASSERT_EQ(result.by_checkpoint.size(), 2u);
    EXPECT_EQ(result.by_checkpoint.count("none"), 1u);
    EXPECT_EQ(result.by_checkpoint.count("periodic(k=2)"), 1u);
    EXPECT_EQ(result.overall.instances(),
              result.by_checkpoint.at("none").instances() +
                  result.by_checkpoint.at("periodic(k=2)").instances());
}

TEST(CkptSweep, DegradationTablesMatchPreCheckpointGolden) {
    // The acceptance pin for the sweep layer: with the default
    // checkpoint=none axis, the degradation-from-best tables are
    // bit-identical to the pre-checkpoint-subsystem engine.  The literals
    // below were produced by this exact configuration built from the last
    // pre-checkpoint commit (PR 4, 35fdd62) — %.17g, so the doubles
    // round-trip exactly.
    ve::SweepConfig cfg;
    cfg.tasks_values = {3, 5};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 6;
    cfg.run.iterations = 2;
    cfg.threads = 1;
    const std::vector<std::string> hs = {"mct", "emct", "emct*", "random"};
    const auto r = ve::run_sweep(cfg, hs);
    ASSERT_EQ(r.overall.instances(), 16);
    const double golden_dfb[] = {14.774370242606505, 1.0352207095709569,
                                 1.0352207095709569, 94.259253868640869};
    const double golden_makespan[] = {81.3125, 62.4375, 62.4375, 121.25};
    const long long golden_wins[] = {10, 13, 13, 0};
    for (std::size_t h = 0; h < hs.size(); ++h) {
        EXPECT_EQ(r.overall.mean_dfb(h), golden_dfb[h]) << hs[h];
        EXPECT_EQ(r.overall.makespan(h).mean(), golden_makespan[h]) << hs[h];
        EXPECT_EQ(static_cast<long long>(r.overall.wins(h)), golden_wins[h])
            << hs[h];
    }
}

TEST(CkptCampaign, FingerprintAndHeaderCoverTheAxis) {
    ve::SweepConfig classic;
    const std::vector<std::string> heuristics = {"mct", "emct"};
    ve::SweepConfig swept = classic;
    swept.checkpoint_values = {"none", "daly"};
    EXPECT_NE(ve::campaign_fingerprint(classic, heuristics),
              ve::campaign_fingerprint(swept, heuristics));

    ve::CampaignConfig cfg;
    cfg.sweep = swept;
    cfg.sweep.run.checkpoint_cost = 3;
    cfg.heuristics = heuristics;
    const std::string line = ve::campaign_header_line(cfg);
    const ve::CampaignHeader header = ve::parse_campaign_header(line);
    EXPECT_EQ(header.sweep.checkpoint_values, swept.checkpoint_values);
    EXPECT_EQ(header.sweep.run.checkpoint_cost, 3);

    // Classic headers (no checkpoint fields) still round-trip and resolve
    // to the default axis.
    ve::CampaignConfig classic_cfg;
    classic_cfg.sweep = classic;
    classic_cfg.heuristics = heuristics;
    const std::string classic_line = ve::campaign_header_line(classic_cfg);
    EXPECT_EQ(classic_line.find("checkpoint"), std::string::npos);
    const auto classic_header = ve::parse_campaign_header(classic_line);
    EXPECT_EQ(classic_header.sweep.checkpoint_values,
              std::vector<std::string>{"none"});
}

TEST(CkptCampaign, RecordsCarryTheCheckpointOnlyWhenSwept) {
    ve::InstanceRecord rec;
    rec.scenario_ordinal = 12;
    rec.trial = 1;
    rec.scenario.seed = 99;
    rec.makespans = {10, 12};
    const std::string classic = ve::JsonlSink::format_record(rec);
    EXPECT_EQ(classic.find("checkpoint"), std::string::npos);
    EXPECT_EQ(ve::JsonlSink::parse_record(classic).scenario.checkpoint,
              "none");

    rec.scenario.checkpoint = "risk(percent=25)";
    const std::string swept = ve::JsonlSink::format_record(rec);
    EXPECT_NE(swept.find("\"checkpoint\":\"risk(percent=25)\""),
              std::string::npos);
    const auto back = ve::JsonlSink::parse_record(swept);
    EXPECT_EQ(back.scenario.checkpoint, "risk(percent=25)");
    EXPECT_EQ(back.makespans, rec.makespans);
}

// The remaining EngineConfig knobs ride through SweepConfig so campaigns
// can toggle them like SimulationBuilder users can: audited sweeps must
// reproduce the unaudited results exactly (auditing only observes).
TEST(CkptSweep, AuditKnobDoesNotChangeResults) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3};
    cfg.ncom_values = {2};
    cfg.wmin_values = {2};
    cfg.scenarios_per_cell = 1;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 2;
    cfg.threads = 1;
    const std::vector<std::string> heuristics = {"mct", "emct"};
    const auto plain = ve::run_sweep(cfg, heuristics);
    cfg.run.audit = true;
    const auto audited = ve::run_sweep(cfg, heuristics);
    EXPECT_EQ(plain.overall.instances(), audited.overall.instances());
    for (std::size_t h = 0; h < heuristics.size(); ++h) {
        EXPECT_EQ(plain.overall.mean_dfb(h), audited.overall.mean_dfb(h));
        EXPECT_EQ(plain.overall.makespan(h).mean(),
                  audited.overall.makespan(h).mean());
    }
}
