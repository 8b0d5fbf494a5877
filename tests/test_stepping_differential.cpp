/// Seeded differential test of the two stepping cores.  Each draw is one
/// small configuration taken across the axes the hand-written event-core
/// suites (test_event_engine.cpp) do not reach together: plan class
/// (Dynamic, Passive, Proactive), replica cap 0 or 2, heterogeneous worker
/// speeds, zero-cost program, data and checkpoint transfers, every
/// registered checkpoint policy, Markov, semi-Markov and replayed
/// availability, and the run_for_deadline / min_slots_for_iterations
/// entry points.  For every draw:
///
///  - the event core under audit reproduces the slot loop: the metrics JSON
///    minus the two elision counters, the timeline and the action trace;
///  - the recorded action trace passes the off-line validator
///    (offline/schedule.hpp) whenever the run stayed inside the
///    validator's model.  The validator replays one copy of each task and
///    no restart credit, so a run that committed a replica, un-enrolled a
///    worker proactively or resumed from a checkpoint is outside it.  The
///    suite asserts that at least a quarter of the draws are validated.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "api/simulation_builder.hpp"
#include "ckpt/registry.hpp"
#include "core/factory.hpp"
#include "markov/gen.hpp"
#include "offline/schedule.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/metrics_io.hpp"
#include "sim/timeline.hpp"
#include "trace/replay.hpp"
#include "trace/semi_markov.hpp"
#include "util/rng.hpp"

namespace va = volsched::api;
namespace vc = volsched::core;
namespace vk = volsched::ckpt;
namespace vm = volsched::markov;
namespace vo = volsched::offline;
namespace vs = volsched::sim;
namespace vt = volsched::trace;
namespace vu = volsched::util;

namespace {

enum class Availability { Markov, SemiMarkov, Replay };
enum class Entry { Run, Deadline, MinSlots };

/// One drawn configuration.
struct Draw {
    std::string label;
    vs::Platform pf;
    Availability availability = Availability::Markov;
    vs::EngineConfig cfg;
    std::string heuristic;
    std::string checkpoint; ///< registry spec, "" for none
    Entry entry = Entry::Run;
    long long deadline = 0; ///< Entry::Deadline only
    std::uint64_t seed = 0;
    int scale = 1; ///< multiplies worker speeds and semi-Markov sojourns
};

int pick(vu::Rng& rng, int lo, int hi) {
    return static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(lo),
                                            static_cast<std::uint64_t>(hi)));
}

/// A spec for every registered checkpoint policy, "" standing for none; a
/// policy with a shorthand option gets a drawn value.
std::vector<std::string> checkpoint_specs(vu::Rng& rng) {
    std::vector<std::string> specs{""};
    for (const auto& info : vk::CheckpointRegistry::instance().entries())
        specs.push_back(info.shorthand_option.empty()
                            ? info.name
                            : info.name + std::to_string(pick(rng, 1, 40)));
    return specs;
}

Draw make_draw(int index) {
    vu::Rng rng(vu::mix_seed(0xD1FFULL, static_cast<std::uint64_t>(index)));
    Draw d;
    d.seed = rng.uniform_int(0, 1'000'000);
    const int procs = pick(rng, 2, 9);
    d.pf.ncom = pick(rng, 1, 3);
    // Zero-cost program and data transfers, each about one draw in four.
    d.pf.t_prog = rng.bernoulli(0.25) ? 0 : pick(rng, 1, 6);
    d.pf.t_data = rng.bernoulli(0.25) ? 0 : pick(rng, 1, 3);
    // One draw in four stretches compute and sojourns by a long time
    // scale, so that availability segments outlast the engine's change
    // lookahead and checkpoint policies get compute to protect.
    d.scale = rng.bernoulli(0.25) ? pick(rng, 20, 80) : 1;
    for (int q = 0; q < procs; ++q)
        d.pf.w.push_back(pick(rng, 1, 12) * d.scale);

    d.cfg.iterations = pick(rng, 1, 3);
    d.cfg.tasks_per_iteration = pick(rng, 1, 7);
    d.cfg.replica_cap = rng.bernoulli(0.5) ? 0 : 2;
    d.cfg.max_slots = 40'000;
    d.cfg.audit = true;
    // Cycled, not drawn, so that every class meets every availability
    // family (3 classes x 3 families over 9 consecutive draws).
    d.cfg.plan_class = std::array{vs::SchedulerClass::Dynamic,
                                  vs::SchedulerClass::Passive,
                                  vs::SchedulerClass::Proactive}[index % 3];
    d.availability = std::array{Availability::Markov,
                                Availability::SemiMarkov,
                                Availability::Replay}[(index / 3) % 3];

    const auto specs = checkpoint_specs(rng);
    d.checkpoint = specs[static_cast<std::size_t>(index) % specs.size()];
    d.cfg.checkpoint_cost = pick(rng, 0, 2);

    const auto& names = vc::all_heuristic_names();
    d.heuristic = names[rng.uniform_int(0, names.size() - 1)];

    switch (pick(rng, 0, 5)) {
    case 0:
        d.entry = Entry::Deadline;
        d.deadline = pick(rng, 1, 400);
        break;
    case 1: d.entry = Entry::MinSlots; break;
    default: d.entry = Entry::Run; break;
    }

    static const char* const kClass[] = {"dynamic", "passive", "proactive"};
    static const char* const kAvail[] = {"markov", "semi-markov", "replay"};
    static const char* const kEntry[] = {"run", "deadline", "min-slots"};
    d.label = "draw " + std::to_string(index) + " (" +
              kClass[static_cast<int>(d.cfg.plan_class)] + ", " +
              kAvail[static_cast<int>(d.availability)] + ", " +
              kEntry[static_cast<int>(d.entry)] + ", " + d.heuristic +
              ", ckpt '" + d.checkpoint + "' cost " +
              std::to_string(d.cfg.checkpoint_cost) + ", P=" +
              std::to_string(procs) + ", tprog=" +
              std::to_string(d.pf.t_prog) + ", tdata=" +
              std::to_string(d.pf.t_data) + ", cap " +
              std::to_string(d.cfg.replica_cap) + ", scale " +
              std::to_string(d.scale) + ")";
    return d;
}

/// The draw's availability source, rebuilt identically for every arm.
/// Semi-Markov and replay workers get a Markov fit as beliefs so that the
/// informed heuristics, Proactive and the belief-driven policies act.
void set_availability(va::SimulationBuilder& b, const Draw& d) {
    vu::Rng rng(vu::mix_seed(d.seed, 0xA7A1ULL));
    const auto procs = static_cast<std::size_t>(d.pf.size());
    switch (d.availability) {
    case Availability::Markov:
        b.markov(vm::generate_chains(procs, rng));
        return;
    case Availability::SemiMarkov: {
        std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
        std::vector<vm::MarkovChain> beliefs;
        for (std::size_t q = 0; q < procs; ++q) {
            const auto params =
                vt::desktop_grid_params(rng.uniform(8.0, 60.0) * d.scale);
            vt::SemiMarkovAvailability model(params);
            beliefs.emplace_back(model.equivalent_markov_matrix());
            models.push_back(
                std::make_unique<vt::SemiMarkovAvailability>(params));
        }
        b.models(std::move(models)).beliefs(std::move(beliefs));
        return;
    }
    case Availability::Replay: {
        // Recorded Markov histories; HoldLast freezes each worker after
        // its history, Loop replays it, and about one draw in four starts
        // with every worker absent (the initial dead-stretch path).
        const auto chains = vm::generate_chains(procs, rng);
        const bool dead_start = rng.bernoulli(0.25);
        std::vector<vt::RecordedTrace> traces;
        for (std::size_t q = 0; q < procs; ++q) {
            vm::MarkovAvailability model(chains[q]);
            vt::RecordedTrace tr;
            if (dead_start)
                tr.states.assign(static_cast<std::size_t>(pick(rng, 5, 60)),
                                 vm::ProcState::Down);
            const auto history = vt::record(
                model, static_cast<std::size_t>(pick(rng, 50, 600)), rng);
            tr.states.insert(tr.states.end(), history.states.begin(),
                             history.states.end());
            traces.push_back(std::move(tr));
        }
        b.empirical(std::move(traces),
                    rng.bernoulli(0.5)
                        ? vt::ReplayAvailability::EndPolicy::HoldLast
                        : vt::ReplayAvailability::EndPolicy::Loop);
        return;
    }
    }
}

/// One arm's full observable output.
struct Outcome {
    vs::RunMetrics m;
    long long min_slots = 0; ///< Entry::MinSlots only
    vs::Timeline timeline;
    vs::ActionTrace actions;
};

void run_arm(const Draw& d, bool event_driven, Outcome& out) {
    auto b = vs::Simulation::builder();
    b.platform(d.pf).config(d.cfg).seed(d.seed);
    set_availability(b, d);
    if (!d.checkpoint.empty()) b.checkpoint(d.checkpoint);
    b.observe(&out.timeline).observe(&out.actions).event_driven(event_driven);
    const auto sim = b.build();
    const auto sched = vc::make_scheduler(d.heuristic);
    switch (d.entry) {
    case Entry::Run: out.m = sim.run(*sched); break;
    case Entry::Deadline:
        out.m = sim.run_for_deadline(*sched, d.deadline);
        break;
    case Entry::MinSlots:
        // min_slots_for_iterations returns only the makespan; the arm's
        // recorders still see the whole run.
        out.min_slots = sim.min_slots_for_iterations(*sched,
                                                     d.cfg.iterations);
        break;
    }
}

/// Metrics JSON without the two counters that differ by construction.
std::string comparable_json(vs::RunMetrics m) {
    m.slots_elided = 0;
    m.dead_slots_skipped = 0;
    return vs::metrics_to_json(m);
}

void expect_same_timeline(const vs::Timeline& a, const vs::Timeline& b,
                          const std::string& label) {
    ASSERT_EQ(a.procs(), b.procs()) << label;
    ASSERT_EQ(a.slots(), b.slots()) << label;
    for (int q = 0; q < a.procs(); ++q)
        for (long long s = 0; s < a.slots(); ++s)
            if (a.at(q, s) != b.at(q, s))
                FAIL() << label << ": timeline diverges at proc " << q
                       << " slot " << s;
}

void expect_same_actions(const vs::ActionTrace& a, const vs::ActionTrace& b,
                         const std::string& label) {
    ASSERT_EQ(a.procs(), b.procs()) << label;
    ASSERT_EQ(a.slots(), b.slots()) << label;
    for (int q = 0; q < a.procs(); ++q)
        for (std::size_t t = 0; t < a.row(q).size(); ++t)
            if (a.row(q)[t].recv != b.row(q)[t].recv ||
                a.row(q)[t].compute != b.row(q)[t].compute)
                FAIL() << label << ": action trace diverges at proc " << q
                       << " slot " << t;
}

/// Replays a recorded run through the off-line validator.  The validator
/// models one set of distinct tasks, so iteration k's logical task i
/// becomes task k*m + i; every action of slot t belongs to the iteration
/// whose window [iteration_ends[k-1], iteration_ends[k]) holds t.
vo::ValidationResult validate_recorded(const vs::Platform& pf,
                                       const vs::RunMetrics& m, int tasks,
                                       const vs::Timeline& timeline,
                                       const vs::ActionTrace& actions) {
    const long long horizon = actions.slots();
    const auto iterations =
        static_cast<int>(m.iteration_ends.size()) + (m.completed ? 0 : 1);
    vo::OfflineInstance inst;
    inst.platform = pf;
    inst.num_tasks = iterations * tasks;
    inst.horizon = static_cast<int>(horizon);
    inst.states.resize(static_cast<std::size_t>(pf.size()));
    vo::Schedule sched;
    sched.actions.resize(static_cast<std::size_t>(pf.size()));
    // Negative codes (no action, program slot) pass through unchanged.
    const auto renumber = [tasks](int task, int iteration) {
        return task >= 0 ? iteration * tasks + task : task;
    };
    for (int q = 0; q < pf.size(); ++q) {
        int iteration = 0;
        for (long long t = 0; t < horizon; ++t) {
            while (iteration < static_cast<int>(m.iteration_ends.size()) &&
                   t >= m.iteration_ends[static_cast<std::size_t>(iteration)])
                ++iteration;
            const char code = timeline.at(q, t);
            inst.states[q].push_back(code == 'd'   ? vm::ProcState::Down
                                     : code == 'r' ? vm::ProcState::Reclaimed
                                                   : vm::ProcState::Up);
            const auto& rec = actions.row(q)[static_cast<std::size_t>(t)];
            vo::SlotAction a;
            a.recv = renumber(rec.recv, iteration);
            a.compute = renumber(rec.compute, iteration);
            sched.actions[q].push_back(a);
        }
    }
    return vo::validate(inst, sched);
}

constexpr int kDraws = 600;

} // namespace

TEST(SteppingDifferential, EventCoreMatchesSlotLoopOnEveryDraw) {
    int validated = 0;
    int elided_draws = 0;
    for (int i = 0; i < kDraws; ++i) {
        const Draw d = make_draw(i);
        Outcome out[2]; // [0] slot loop, [1] event core
        for (int event = 0; event < 2; ++event) {
            try {
                run_arm(d, event == 1, out[event]);
            } catch (const std::exception& e) {
                FAIL() << d.label << (event ? " event core" : " slot loop")
                       << " threw: " << e.what();
            }
        }
        const vs::RunMetrics& sl = out[0].m;
        const vs::RunMetrics& ev = out[1].m;
        EXPECT_EQ(sl.slots_elided, 0) << d.label;
        EXPECT_EQ(sl.dead_slots_skipped, 0) << d.label;
        EXPECT_LE(ev.dead_slots_skipped, ev.slots_elided) << d.label;
        EXPECT_EQ(comparable_json(ev), comparable_json(sl)) << d.label;
        EXPECT_EQ(out[1].min_slots, out[0].min_slots) << d.label;
        expect_same_timeline(out[1].timeline, out[0].timeline, d.label);
        expect_same_actions(out[1].actions, out[0].actions, d.label);
        if (ev.slots_elided > 0) ++elided_draws;

        // min_slots_for_iterations reports only the makespan; the other
        // two entries return the metrics the validator needs.
        if (d.entry == Entry::MinSlots) continue;
        if (ev.replicas_committed > 0 || ev.proactive_cancellations > 0 ||
            ev.recoveries > 0)
            continue;
        const auto res =
            validate_recorded(d.pf, ev, d.cfg.tasks_per_iteration,
                              out[1].timeline, out[1].actions);
        EXPECT_TRUE(res.valid) << d.label << ": " << res.error;
        if (res.valid && ev.completed) {
            EXPECT_EQ(res.makespan, ev.makespan) << d.label;
        }
        ++validated;
    }
    // The harness must exercise both halves of its claim.
    EXPECT_GE(elided_draws, kDraws / 3)
        << "the event core elided too rarely for the comparison to matter";
    EXPECT_GE(validated, kDraws / 4)
        << "too few draws stayed inside the validator's model";
}

TEST(SteppingDifferential, DrawsCoverEveryAxis) {
    // Guards the generator: a refactor that stops drawing an axis would
    // otherwise silently shrink the comparison above.
    bool cls[3] = {}, avail[3] = {}, entry[3] = {};
    bool cap0 = false, cap2 = false, free_prog = false, free_data = false,
         free_ckpt = false, hetero = false;
    std::vector<std::string> policies;
    for (int i = 0; i < kDraws; ++i) {
        const Draw d = make_draw(i);
        cls[static_cast<int>(d.cfg.plan_class)] = true;
        avail[static_cast<int>(d.availability)] = true;
        entry[static_cast<int>(d.entry)] = true;
        (d.cfg.replica_cap == 0 ? cap0 : cap2) = true;
        free_prog |= d.pf.t_prog == 0;
        free_data |= d.pf.t_data == 0;
        free_ckpt |= !d.checkpoint.empty() && d.cfg.checkpoint_cost == 0;
        for (int w : d.pf.w) hetero |= w != d.pf.w.front();
        const std::string name =
            d.checkpoint.substr(0, d.checkpoint.find_first_of("0123456789"));
        if (std::find(policies.begin(), policies.end(), name) ==
            policies.end())
            policies.push_back(name);
    }
    for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(cls[k]) << "plan class " << k;
        EXPECT_TRUE(avail[k]) << "availability " << k;
        EXPECT_TRUE(entry[k]) << "entry point " << k;
    }
    EXPECT_TRUE(cap0 && cap2);
    EXPECT_TRUE(free_prog && free_data && free_ckpt && hetero);
    // Every registered policy plus "" (no policy).
    EXPECT_EQ(policies.size(),
              vk::CheckpointRegistry::instance().names().size() + 1);
}
