/// \file volsched_sim.cpp
/// Command-line simulation driver: one run (or a same-realization
/// comparison of several heuristics), fully parameterized, with optional
/// event-log CSV and ASCII timeline output.
///
///   volsched_sim --heuristic emct* --procs 20 --tasks 10 --iterations 10
///                --ncom 5 --wmin 2 --seed 42 --timeline --events run.csv
///   volsched_sim --heuristics "emct*,mct,thr50:emct" --seed 7
///   volsched_sim --list-heuristics
///
/// Heuristics are named by registry spec strings (see API.md): any
/// registered name, wrapper stages ("thr50:emct") and key=value options
/// ("thr(percent=50):emct").  Availability models: "markov" (paper
/// recipe), "weibull" and "lognormal" (semi-Markov desktop-grid fleets
/// with Markov beliefs fitted from a recorded history).

#include <climits>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>

#include "volsched/volsched.hpp"

namespace {

using namespace volsched;

/// Writes `path` through `write`; false, with a diagnostic, when the file
/// cannot be written.
bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
    std::ofstream out(path);
    write(out);
    out.flush();
    if (out) return true;
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return false;
}

int list_heuristics() {
    const auto entries = api::SchedulerRegistry::instance().entries();
    util::TextTable table({"name", "description"});
    for (const auto& entry : entries) {
        std::string name = entry.name;
        if (entry.takes_inner) name += ":<inner>";
        table.add_row({name, entry.description});
    }
    std::printf("%s", table.render("registered heuristics").c_str());
    std::puts("\nspec grammar: name[(key=value,...)][:inner], e.g. "
              "thr50:emct or thr(percent=50):emct\n"
              "paper sections and intuitions: HEURISTICS.md");
    return 0;
}

int list_checkpoints() {
    const auto entries = ckpt::CheckpointRegistry::instance().entries();
    util::TextTable table({"name", "description"});
    for (const auto& entry : entries)
        table.add_row({entry.name, entry.description});
    std::printf("%s", table.render("registered checkpoint policies").c_str());
    std::puts("\nspec grammar: name[(key=value,...)], e.g. periodic20 or "
              "risk(percent=25); policies do not nest.\n"
              "model and formulas: src/ckpt/policy.hpp and API.md");
    return 0;
}

void print_metrics(const sim::RunMetrics& m, int tasks_per_iteration,
                   bool checkpointing) {
    std::printf("completed        %s\n", m.completed ? "yes" : "NO");
    std::printf("makespan         %lld slots (%d iterations x %d tasks)\n",
                m.makespan, m.iterations_completed, tasks_per_iteration);
    std::printf("tasks completed  %lld  (replica commits %lld, wins %lld)\n",
                m.tasks_completed, m.replicas_committed, m.replica_wins);
    std::printf("crashes          %lld   proactive cancels %lld\n",
                m.down_events, m.proactive_cancellations);
    std::printf("transfer slots   %lld  (wasted %lld)\n", m.transfer_slots,
                m.wasted_transfer_slots);
    std::printf("compute slots    %lld  (wasted %lld)\n", m.compute_slots,
                m.wasted_compute_slots);
    if (checkpointing)
        std::printf("checkpoints      %lld committed (%lld transfer slots, "
                    "%lld recoveries, %lld compute slots saved)\n",
                    m.checkpoints_committed, m.checkpoint_slots,
                    m.recoveries, m.saved_compute_slots);
    if (m.dead_slots_skipped > 0)
        std::printf("dead slots       %lld fast-forwarded (all workers "
                    "absent)\n",
                    m.dead_slots_skipped);
    if (m.slots_elided > 0)
        std::printf("slots elided     %lld advanced in closed form "
                    "(event-driven core)\n",
                    m.slots_elided);
    if (m.cache_hits + m.cache_misses > 0)
        std::printf("score cache      %lld hits, %lld misses, %lld "
                    "invalidations\n",
                    m.cache_hits, m.cache_misses, m.cache_invalidations);
}

/// Integer option `name`, range-checked against [lo, hi] on the parsed
/// 64-bit value, before any narrowing to int; a value outside it gets a
/// diagnostic and nullopt.
std::optional<int> int_option(const util::Cli& cli, const char* name,
                              long long lo, long long hi) {
    const long long v = cli.get_int(name);
    if (v < lo || v > hi) {
        std::fprintf(stderr, "--%s %lld is out of range [%lld, %lld]\n", name,
                     v, lo, hi);
        return std::nullopt;
    }
    return static_cast<int>(v);
}

int run(int argc, char** argv) {
    util::Cli cli("volsched_sim", "run one master-worker simulation");
    cli.add_string("heuristic", "emct*",
                   "scheduler spec (--list-heuristics prints all names)");
    cli.add_string("heuristics", "",
                   "comma-separated specs: compare them on one realization");
    cli.add_flag("list-heuristics",
                 "print the registered heuristics and exit");
    cli.add_string("checkpoint", "none",
                   "checkpoint policy spec (--list-checkpoints prints all)");
    cli.add_int("checkpoint-cost", 1,
                "master transfer slots per checkpoint upload");
    cli.add_flag("list-checkpoints",
                 "print the registered checkpoint policies and exit");
    cli.add_string("metrics-json", "",
                   "write the full RunMetrics as JSON to this path ('-' for "
                   "stdout); comparison mode writes one object per spec");
    cli.add_string("model", "markov", "availability: markov|weibull|lognormal");
    cli.add_string("class", "dynamic", "scheduler class: dynamic|passive|proactive");
    cli.add_int("procs", 20, "number of processors");
    cli.add_int("tasks", 10, "tasks per iteration (m)");
    cli.add_int("iterations", 10, "iterations to complete");
    cli.add_int("ncom", 5, "max concurrent master transfers");
    cli.add_int("wmin", 2, "w_q ~ U[wmin, 10*wmin]; Tdata=wmin, Tprog=5*wmin");
    cli.add_int("replicas", 2, "extra replica cap per task");
    cli.add_int("seed", 42, "master seed");
    cli.add_int("mean-up", 120, "mean UP sojourn (semi-Markov models)");
    cli.add_flag("no-event-core",
                 "step every slot through the reference loop instead of the "
                 "event-driven core (results are identical either way, "
                 "apart from the elision counters)");
    cli.add_flag("timeline", "print the ASCII activity chart");
    cli.add_int("timeline-window", 120, "chart slots to display");
    cli.add_string("events", "", "write the event log to this CSV path");
    cli.add_string("trace-out", "",
                   "write a Perfetto-loadable Chrome trace JSON of the run "
                   "to this path (1 slot = 1 us; single-heuristic runs)");
    if (!cli.parse(argc, argv)) return cli.exit_code();

    if (cli.get_flag("list-heuristics")) return list_heuristics();
    if (cli.get_flag("list-checkpoints")) return list_checkpoints();

    const std::string& spec_list = cli.get_string("heuristics");
    std::vector<std::string> specs = util::split_list(spec_list);
    if (!spec_list.empty() && specs.empty()) {
        std::fprintf(stderr, "--heuristics '%s' contains no specs\n",
                     spec_list.c_str());
        return 2;
    }
    if (specs.empty()) {
        specs.push_back(cli.get_string("heuristic"));
    } else if (cli.get_string("heuristic") != "emct*") {
        std::fprintf(stderr, "note: --heuristic '%s' is ignored because "
                             "--heuristics is given\n",
                     cli.get_string("heuristic").c_str());
    }
    const auto& registry = api::SchedulerRegistry::instance();
    for (const auto& spec : specs) {
        try {
            registry.validate(spec);
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    // Range checks on the 64-bit parse, so no value is truncated: speeds
    // reach 10 * wmin, the semi-Markov models scale mean-up by at least
    // 0.5 and need a mean of at least 1, and a fleet or task count beyond
    // a million is a typo, not a simulation.
    const auto p = int_option(cli, "procs", 1, 1'000'000);
    const auto tasks = int_option(cli, "tasks", 1, 1'000'000);
    const auto iterations = int_option(cli, "iterations", 1, INT_MAX);
    const auto ncom = int_option(cli, "ncom", 1, INT_MAX);
    const auto wmin = int_option(cli, "wmin", 1, INT_MAX / 10);
    const auto replicas = int_option(cli, "replicas", 0, 1'000'000);
    const auto ckpt_cost = int_option(cli, "checkpoint-cost", 0, INT_MAX);
    const auto mean_up = int_option(cli, "mean-up", 2, INT_MAX);
    if (!p || !tasks || !iterations || !ncom || !wmin || !replicas ||
        !ckpt_cost || !mean_up)
        return 2;
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto& model = cli.get_string("model");

    // Platform + availability, assembled through the facade builder.
    util::Rng rng(util::mix_seed(seed, 0x700157ULL));
    sim::Platform pf;
    pf.ncom = *ncom;
    pf.t_data = *wmin;
    pf.t_prog = 5 * *wmin;
    for (int q = 0; q < *p; ++q)
        pf.w.push_back(static_cast<int>(
            rng.uniform_int(*wmin, static_cast<std::uint64_t>(10) * *wmin)));

    auto builder = sim::Simulation::builder();
    builder.platform(pf).seed(seed);
    if (model == "markov") {
        builder.markov(markov::generate_chains(static_cast<std::size_t>(*p),
                                               rng));
    } else if (model == "weibull" || model == "lognormal") {
        const auto mean = static_cast<double>(*mean_up);
        std::vector<std::unique_ptr<markov::AvailabilityModel>> models;
        std::vector<markov::MarkovChain> beliefs;
        for (int q = 0; q < *p; ++q) {
            const auto params =
                model == "weibull"
                    ? trace::desktop_grid_params(mean * rng.uniform(0.5, 1.5))
                    : trace::desktop_grid_params_lognormal(
                          mean * rng.uniform(0.5, 1.5));
            trace::SemiMarkovAvailability proto(params);
            util::Rng fit_rng(util::mix_seed(seed, q, 0xF17));
            const auto history = trace::record(proto, 30000, fit_rng);
            beliefs.emplace_back(trace::fit_markov({history}));
            models.push_back(
                std::make_unique<trace::SemiMarkovAvailability>(params));
        }
        builder.models(std::move(models)).beliefs(std::move(beliefs));
    } else {
        std::fprintf(stderr, "unknown availability model '%s'\n",
                     model.c_str());
        return 2;
    }

    builder.iterations(*iterations)
        .tasks_per_iteration(*tasks)
        .replica_cap(*replicas)
        .event_driven(!cli.get_flag("no-event-core"));
    const std::string& ckpt_spec = cli.get_string("checkpoint");
    const bool checkpointing = ckpt_spec != "none";
    if (checkpointing) {
        try {
            builder.checkpoint(ckpt_spec).checkpoint_cost(*ckpt_cost);
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }
    const auto& cls = cli.get_string("class");
    if (cls == "passive") builder.plan_class(sim::SchedulerClass::Passive);
    else if (cls == "proactive")
        builder.plan_class(sim::SchedulerClass::Proactive);
    else if (cls != "dynamic") {
        std::fprintf(stderr, "unknown scheduler class '%s'\n", cls.c_str());
        return 2;
    }

    sim::EventLog events;
    sim::Timeline timeline;
    obs::TraceRecorder tracer;
    const bool single = specs.size() == 1;
    const bool want_events = !cli.get_string("events").empty();
    const bool want_timeline = cli.get_flag("timeline");
    const bool want_trace = !cli.get_string("trace-out").empty();
    if (single && want_events) builder.observe(&events);
    if (single && want_timeline) builder.observe(&timeline);
    if (single && want_trace) builder.trace(&tracer);
    if (!single && (want_events || want_timeline || want_trace))
        std::fprintf(stderr, "note: --events/--timeline/--trace-out only "
                             "apply to single-heuristic runs; ignoring\n");

    const auto simulation = builder.build();

    const std::string& metrics_json = cli.get_string("metrics-json");
    const auto emit_json = [&metrics_json](const std::string& text) {
        if (metrics_json == "-") {
            std::printf("%s\n", text.c_str());
            return true;
        }
        if (!write_file(metrics_json,
                        [&text](std::ostream& out) { out << text << '\n'; }))
            return false;
        std::printf("wrote metrics JSON to %s\n", metrics_json.c_str());
        return true;
    };

    if (single) {
        const auto sched = registry.make(specs.front());
        const auto m = simulation.run(*sched);
        std::printf("heuristic        %s (%s class, %s availability"
                    "%s%s)\n",
                    std::string(sched->name()).c_str(), cls.c_str(),
                    model.c_str(), checkpointing ? ", checkpoint " : "",
                    checkpointing ? ckpt_spec.c_str() : "");
        print_metrics(m, simulation.config().tasks_per_iteration,
                      checkpointing);
        if (want_timeline) {
            const long long window = cli.get_int("timeline-window");
            std::printf("\nactivity chart (first %lld slots; P prog, D data, "
                        "C compute, B both, K checkpoint, r reclaimed, "
                        "d down):\n%s",
                        window, timeline.render(0, window).c_str());
        }
        if (want_events) {
            const std::string& events_path = cli.get_string("events");
            if (!write_file(events_path, [&events](std::ostream& out) {
                    events.write_csv(out);
                }))
                return 1;
            std::printf("\nwrote %zu events to %s\n", events.size(),
                        events_path.c_str());
        }
        if (want_trace) {
            tracer.meta("tool", "volsched_sim");
            tracer.meta("heuristic", std::string(sched->name()));
            tracer.meta("model", model);
            tracer.meta("seed", std::to_string(seed));
            const std::string& trace_path = cli.get_string("trace-out");
            if (!write_file(trace_path, [&tracer](std::ostream& out) {
                    tracer.write_json(out);
                }))
                return 1;
            std::printf("wrote %zu trace events to %s\n", tracer.size(),
                        trace_path.c_str());
        }
        if (!metrics_json.empty() && !emit_json(sim::metrics_to_json(m)))
            return 1;
        return m.completed ? 0 : 1;
    }

    // Comparison mode: every spec faces the identical availability
    // realization (the per-instance property the paper's metric needs).
    util::TextTable table({"heuristic", "makespan", "completed", "crashes",
                           "replica wins", "wasted comm", "wasted compute"});
    for (std::size_t c = 1; c < 7; ++c) table.align_right(c);
    bool all_completed = true;
    std::string json_rows = "[";
    for (const auto& spec : specs) {
        const auto sched = registry.make(spec);
        const auto m = simulation.run(*sched);
        all_completed = all_completed && m.completed;
        table.add_row({std::string(sched->name()),
                       std::to_string(m.makespan),
                       m.completed ? "yes" : "NO",
                       std::to_string(m.down_events),
                       std::to_string(m.replica_wins),
                       std::to_string(m.wasted_transfer_slots),
                       std::to_string(m.wasted_compute_slots)});
        if (!metrics_json.empty()) {
            if (json_rows.size() > 1) json_rows += ',';
            json_rows += "\n  {\"heuristic\":\"" + util::json::escape(spec) +
                         "\",\"metrics\":" + sim::metrics_to_json(m) + "}";
        }
    }
    std::printf("%s", table.render(std::to_string(specs.size()) +
                                   " heuristics, one availability "
                                   "realization (" + model + ", " + cls +
                                   " class" +
                                   (checkpointing
                                        ? ", checkpoint " + ckpt_spec
                                        : "") +
                                   ")")
                          .c_str());
    if (!metrics_json.empty() && !emit_json(json_rows + "\n]")) return 1;
    return all_completed ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    // Anything the library rejects past the option checks (a builder or
    // model precondition, an allocation failure) is a diagnostic, not an
    // abort.
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "volsched_sim: %s\n", e.what());
        return 2;
    }
}
