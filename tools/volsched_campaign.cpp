/// \file volsched_campaign.cpp
/// Campaign driver for paper-scale (and beyond) sweeps: shard the Table-1
/// grid across machines, stream per-instance records to durable JSONL/CSV
/// sinks, checkpoint progress, resume after interruption, and merge shard
/// outputs into the paper's dfb tables — bit-identically to an unsharded
/// in-memory sweep.
///
///   volsched_campaign run    --out camp --shard 1/4 --scenarios 247 --trials 10
///   volsched_campaign run    --out camp --shard 1/4        # again: resumes
///   volsched_campaign run    --out camp --parallel 4       # all 4 in-process
///   volsched_campaign status --out camp
///   volsched_campaign merge  --out camp --breakdown
///   volsched_campaign query  --out camp --wmin 2-4 --tasks 10
///   volsched_campaign run    --out smoke --smoke            # tiny CI grid
///
/// Every shard directory (<out>/shard-k-of-N/) is self-describing: the
/// first JSONL line carries the full grid configuration and a fingerprint,
/// so merge, status, and query need no flags beyond --out.  See API.md
/// ("Campaigns") for the sharding, resume, and index contracts.
///
/// All wall-clock access (progress rate/ETA) goes through obs/stopwatch —
/// the rulebook's one sanctioned monotonic-clock seam; nothing here feeds
/// records or tables.

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp" // bench/: shared dfb-table rendering
#include "volsched/volsched.hpp"

namespace {

using namespace volsched;

/// Strict integer parse: the whole token must be digits ("5.10" or "1x"
/// must error out, not silently truncate to a different campaign).
bool parse_int_strict(std::string_view text, int& out) {
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc{} && end == text.data() + text.size();
}

bool parse_int_list(const std::string& text, std::vector<int>& out) {
    out.clear();
    for (const auto& item : util::split_list(text)) {
        int value = 0;
        if (!parse_int_strict(item, value)) return false;
        out.push_back(value);
    }
    return !out.empty();
}

bool parse_shard(const std::string& text, int& index, int& count) {
    const auto slash = text.find('/');
    if (slash == std::string::npos) return false;
    return parse_int_strict(std::string_view(text).substr(0, slash), index) &&
           parse_int_strict(std::string_view(text).substr(slash + 1), count);
}

bool parse_ll_strict(std::string_view text, long long& out) {
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc{} && end == text.data() + text.size();
}

/// Inclusive range flag: "7" (a single value) or "2-5".
bool parse_range(const std::string& text, long long& lo, long long& hi) {
    const auto dash = text.find('-', 1); // a leading '-' is just a sign
    if (dash == std::string::npos) {
        if (!parse_ll_strict(text, lo)) return false;
        hi = lo;
        return true;
    }
    return parse_ll_strict(std::string_view(text).substr(0, dash), lo) &&
           parse_ll_strict(std::string_view(text).substr(dash + 1), hi) &&
           lo <= hi;
}

/// Rate-limited progress line with throughput, ETA, and — when the process
/// registry carries the campaign pipeline gauges — emitter lag and
/// run-ahead window occupancy.  report() is invoked concurrently from
/// worker threads (see SweepConfig::progress); an atomic last-print stamp
/// admits one printer per interval without a lock, and the instance count
/// at the first report anchors the rate so resumed work is not counted as
/// instantaneous progress.
class ProgressPrinter {
public:
    void report(long long done, long long total) {
        const long long ms = watch_.elapsed_ms();
        long long base = base_done_.load(std::memory_order_relaxed);
        if (base < 0) {
            base_done_.compare_exchange_strong(base, done - 1);
            base = base_done_.load(std::memory_order_relaxed);
        }
        const bool final = done == total;
        if (!final) {
            long long last = last_print_ms_.load(std::memory_order_relaxed);
            if (ms - last < kIntervalMs) return;
            if (!last_print_ms_.compare_exchange_strong(last, ms)) return;
        }
        // Pipeline occupancy from the process registry: how far the
        // workers run ahead of the emitter (lag, of window capacity) and
        // how many finished jobs await emission (queue).
        char pipe[64] = "";
        if (obs::Registry* reg = obs::Registry::active()) {
            const long long lag = reg->gauge("campaign.emitter_lag").value();
            const long long window = reg->gauge("campaign.window").value();
            const long long queue =
                reg->gauge("campaign.queue_depth").value();
            if (window > 0)
                std::snprintf(pipe, sizeof pipe,
                              "lag %lld/%lld  queue %lld  ", lag, window,
                              queue);
        }
        const double secs = static_cast<double>(ms) / 1000.0;
        const double rate =
            secs > 0.0 ? static_cast<double>(done - base) / secs : 0.0;
        if (rate > 0.0 && total > done)
            std::fprintf(stderr,
                         "\r%lld/%lld instances  %.1f/s  %sETA %llds  ",
                         done, total, rate, pipe,
                         static_cast<long long>(
                             static_cast<double>(total - done) / rate));
        else
            std::fprintf(stderr, "\r%lld/%lld instances  %s", done, total,
                         pipe);
        if (final) std::fputc('\n', stderr);
    }

private:
    static constexpr long long kIntervalMs = 500;
    obs::Stopwatch watch_;
    std::atomic<long long> last_print_ms_{-kIntervalMs};
    std::atomic<long long> base_done_{-1};
};

void print_tables(const exp::SweepResult& result, bool breakdown) {
    benchtool::print_dfb_table("overall — all problem instances",
                               result.heuristics, result.overall,
                               /*show_wins=*/true);
    if (!breakdown) return;
    for (const auto& [wmin, table] : result.by_wmin)
        benchtool::print_dfb_table("by wmin = " + std::to_string(wmin),
                                   result.heuristics, table,
                                   /*show_wins=*/false);
    for (const auto& [n, table] : result.by_tasks)
        benchtool::print_dfb_table("by n = " + std::to_string(n),
                                   result.heuristics, table,
                                   /*show_wins=*/false);
    for (const auto& [ncom, table] : result.by_ncom)
        benchtool::print_dfb_table("by ncom = " + std::to_string(ncom),
                                   result.heuristics, table,
                                   /*show_wins=*/false);
    // A single-key map is the classic checkpoint-free grid; a breakdown
    // line per policy only makes sense when the axis was swept.
    if (result.by_checkpoint.size() > 1)
        for (const auto& [ckpt, table] : result.by_checkpoint)
            benchtool::print_dfb_table("by checkpoint = " + ckpt,
                                       result.heuristics, table,
                                       /*show_wins=*/false);
}

int cmd_run(int argc, char** argv) {
    util::Cli cli("volsched_campaign run",
                  "run (or resume) one shard of a sweep campaign");
    cli.add_string("out", "", "campaign root directory (required)");
    cli.add_string("shard", "1/1", "this machine's shard, as k/N");
    cli.add_string("heuristics", "all",
                   "comma-separated specs, or 'all' / 'greedy'");
    cli.add_string("tasks", "5,10,20,40", "tasks-per-iteration axis (n)");
    cli.add_string("ncom", "5,10,20", "master concurrency axis");
    cli.add_string("wmin", "1,2,3,4,5,6,7,8,9,10", "wmin axis");
    cli.add_int("scenarios", 3, "scenario draws per grid cell");
    cli.add_int("trials", 3, "trials per scenario");
    cli.add_int("procs", 20, "processors per platform");
    cli.add_int("iterations", 10, "iterations per run");
    cli.add_int("replicas", 2, "extra replica cap per task");
    cli.add_double("tdata", 1.0, "Tdata = tdata * wmin");
    cli.add_double("tprog", 5.0, "Tprog = tprog * wmin");
    cli.add_string("checkpoints", "none",
                   "comma-separated checkpoint-policy axis, e.g. "
                   "'none,daly,periodic20'");
    cli.add_int("checkpoint-cost", 1,
                "master transfer slots per checkpoint upload");
    cli.add_int("seed", 0xC0FFEE, "master seed");
    cli.add_int("threads", 0, "worker threads (0: hardware)");
    // "checkpoint-every" (the durable-manifest cadence, matching
    // CampaignBuilder::checkpoint_every) is deliberately distinct from the
    // --checkpoints/--checkpoint-cost recovery-policy flags above.
    cli.add_int("checkpoint-every", 8, "jobs per durable manifest checkpoint");
    cli.add_int("batches", 0, "stop after this many checkpoints (0: all)");
    cli.add_int("parallel", 0,
                "drive all N shards of an N-way campaign from this process "
                "over one shared worker pool (replaces --shard; 0: off)");
    cli.add_int("pipeline-window", 0,
                "pipeline run-ahead bound in jobs (0: auto-size to "
                "max(checkpoint cadence, 2 x pool size))");
    cli.add_flag("no-event-core",
                 "step every slot through the reference loop instead of the "
                 "event-driven core (results are identical either way, "
                 "apart from the elision counters)");
    cli.add_flag("csv", "also stream records.csv");
    cli.add_flag("fresh", "discard previous output instead of resuming");
    cli.add_flag("quiet", "no progress output");
    cli.add_flag("smoke", "tiny fixed CI grid; overrides the axes, "
                          "heuristics, counts, and checkpoint cadence");
    if (!cli.parse(argc, argv)) return cli.exit_code();

    if (cli.get_string("out").empty()) {
        std::fprintf(stderr, "run: --out is required\n");
        return 2;
    }

    api::ExperimentBuilder experiment;
    try {
        experiment.heuristic_set(cli.get_string("heuristics"));
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    std::vector<int> tasks, ncom, wmin;
    if (!parse_int_list(cli.get_string("tasks"), tasks) ||
        !parse_int_list(cli.get_string("ncom"), ncom) ||
        !parse_int_list(cli.get_string("wmin"), wmin)) {
        std::fprintf(stderr, "run: --tasks/--ncom/--wmin want comma-separated "
                             "integers\n");
        return 2;
    }
    const long long threads = cli.get_int("threads");
    if (threads < 0) {
        std::fprintf(stderr, "run: --threads wants a count >= 0 "
                             "(0: hardware)\n");
        return 2;
    }

    experiment.tasks(tasks)
        .ncom(ncom)
        .wmin(wmin)
        .processors(static_cast<int>(cli.get_int("procs")))
        .scenarios_per_cell(static_cast<int>(cli.get_int("scenarios")))
        .trials(static_cast<int>(cli.get_int("trials")))
        .iterations(static_cast<int>(cli.get_int("iterations")))
        .replica_cap(static_cast<int>(cli.get_int("replicas")))
        .tdata_factor(cli.get_double("tdata"))
        .tprog_factor(cli.get_double("tprog"))
        .seed(static_cast<std::uint64_t>(cli.get_int("seed")))
        .threads(static_cast<std::size_t>(threads))
        .event_driven(!cli.get_flag("no-event-core"));

    const auto ckpt_specs = util::split_list(cli.get_string("checkpoints"));
    if (ckpt_specs.empty()) {
        std::fprintf(stderr,
                     "run: --checkpoints names no policy specs\n");
        return 2;
    }
    try {
        experiment
            .checkpoints(ckpt_specs)
            .checkpoint_cost(static_cast<int>(cli.get_int("checkpoint-cost")));
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    if (cli.get_flag("smoke")) {
        experiment.heuristics({"mct", "emct"})
            .tasks({3})
            .ncom({2})
            .wmin({1, 2})
            .processors(4)
            .scenarios_per_cell(2)
            .trials(2)
            .iterations(2);
    }

    int shard_index = 1, shard_count = 1;
    if (!parse_shard(cli.get_string("shard"), shard_index, shard_count)) {
        std::fprintf(stderr, "run: --shard wants k/N, e.g. --shard 2/4\n");
        return 2;
    }
    const int parallel = static_cast<int>(cli.get_int("parallel"));
    if (parallel < 0) {
        std::fprintf(stderr, "run: --parallel wants a shard count >= 1\n");
        return 2;
    }
    if (parallel > 0 && (shard_index != 1 || shard_count != 1)) {
        std::fprintf(stderr, "run: --parallel drives every shard; it cannot "
                             "be combined with --shard\n");
        return 2;
    }

    // Process-wide metrics registry: feeds the progress line's pipeline
    // occupancy and the per-shard status.json heartbeats.  Observer-only —
    // installing it cannot change any record or table (pinned by the
    // trace/no-trace identity tests).
    static obs::Registry registry;
    obs::Registry::install(&registry);

    auto campaign = experiment.campaign()
                        .directory(cli.get_string("out"))
                        .shard(shard_index, shard_count)
                        .checkpoint_every(cli.get_flag("smoke")
                                              ? 2
                                              : static_cast<int>(
                                                    cli.get_int(
                                                        "checkpoint-every")))
                        .csv(cli.get_flag("csv"))
                        .stop_after_batches(
                            static_cast<int>(cli.get_int("batches")))
                        .pipeline_window(static_cast<int>(
                            cli.get_int("pipeline-window")))
                        .heartbeat();
    if (cli.get_flag("fresh")) campaign.fresh();
    if (!cli.get_flag("quiet")) {
        auto printer = std::make_shared<ProgressPrinter>();
        campaign.progress([printer](long long done, long long total) {
            printer->report(done, total);
        });
    }

    if (parallel > 0) {
        campaign.parallel(parallel);
        const auto outcome = campaign.run_parallel();
        for (std::size_t k = 0; k < outcome.shards.size(); ++k) {
            const auto& shard = outcome.shards[k];
            std::printf("shard %zu/%d: %lld/%lld jobs "
                        "(%lld instances) -> %s\n",
                        k + 1, parallel, shard.jobs_done,
                        shard.jobs_total, shard.instances_done,
                        shard.jsonl_path.string().c_str());
        }
        std::printf("campaign: %lld/%lld jobs (%lld instances) across "
                    "%d in-process shards\n",
                    outcome.jobs_done, outcome.jobs_total,
                    outcome.instances_done, parallel);
        if (!outcome.complete) {
            std::printf("stopped at a checkpoint; re-run the same "
                        "command to continue\n");
            return 3;
        }
        std::printf("all shards complete\n");
        return 0;
    }

    const auto outcome = campaign.run();
    std::printf("shard %d/%d: %lld/%lld jobs (%lld instances) -> %s\n",
                shard_index, shard_count, outcome.jobs_done,
                outcome.jobs_total, outcome.instances_done,
                outcome.jsonl_path.string().c_str());
    if (!outcome.complete) {
        std::printf("stopped at a checkpoint; re-run the same command "
                    "to continue\n");
        return 3;
    }
    std::printf("shard complete\n");
    return 0;
}

int cmd_query(int argc, char** argv) {
    util::Cli cli("volsched_campaign query",
                  "select records by grid axes through the sidecar index");
    cli.add_string("out", "", "campaign root directory (required)");
    cli.add_string("ordinal", "",
                   "scenario-ordinal filter, N or A-B (inclusive)");
    cli.add_string("wmin", "", "wmin filter, N or A-B (inclusive)");
    cli.add_string("tasks", "", "tasks-per-iteration filter, N or A-B");
    cli.add_string("ncom", "", "master-concurrency filter, N or A-B");
    cli.add_flag("csv", "emit a CSV table instead of raw JSONL lines");
    cli.add_string("output", "", "write records here instead of stdout");
    if (!cli.parse(argc, argv)) return cli.exit_code();

    if (cli.get_string("out").empty()) {
        std::fprintf(stderr, "query: --out is required\n");
        return 2;
    }

    exp::QueryFilter filter;
    const auto axis = [&](const char* name,
                          auto& slot) -> bool { // false on a bad flag
        const std::string& text = cli.get_string(name);
        if (text.empty()) return true;
        long long lo = 0, hi = 0;
        if (!parse_range(text, lo, hi) || lo < 0) {
            std::fprintf(stderr,
                         "query: --%s wants N or A-B (non-negative, "
                         "inclusive)\n",
                         name);
            return false;
        }
        using limit_t = decltype(slot->first);
        slot.emplace(static_cast<limit_t>(lo), static_cast<limit_t>(hi));
        return true;
    };
    if (!axis("ordinal", filter.ordinal) || !axis("wmin", filter.wmin) ||
        !axis("tasks", filter.tasks) || !axis("ncom", filter.ncom))
        return 2;

    const auto dirs =
        exp::find_shard_directories(cli.get_string("out"));
    if (dirs.empty()) {
        std::fprintf(stderr, "query: no shard directories under '%s'\n",
                     cli.get_string("out").c_str());
        return 1;
    }
    std::vector<std::filesystem::path> files;
    files.reserve(dirs.size());
    for (const auto& dir : dirs) files.push_back(dir / "records.jsonl");

    std::FILE* dest = stdout;
    if (const auto& path = cli.get_string("output"); !path.empty()) {
        dest = std::fopen(path.c_str(), "wb");
        if (!dest) {
            std::fprintf(stderr, "query: cannot open '%s'\n",
                         path.c_str());
            return 1;
        }
    }

    const bool as_csv = cli.get_flag("csv");
    bool with_checkpoint = false;
    if (as_csv) {
        // The self-describing shard header names the heuristic columns.
        std::ifstream first(files.front());
        std::string header_line;
        std::getline(first, header_line);
        const auto header = exp::parse_campaign_header(header_line);
        with_checkpoint =
            header.sweep.checkpoint_values.size() != 1 ||
            header.sweep.checkpoint_values.front() != "none";
        std::fprintf(dest, "%s\n",
                     exp::CsvSink::header_row(header.heuristics,
                                              with_checkpoint)
                         .c_str());
    }

    const auto stats = exp::query_shards(
        files, filter, [&](const std::string& line) {
            if (as_csv) {
                const auto rec = exp::JsonlSink::parse_record(line);
                std::fprintf(dest, "%s\n",
                             exp::CsvSink::format_row(rec,
                                                      with_checkpoint)
                                 .c_str());
            } else {
                std::fprintf(dest, "%s\n", line.c_str());
            }
        });
    if (dest != stdout) std::fclose(dest);
    std::fprintf(stderr, "matched %llu record(s) across %zu shard(s)",
                 static_cast<unsigned long long>(stats.matched),
                 files.size());
    if (stats.indexes_rebuilt > 0)
        std::fprintf(stderr, "; rebuilt %d stale or missing index(es)",
                     stats.indexes_rebuilt);
    std::fputc('\n', stderr);
    return 0;
}

int cmd_merge(int argc, char** argv) {
    util::Cli cli("volsched_campaign merge",
                  "combine shard outputs into the paper's dfb tables");
    cli.add_string("out", "", "campaign root directory (required)");
    cli.add_flag("breakdown", "also print by-wmin/by-n/by-ncom tables");
    cli.add_string("csv", "", "write the overall table to this CSV path");
    if (!cli.parse(argc, argv)) return cli.exit_code();

    if (cli.get_string("out").empty()) {
        std::fprintf(stderr, "merge: --out is required\n");
        return 2;
    }

    const auto dirs =
        exp::find_shard_directories(cli.get_string("out"));
    if (dirs.empty()) {
        std::fprintf(stderr,
                     "merge: no shard directories under '%s'\n",
                     cli.get_string("out").c_str());
        return 1;
    }
    std::vector<std::filesystem::path> files;
    files.reserve(dirs.size());
    for (const auto& dir : dirs) files.push_back(dir / "records.jsonl");
    const auto result = exp::merge_shards(files);
    std::printf("merged %zu shard(s), %lld instances\n\n", files.size(),
                result.overall.instances());
    print_tables(result, cli.get_flag("breakdown"));
    if (const auto& path = cli.get_string("csv"); !path.empty())
        benchtool::write_dfb_csv(path, result.heuristics,
                                 result.overall);
    return 0;
}

int cmd_status(int argc, char** argv) {
    util::Cli cli("volsched_campaign status",
                  "show per-shard progress from the checkpoint manifests");
    cli.add_string("out", "", "campaign root directory (required)");
    if (!cli.parse(argc, argv)) return cli.exit_code();

    if (cli.get_string("out").empty()) {
        std::fprintf(stderr, "status: --out is required\n");
        return 2;
    }

    const auto dirs = exp::find_shard_directories(cli.get_string("out"));
    if (dirs.empty()) {
        std::fprintf(stderr, "status: no shard directories under '%s'\n",
                     cli.get_string("out").c_str());
        return 1;
    }

    // Two sources per shard: the durable MANIFEST (checkpointed truth) and
    // the live status.json heartbeat (exp/status.hpp), which also carries
    // pipeline occupancy and stage wall-times.  A missing heartbeat is
    // normal (old runs, heartbeat off) and renders as "-".
    util::TextTable table({"shard", "jobs", "instances", "jsonl bytes",
                           "state", "heartbeat", "lag/win", "queue",
                           "avg run us"});
    for (std::size_t c = 1; c < 4; ++c) table.align_right(c);
    for (std::size_t c = 6; c < 9; ++c) table.align_right(c);
    long long done_total = 0, jobs_total = 0;
    bool all_complete = true;
    int shard_count = 0;
    for (const auto& dir : dirs) {
        std::string hb_state = "-", hb_pipe = "-", hb_queue = "-",
                    hb_run = "-";
        if (const auto status = exp::read_status(dir)) {
            hb_state = status->state;
            hb_pipe = std::to_string(status->emitter_lag) + "/" +
                      std::to_string(status->window);
            hb_queue = std::to_string(status->queue_depth);
            if (status->run.count > 0)
                hb_run =
                    std::to_string(status->run.total_us / status->run.count);
        }
        const auto manifest = exp::read_manifest(dir);
        if (!manifest) {
            table.add_row({dir.filename().string(), "-", "-", "-",
                           "no manifest", hb_state, hb_pipe, hb_queue,
                           hb_run});
            all_complete = false;
            continue;
        }
        shard_count = manifest->shard_count;
        done_total += manifest->jobs_done;
        jobs_total += manifest->jobs_total;
        all_complete = all_complete && manifest->complete;
        table.add_row({dir.filename().string(),
                       std::to_string(manifest->jobs_done) + "/" +
                           std::to_string(manifest->jobs_total),
                       std::to_string(manifest->instances_done),
                       std::to_string(manifest->jsonl_bytes),
                       manifest->complete ? "complete" : "running", hb_state,
                       hb_pipe, hb_queue, hb_run});
    }
    if (static_cast<int>(dirs.size()) < shard_count) {
        table.add_row({std::to_string(shard_count -
                                      static_cast<int>(dirs.size())) +
                           " shard(s)",
                       "-", "-", "-", "not started", "-", "-", "-", "-"});
        all_complete = false;
    }
    std::printf("%s", table.render("campaign " + cli.get_string("out"))
                          .c_str());
    if (jobs_total > 0)
        std::printf("%.1f%% of the started shards' jobs done\n",
                    100.0 * static_cast<double>(done_total) /
                        static_cast<double>(jobs_total));
    std::printf(all_complete ? "all shards complete — ready to merge\n"
                             : "campaign incomplete\n");
    return 0;
}

void usage() {
    std::puts("volsched_campaign — sharded, resumable sweep campaigns\n"
              "\n"
              "subcommands:\n"
              "  run     run (or resume) one shard (or, with --parallel N,\n"
              "          all N shards in-process); writes\n"
              "          <out>/shard-k-of-N/{records.jsonl,records.idx,\n"
              "          MANIFEST}\n"
              "  merge   combine all shard outputs into the dfb tables\n"
              "  status  per-shard progress from the checkpoint manifests\n"
              "  query   select records by ordinal/wmin/tasks/ncom ranges\n"
              "          through the sidecar index, as JSONL or CSV\n"
              "\n"
              "volsched_campaign <subcommand> --help lists its options.\n"
              "The sharding, resume, and index contracts are documented in\n"
              "API.md (\"Campaigns\").");
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        usage();
        return argc < 2 ? 2 : 0;
    }
    const std::string cmd = argv[1];
    // A subcommand that fails (a malformed manifest, an unreadable shard)
    // prints the diagnostic and exits 1.
    try {
        if (cmd == "run") return cmd_run(argc - 1, argv + 1);
        if (cmd == "merge") return cmd_merge(argc - 1, argv + 1);
        if (cmd == "status") return cmd_status(argc - 1, argv + 1);
        if (cmd == "query") return cmd_query(argc - 1, argv + 1);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown subcommand '%s'\n\n", argv[1]);
    usage();
    return 2;
}
