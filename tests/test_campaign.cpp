/// Campaign subsystem: shard planner determinism, streaming sinks,
/// checkpoint/resume, and merge.  The two load-bearing guarantees pinned
/// down here are the issue's acceptance criteria: (1) a 2-shard run merged
/// is **bit-identical** to the unsharded run_sweep tables, and (2) a
/// killed-and-resumed campaign produces byte-identical JSONL output with
/// zero duplicate records.

#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "api/campaign_builder.hpp"
#include "api/experiment_builder.hpp"
#include "exp/campaign.hpp"
#include "exp/index_sink.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "support/golden.hpp"

namespace ve = volsched::exp;
namespace va = volsched::api;
using volsched::test::TempDir;
using volsched::test::read_file;

namespace {

/// Small but non-trivial grid: 2x1x2 cells x 2 draws = 8 jobs, 16 instances.
ve::SweepConfig small_sweep() {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3, 4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 2;
    cfg.master_seed = 99;
    cfg.threads = 2;
    return cfg;
}

const std::vector<std::string> kHeuristics = {"mct", "emct"};

ve::CampaignConfig small_campaign(const std::filesystem::path& dir) {
    ve::CampaignConfig cfg;
    cfg.sweep = small_sweep();
    cfg.heuristics = kHeuristics;
    cfg.directory = dir;
    cfg.checkpoint_jobs = 3; // deliberately not a divisor of 8
    return cfg;
}

/// Bit-identical table comparison: exact ==, not almost-equal.
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

void expect_results_identical(const ve::SweepResult& a,
                              const ve::SweepResult& b) {
    EXPECT_EQ(a.heuristics, b.heuristics);
    expect_tables_identical(a.overall, b.overall);
    auto compare_maps = [](const std::map<int, ve::DfbTable>& ma,
                           const std::map<int, ve::DfbTable>& mb) {
        ASSERT_EQ(ma.size(), mb.size());
        for (const auto& [key, table] : ma) {
            const auto it = mb.find(key);
            ASSERT_NE(it, mb.end()) << "missing key " << key;
            expect_tables_identical(table, it->second);
        }
    };
    compare_maps(a.by_wmin, b.by_wmin);
    compare_maps(a.by_tasks, b.by_tasks);
    compare_maps(a.by_ncom, b.by_ncom);
}

} // namespace

TEST(ShardPlanner, PartitionsTheGridDisjointlyAndCompletely) {
    const auto cfg = small_sweep();
    const auto all = ve::grid_jobs(cfg);
    ASSERT_EQ(all.size(), 8u);

    std::set<std::uint64_t> seen;
    for (int k = 1; k <= 3; ++k) {
        const auto mine = ve::shard_jobs(cfg, k, 3);
        // Round-robin keeps shards balanced within one job.
        EXPECT_GE(mine.size(), all.size() / 3);
        EXPECT_LE(mine.size(), all.size() / 3 + 1);
        for (const auto& job : mine) {
            EXPECT_TRUE(seen.insert(job.ordinal).second)
                << "ordinal " << job.ordinal << " in two shards";
            // Seeds come from the global ordinal, not the shard.
            EXPECT_EQ(job.scenario.seed, all[job.ordinal].scenario.seed);
        }
    }
    EXPECT_EQ(seen.size(), all.size());

    EXPECT_THROW(ve::shard_jobs(cfg, 0, 3), std::invalid_argument);
    EXPECT_THROW(ve::shard_jobs(cfg, 4, 3), std::invalid_argument);
    EXPECT_THROW(ve::shard_jobs(cfg, 1, 0), std::invalid_argument);
}

TEST(Sink, JsonlRecordRoundTrips) {
    ve::InstanceRecord rec;
    rec.scenario_ordinal = 12345678901234567890ULL; // full uint64 range
    rec.trial = 7;
    rec.scenario.p = 20;
    rec.scenario.tasks = 40;
    rec.scenario.ncom = 10;
    rec.scenario.wmin = 3;
    rec.scenario.tdata_factor = 1.5;
    rec.scenario.tprog_factor = 5.25;
    rec.scenario.seed = 0xFFFFFFFFFFFFFFFFULL;
    rec.makespans = {123, 456789, 1};

    const auto line = ve::JsonlSink::format_record(rec);
    const auto back = ve::JsonlSink::parse_record(line);
    EXPECT_EQ(back.scenario_ordinal, rec.scenario_ordinal);
    EXPECT_EQ(back.trial, rec.trial);
    EXPECT_EQ(back.scenario.p, rec.scenario.p);
    EXPECT_EQ(back.scenario.tasks, rec.scenario.tasks);
    EXPECT_EQ(back.scenario.ncom, rec.scenario.ncom);
    EXPECT_EQ(back.scenario.wmin, rec.scenario.wmin);
    EXPECT_EQ(back.scenario.tdata_factor, rec.scenario.tdata_factor);
    EXPECT_EQ(back.scenario.tprog_factor, rec.scenario.tprog_factor);
    EXPECT_EQ(back.scenario.seed, rec.scenario.seed);
    EXPECT_EQ(back.makespans, rec.makespans);

    EXPECT_THROW(ve::JsonlSink::parse_record("{\"ordinal\":1"),
                 std::invalid_argument);
    EXPECT_THROW(ve::JsonlSink::parse_record("{\"trial\":0}"),
                 std::invalid_argument);
}

TEST(Sink, CsvSinkWritesHeaderAndRows) {
    TempDir dir;
    const auto path = dir.file("records.csv");
    {
        ve::CsvSink sink(path, {"mct", "emct"});
        ve::InstanceRecord rec;
        rec.scenario_ordinal = 3;
        rec.trial = 1;
        rec.scenario.p = 4;
        rec.scenario.tasks = 3;
        rec.scenario.ncom = 2;
        rec.scenario.wmin = 1;
        rec.scenario.seed = 42;
        rec.makespans = {100, 120};
        sink.write(rec);
        sink.flush();
    }
    const std::string text = read_file(path);
    EXPECT_EQ(text,
              "ordinal,trial,p,tasks,ncom,wmin,tdata_factor,tprog_factor,"
              "seed,mct,emct\n"
              "3,1,4,3,2,1,1,5,42,100,120\n");
}

TEST(Campaign, HeaderLineRoundTrips) {
    TempDir dir;
    auto cfg = small_campaign(dir.path());
    cfg.shard_index = 2;
    cfg.shard_count = 3;
    const auto header =
        ve::parse_campaign_header(ve::campaign_header_line(cfg));
    EXPECT_EQ(header.heuristics, cfg.heuristics);
    EXPECT_EQ(header.shard_index, 2);
    EXPECT_EQ(header.shard_count, 3);
    EXPECT_EQ(header.sweep.tasks_values, cfg.sweep.tasks_values);
    EXPECT_EQ(header.sweep.wmin_values, cfg.sweep.wmin_values);
    EXPECT_EQ(header.sweep.master_seed, cfg.sweep.master_seed);
    EXPECT_EQ(header.fingerprint,
              ve::campaign_fingerprint(cfg.sweep, cfg.heuristics));

    // Any result-determining change moves the fingerprint.
    auto other = cfg.sweep;
    other.master_seed ^= 1;
    EXPECT_NE(ve::campaign_fingerprint(other, cfg.heuristics),
              header.fingerprint);
    EXPECT_NE(ve::campaign_fingerprint(cfg.sweep, {"mct"}),
              header.fingerprint);
}

TEST(Campaign, ManifestRoundTripsAtomically) {
    TempDir dir;
    EXPECT_FALSE(ve::read_manifest(dir.path()).has_value());
    ve::CampaignManifest m;
    m.fingerprint = 0xDEADBEEFCAFEF00DULL;
    m.shard_index = 2;
    m.shard_count = 4;
    m.jobs_done = 3;
    m.jobs_total = 8;
    m.instances_done = 6;
    m.jsonl_bytes = 1234;
    m.csv_bytes = 0;
    m.complete = false;
    ve::write_manifest(dir.path(), m);
    const auto back = ve::read_manifest(dir.path());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->fingerprint, m.fingerprint);
    EXPECT_EQ(back->shard_index, 2);
    EXPECT_EQ(back->shard_count, 4);
    EXPECT_EQ(back->jobs_done, 3);
    EXPECT_EQ(back->jobs_total, 8);
    EXPECT_EQ(back->instances_done, 6);
    EXPECT_EQ(back->jsonl_bytes, 1234u);
    EXPECT_FALSE(back->complete);
    // No torn temp file left behind.
    EXPECT_FALSE(std::filesystem::exists(
        ve::manifest_path(dir.path()).string() + ".tmp"));
}

TEST(Campaign, ReadManifestRejectsImpossibleManifests) {
    TempDir dir;
    const auto path = ve::manifest_path(dir.path());
    const auto write = [&path](const std::string& text) {
        std::ofstream(path) << text;
    };
    const std::string head =
        "volsched-campaign-manifest 1\nfingerprint 7\n";
    const std::string tail = "instances 6\ncomplete 0\n";
    write(head + "shard 1 2\njobs 3 8\njsonl 10\ncsv 0\n" + tail);
    EXPECT_TRUE(ve::read_manifest(dir.path()).has_value());
    // Every reader (run's resume, status, merge) sees the same rejection.
    for (const std::string& bad : {
             std::string{},                                     // empty file
             head + "shard 1 2\njobs -5 4\n" + tail,            // done < 0
             head + "shard 1 2\njobs 9 8\n" + tail,             // done > total
             head + "shard 3 2\njobs 3 8\n" + tail,             // index > count
             head + "shard 0 2\njobs 3 8\n" + tail,             // index < 1
             head + "shard 1 2\njobs 3 8\njsonl -10\n" + tail, // bytes < 0
             head + "shard 1 2\njobs 3 8\ncsv -1\n" + tail,
         }) {
        write(bad);
        EXPECT_THROW(ve::read_manifest(dir.path()), std::runtime_error)
            << bad;
    }
}

TEST(Campaign, TwoShardsMergedBitMatchUnshardedSweep) {
    const auto sweep = small_sweep();
    const auto expected = ve::run_sweep(sweep, kHeuristics);

    TempDir root;
    std::vector<std::filesystem::path> files;
    for (int k = 1; k <= 2; ++k) {
        auto cfg = small_campaign(root.path() /
                                  ve::shard_directory_name(k, 2));
        cfg.shard_index = k;
        cfg.shard_count = 2;
        const auto outcome = ve::run_campaign(cfg);
        EXPECT_TRUE(outcome.complete);
        EXPECT_EQ(outcome.jobs_done, 4);
        files.push_back(outcome.jsonl_path);
    }

    const auto merged = ve::merge_shards(files);
    expect_results_identical(merged, expected);
}

TEST(Campaign, StreamingMergeScalesToManyShardsAndJobs) {
    // A deliberately larger grid across three shards: the streaming k-way
    // merge walks the grid pulling one record at a time from the owning
    // shard's stream (peak memory O(shards + jobs), never O(records)) and
    // must still bit-match the unsharded sweep, regardless of the order
    // the shard files are presented in.
    ve::SweepConfig sweep;
    sweep.tasks_values = {2, 3};
    sweep.ncom_values = {1, 2};
    sweep.wmin_values = {1, 2, 3};
    sweep.scenarios_per_cell = 5;  // 2*2*3*5 = 60 jobs
    sweep.trials_per_scenario = 2; // 120 records across the shards
    sweep.p = 3;
    sweep.run.iterations = 1;
    sweep.master_seed = 4242;
    sweep.threads = 2;
    const auto expected = ve::run_sweep(sweep, kHeuristics);

    TempDir root;
    std::vector<std::filesystem::path> files;
    for (int k = 1; k <= 3; ++k) {
        ve::CampaignConfig cfg;
        cfg.sweep = sweep;
        cfg.heuristics = kHeuristics;
        cfg.directory = root.path() / ve::shard_directory_name(k, 3);
        cfg.shard_index = k;
        cfg.shard_count = 3;
        cfg.checkpoint_jobs = 7; // deliberately not a divisor of 20
        const auto outcome = ve::run_campaign(cfg);
        ASSERT_TRUE(outcome.complete);
        files.push_back(outcome.jsonl_path);
    }
    std::swap(files[0], files[2]); // merge order must not matter
    const auto merged = ve::merge_shards(files);
    expect_results_identical(merged, expected);
}

TEST(Campaign, SingleShardMatchesSweepAndRerunIsNoOp) {
    const auto sweep = small_sweep();
    const auto expected = ve::run_sweep(sweep, kHeuristics);

    TempDir dir;
    const auto cfg = small_campaign(dir.path());
    const auto outcome = ve::run_campaign(cfg);
    EXPECT_TRUE(outcome.complete);
    expect_results_identical(outcome.tables, expected);

    const auto bytes = read_file(outcome.jsonl_path);
    // Re-running a complete shard recomputes nothing and rewrites nothing.
    const auto again = ve::run_campaign(cfg);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(read_file(again.jsonl_path), bytes);
    expect_results_identical(again.tables, expected);
}

TEST(Campaign, KilledAndResumedProducesIdenticalOutput) {
    TempDir uninterrupted_dir, interrupted_dir;

    auto cfg = small_campaign(uninterrupted_dir.path());
    cfg.write_csv = true;
    const auto uninterrupted = ve::run_campaign(cfg);
    ASSERT_TRUE(uninterrupted.complete);
    const auto jsonl = read_file(uninterrupted.jsonl_path);
    const auto csv = read_file(uninterrupted_dir.file("records.csv"));

    // First slice: stop after one checkpoint (3 of 8 jobs durable)...
    auto sliced = small_campaign(interrupted_dir.path());
    sliced.write_csv = true;
    sliced.stop_after_batches = 1;
    const auto first = ve::run_campaign(sliced);
    EXPECT_FALSE(first.complete);
    EXPECT_EQ(first.jobs_done, 3);

    // ...then simulate a kill mid-write: torn bytes past the checkpoint.
    {
        std::ofstream torn(interrupted_dir.file("records.jsonl"),
                           std::ios::app | std::ios::binary);
        torn << "{\"ordinal\":999,\"trial\":0,\"p\":4,\"tas";
        std::ofstream torn_csv(interrupted_dir.file("records.csv"),
                               std::ios::app | std::ios::binary);
        torn_csv << "999,0,4";
    }

    // Resume to completion: torn tails truncated, zero duplicates.
    sliced.stop_after_batches = 0;
    const auto resumed = ve::run_campaign(sliced);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(read_file(resumed.jsonl_path), jsonl);
    EXPECT_EQ(read_file(interrupted_dir.file("records.csv")), csv);
    expect_results_identical(resumed.tables, uninterrupted.tables);

    // The record stream parses back through the shipped read path (header
    // + index rebuild scan) with each instance exactly once.
    std::string header_line;
    {
        std::ifstream in(resumed.jsonl_path);
        ASSERT_TRUE(std::getline(in, header_line));
    }
    EXPECT_EQ(ve::parse_campaign_header(header_line).fingerprint,
              ve::campaign_fingerprint(sliced.sweep, sliced.heuristics));
    const auto entries = ve::build_index_entries(resumed.jsonl_path);
    std::set<std::pair<std::uint64_t, int>> identities;
    for (const auto& e : entries)
        EXPECT_TRUE(identities.emplace(e.ordinal, e.trial).second);
    EXPECT_EQ(static_cast<long long>(entries.size()),
              resumed.instances_done);
}

TEST(Campaign, ResumeRejectsAMismatchedConfiguration) {
    TempDir dir;
    auto cfg = small_campaign(dir.path());
    cfg.stop_after_batches = 1;
    (void)ve::run_campaign(cfg);

    auto other = cfg;
    other.sweep.master_seed ^= 0xBAD;
    EXPECT_THROW(ve::run_campaign(other), std::runtime_error);

    auto reshard = cfg;
    reshard.shard_index = 1;
    reshard.shard_count = 2;
    EXPECT_THROW(ve::run_campaign(reshard), std::runtime_error);

    // CSV cannot appear or vanish across a resume.
    auto toggled = cfg;
    toggled.write_csv = true;
    EXPECT_THROW(ve::run_campaign(toggled), std::runtime_error);

    // A fresh (non-resuming) run with the new config is fine.
    auto fresh = other;
    fresh.resume = false;
    fresh.stop_after_batches = 0;
    EXPECT_TRUE(ve::run_campaign(fresh).complete);
}

TEST(Campaign, MergeDetectsMissingAndDuplicateShards) {
    TempDir root;
    std::vector<std::filesystem::path> files;
    for (int k = 1; k <= 2; ++k) {
        auto cfg = small_campaign(root.path() /
                                  ve::shard_directory_name(k, 2));
        cfg.shard_index = k;
        cfg.shard_count = 2;
        files.push_back(ve::run_campaign(cfg).jsonl_path);
    }
    EXPECT_THROW(ve::merge_shards({files[0]}), std::runtime_error);
    EXPECT_THROW(ve::merge_shards({files[0], files[0]}),
                 std::runtime_error);
    EXPECT_THROW(ve::merge_shards({}), std::runtime_error);
    EXPECT_NO_THROW(ve::merge_shards(files));

    // An incomplete shard fails the completeness check loudly.
    auto partial = small_campaign(root.path() / "partial");
    partial.shard_index = 1;
    partial.shard_count = 2;
    partial.stop_after_batches = 1;
    const auto outcome = ve::run_campaign(partial);
    EXPECT_THROW(ve::merge_shards({outcome.jsonl_path, files[1]}),
                 std::runtime_error);
}

TEST(Campaign, FindShardDirectoriesFiltersAndSorts) {
    TempDir root;
    std::filesystem::create_directories(root.path() / "shard-2-of-2");
    std::filesystem::create_directories(root.path() / "shard-1-of-2");
    std::filesystem::create_directories(root.path() / "unrelated");
    { std::ofstream(root.path() / "shard-1-of-2" / "records.jsonl") << ""; }
    { std::ofstream(root.path() / "shard-2-of-2" / "records.jsonl") << ""; }
    const auto dirs = ve::find_shard_directories(root.path());
    ASSERT_EQ(dirs.size(), 2u);
    EXPECT_EQ(dirs[0].filename().string(), "shard-1-of-2");
    EXPECT_EQ(dirs[1].filename().string(), "shard-2-of-2");
    EXPECT_TRUE(
        ve::find_shard_directories(root.path() / "nowhere").empty());
}

TEST(CampaignBuilder, ComposesAndResolvesTheShardDirectory) {
    TempDir root;
    auto builder = va::ExperimentBuilder()
                       .heuristics(kHeuristics)
                       .tasks({3})
                       .ncom({2})
                       .wmin({1})
                       .scenarios_per_cell(1)
                       .trials(1)
                       .processors(4)
                       .iterations(2)
                       .seed(7)
                       .campaign()
                       .directory(root.path())
                       .shard(2, 3)
                       .checkpoint_every(5)
                       .csv();
    const auto cfg = builder.config();
    EXPECT_EQ(cfg.directory,
              root.path() / ve::shard_directory_name(2, 3));
    EXPECT_EQ(cfg.shard_index, 2);
    EXPECT_EQ(cfg.shard_count, 3);
    EXPECT_EQ(cfg.checkpoint_jobs, 5);
    EXPECT_TRUE(cfg.write_csv);

    EXPECT_THROW(va::ExperimentBuilder()
                     .heuristics(kHeuristics)
                     .campaign()
                     .config(), // no directory
                 std::invalid_argument);
    EXPECT_THROW(builder.shard(4, 3).config(), std::invalid_argument);
}

TEST(CampaignBuilder, HeuristicSetSelectsPresetsAndSpecLists) {
    va::ExperimentBuilder b;
    b.heuristic_set("greedy");
    EXPECT_EQ(b.heuristic_specs().size(), 8u);
    b.heuristic_set("all");
    EXPECT_EQ(b.heuristic_specs().size(), 17u);
    b.heuristic_set("mct, emct");
    EXPECT_EQ(b.heuristic_specs(),
              (std::vector<std::string>{"mct", "emct"}));
    // Commas inside option parentheses do not split the spec.
    b.heuristic_set("thr(percent=50):emct,mct");
    EXPECT_EQ(b.heuristic_specs(),
              (std::vector<std::string>{"thr(percent=50):emct", "mct"}));
    EXPECT_THROW(b.heuristic_set(""), std::invalid_argument);
    EXPECT_THROW(b.heuristic_set("mtc"), std::invalid_argument);
}

TEST(CampaignBuilder, RunsEndToEndThroughTheFacade) {
    TempDir root;
    const auto outcome = va::ExperimentBuilder()
                             .heuristics(kHeuristics)
                             .tasks({3})
                             .ncom({2})
                             .wmin({1, 2})
                             .scenarios_per_cell(1)
                             .trials(2)
                             .processors(4)
                             .iterations(2)
                             .seed(11)
                             .campaign()
                             .directory(root.path())
                             .checkpoint_every(1)
                             .run();
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.instances_done, 4);
    const auto merged = ve::merge_shards({outcome.jsonl_path});
    EXPECT_EQ(merged.overall.instances(), 4);
}
