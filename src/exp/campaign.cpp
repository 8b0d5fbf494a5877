#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/registry.hpp"
#include "ckpt/registry.hpp"
#include "exp/index_sink.hpp"
#include "exp/status.hpp"
#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"
#include "util/atomic_io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace volsched::exp {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("campaign: " + what);
}

/// Minimum wall-clock between steady-state heartbeat writes (checkpoint
/// and completion writes are unconditional).
constexpr std::int64_t kHeartbeatIntervalMs = 500;

const char* plan_class_name(sim::SchedulerClass c) {
    switch (c) {
    case sim::SchedulerClass::Dynamic: return "dynamic";
    case sim::SchedulerClass::Passive: return "passive";
    case sim::SchedulerClass::Proactive: return "proactive";
    }
    fail("unknown scheduler class");
}

sim::SchedulerClass plan_class_from(const std::string& name) {
    if (name == "dynamic") return sim::SchedulerClass::Dynamic;
    if (name == "passive") return sim::SchedulerClass::Passive;
    if (name == "proactive") return sim::SchedulerClass::Proactive;
    throw std::invalid_argument("campaign: unknown plan class '" + name + "'");
}

/// FNV-1a 64-bit over a canonical serialization; stable across platforms.
std::uint64_t fnv1a(std::string_view text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string join_ints(const std::vector<int>& xs) {
    std::string out;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(xs[i]);
    }
    return out;
}

/// Whether the sweep actually exercises the checkpoint layer.  The default
/// single-"none" axis is the classic grid: it is excluded from the
/// fingerprint and the header so pre-checkpoint campaign files stay valid
/// (and resumable) under the current code.
bool has_checkpoint_axis(const SweepConfig& cfg) {
    return cfg.checkpoint_values.size() != 1 ||
           cfg.checkpoint_values.front() != "none";
}

/// The canonical result-determining description (no shard, no threads).
std::string canonical_description(const SweepConfig& cfg,
                                  const std::vector<std::string>& heuristics) {
    std::string s = "volsched-campaign v1;tasks=" + join_ints(cfg.tasks_values);
    s += ";ncom=" + join_ints(cfg.ncom_values);
    s += ";wmin=" + join_ints(cfg.wmin_values);
    s += ";scenarios=" + std::to_string(cfg.scenarios_per_cell);
    s += ";trials=" + std::to_string(cfg.trials_per_scenario);
    s += ";p=" + std::to_string(cfg.p);
    s += ";tdata=" + util::json::number(cfg.tdata_factor);
    s += ";tprog=" + util::json::number(cfg.tprog_factor);
    s += ";seed=" + std::to_string(cfg.master_seed);
    s += ";iterations=" + std::to_string(cfg.run.iterations);
    s += ";replica_cap=" + std::to_string(cfg.run.replica_cap);
    s += ";max_slots=" + std::to_string(cfg.run.max_slots);
    s += ";plan_class=" + std::string(plan_class_name(cfg.run.plan_class));
    if (has_checkpoint_axis(cfg)) {
        s += ";checkpoints=";
        for (std::size_t c = 0; c < cfg.checkpoint_values.size(); ++c) {
            if (c) s += ',';
            s += cfg.checkpoint_values[c];
        }
        s += ";checkpoint_cost=" + std::to_string(cfg.run.checkpoint_cost);
    }
    s += ";heuristics=";
    for (std::size_t h = 0; h < heuristics.size(); ++h) {
        if (h) s += ',';
        s += heuristics[h];
    }
    return s;
}

std::vector<int> parse_int_array(const util::json::Value& v) {
    std::vector<int> out;
    for (const auto& item : v.items())
        out.push_back(static_cast<int>(item.as_i64()));
    return out;
}

std::string json_int_array(const std::vector<int>& xs) {
    return "[" + join_ints(xs) + "]";
}

/// Streams one shard's records straight off its JSONL file, one line at a
/// time — O(1) record memory for both the k-way merge and the resume
/// replay.  The header is parsed (and fingerprint-verified) on open; byte
/// offsets of the record lines are tracked for index rebuilding.
class ShardStream {
public:
    explicit ShardStream(const std::filesystem::path& file)
        : path_(file), in_(file) {
        if (!in_)
            fail("cannot open '" + file.string() + "'");
        std::string line;
        if (!std::getline(in_, line))
            fail("'" + path_.string() + "' is empty");
        offset_ = line.size() + 1;
        header_ = parse_campaign_header(line);
    }

    [[nodiscard]] const CampaignHeader& header() const noexcept {
        return header_;
    }
    [[nodiscard]] const std::filesystem::path& path() const noexcept {
        return path_;
    }
    /// Byte offset of the line the most recent next() returned.
    [[nodiscard]] std::uint64_t record_offset() const noexcept {
        return record_offset_;
    }

    /// Next record, or std::nullopt at end of stream.
    std::optional<InstanceRecord> next() {
        std::string line;
        while (std::getline(in_, line)) {
            const std::uint64_t at = offset_;
            offset_ += line.size() + 1;
            if (line.empty()) continue;
            try {
                InstanceRecord rec = JsonlSink::parse_record(line);
                record_offset_ = at;
                return rec;
            } catch (const std::invalid_argument& e) {
                fail("'" + path_.string() + "' holds a malformed record (" +
                     e.what() +
                     "); was the shard killed without a checkpoint? resume "
                     "it to self-heal, or delete the torn tail");
            }
        }
        return std::nullopt;
    }

private:
    std::filesystem::path path_;
    std::ifstream in_;
    CampaignHeader header_;
    std::uint64_t offset_ = 0;
    std::uint64_t record_offset_ = 0;
};

/// The resume replay: walks the already-checkpointed prefix of the shard's
/// grid jobs, pulling each job's trials off the (already truncated) JSONL
/// stream one line at a time and reducing through the canonical
/// merge_job_tables order — never holding more than one record in memory.
/// Every record's byte offset feeds the fresh index sidecar as it passes.
void replay_shard_stream(SweepResult& tables, IndexSink& index,
                         const std::filesystem::path& jsonl_file,
                         std::uint64_t fingerprint,
                         const std::vector<GridJob>& jobs,
                         long long jobs_done, int trials) {
    ShardStream stream(jsonl_file);
    if (stream.header().fingerprint != fingerprint)
        fail("records.jsonl header disagrees with the manifest");
    const std::size_t num_heuristics = tables.heuristics.size();
    for (long long j = 0; j < jobs_done; ++j) {
        const GridJob& job = jobs[static_cast<std::size_t>(j)];
        DfbTable local(num_heuristics);
        for (int t = 0; t < trials; ++t) {
            auto rec = stream.next();
            if (!rec)
                fail("resume: '" + jsonl_file.string() +
                     "' ran out of records at scenario ordinal " +
                     std::to_string(job.ordinal) + " trial " +
                     std::to_string(t) +
                     " (fewer records than the manifest checkpointed)");
            if (rec->scenario_ordinal != job.ordinal || rec->trial != t)
                fail("resume: '" + jsonl_file.string() +
                     "' yields (ordinal " +
                     std::to_string(rec->scenario_ordinal) + ", trial " +
                     std::to_string(rec->trial) + ") where (ordinal " +
                     std::to_string(job.ordinal) + ", trial " +
                     std::to_string(t) +
                     ") was expected (duplicate, missing, or out-of-order "
                     "record?)");
            if (rec->scenario.seed != job.scenario.seed)
                fail("resume: ordinal " + std::to_string(job.ordinal) +
                     " carries seed " + std::to_string(rec->scenario.seed) +
                     " but the grid expects " +
                     std::to_string(job.scenario.seed) +
                     " (records from a different campaign?)");
            if (rec->scenario.checkpoint != job.scenario.checkpoint)
                fail("resume: ordinal " + std::to_string(job.ordinal) +
                     " carries checkpoint policy '" +
                     rec->scenario.checkpoint + "' but the grid expects '" +
                     job.scenario.checkpoint + "'");
            if (rec->makespans.size() != num_heuristics)
                fail("resume: ordinal " + std::to_string(job.ordinal) +
                     " has " + std::to_string(rec->makespans.size()) +
                     " makespans, expected " +
                     std::to_string(num_heuristics));
            index.add(rec->scenario_ordinal, rec->trial,
                      stream.record_offset());
            local.add_instance(rec->makespans);
        }
        merge_job_tables(tables, job.scenario, local);
    }
    if (stream.next())
        fail("resume: '" + jsonl_file.string() +
             "' holds more records than the manifest checkpointed");
}

} // namespace

// ---------------------------------------------------------------------------
// Shard planner
// ---------------------------------------------------------------------------

std::vector<GridJob> shard_jobs(const SweepConfig& cfg, int shard_index,
                                int shard_count) {
    if (shard_count < 1)
        throw std::invalid_argument("campaign: shard count must be >= 1");
    if (shard_index < 1 || shard_index > shard_count)
        throw std::invalid_argument(
            "campaign: shard index " + std::to_string(shard_index) +
            " out of range 1.." + std::to_string(shard_count));
    std::vector<GridJob> all = grid_jobs(cfg);
    if (shard_count == 1) return all;
    std::vector<GridJob> mine;
    mine.reserve(all.size() / static_cast<std::size_t>(shard_count) + 1);
    for (const GridJob& job : all)
        if (job.ordinal % static_cast<std::uint64_t>(shard_count) ==
            static_cast<std::uint64_t>(shard_index - 1))
            mine.push_back(job);
    return mine;
}

std::uint64_t
campaign_fingerprint(const SweepConfig& cfg,
                     const std::vector<std::string>& heuristics) {
    return fnv1a(canonical_description(cfg, heuristics));
}

// ---------------------------------------------------------------------------
// JSONL header
// ---------------------------------------------------------------------------

std::string campaign_header_line(const CampaignConfig& cfg) {
    const SweepConfig& sw = cfg.sweep;
    std::string out = "{\"campaign\":{\"version\":1,\"fingerprint\":";
    out += std::to_string(campaign_fingerprint(sw, cfg.heuristics));
    out += ",\"shard\":";
    out += std::to_string(cfg.shard_index);
    out += ",\"shards\":";
    out += std::to_string(cfg.shard_count);
    out += ",\"heuristics\":[";
    for (std::size_t h = 0; h < cfg.heuristics.size(); ++h) {
        if (h) out += ',';
        out += '"' + util::json::escape(cfg.heuristics[h]) + '"';
    }
    out += "],\"tasks\":" + json_int_array(sw.tasks_values);
    out += ",\"ncom\":" + json_int_array(sw.ncom_values);
    out += ",\"wmin\":" + json_int_array(sw.wmin_values);
    out += ",\"scenarios_per_cell\":" + std::to_string(sw.scenarios_per_cell);
    out += ",\"trials_per_scenario\":" +
           std::to_string(sw.trials_per_scenario);
    out += ",\"p\":" + std::to_string(sw.p);
    out += ",\"tdata_factor\":" + util::json::number(sw.tdata_factor);
    out += ",\"tprog_factor\":" + util::json::number(sw.tprog_factor);
    out += ",\"master_seed\":" + std::to_string(sw.master_seed);
    out += ",\"iterations\":" + std::to_string(sw.run.iterations);
    out += ",\"replica_cap\":" + std::to_string(sw.run.replica_cap);
    out += ",\"max_slots\":" + std::to_string(sw.run.max_slots);
    out += ",\"plan_class\":\"";
    out += plan_class_name(sw.run.plan_class);
    out += '"';
    if (has_checkpoint_axis(sw)) {
        out += ",\"checkpoints\":[";
        for (std::size_t c = 0; c < sw.checkpoint_values.size(); ++c) {
            if (c) out += ',';
            out += '"' + util::json::escape(sw.checkpoint_values[c]) + '"';
        }
        out += "],\"checkpoint_cost\":" +
               std::to_string(sw.run.checkpoint_cost);
    }
    out += "}}";
    return out;
}

CampaignHeader parse_campaign_header(const std::string& line) {
    const auto doc = util::json::Value::parse(line);
    const auto& c = doc.at("campaign");
    if (c.at("version").as_i64() != 1)
        throw std::invalid_argument("campaign: unsupported header version");
    CampaignHeader header;
    header.fingerprint = c.at("fingerprint").as_u64();
    header.shard_index = static_cast<int>(c.at("shard").as_i64());
    header.shard_count = static_cast<int>(c.at("shards").as_i64());
    // The fingerprint deliberately excludes the shard fields, so they need
    // their own validation here — for merge, status, and resume at once.
    if (header.shard_count < 1 || header.shard_index < 1 ||
        header.shard_index > header.shard_count)
        throw std::invalid_argument(
            "campaign: header names shard " +
            std::to_string(header.shard_index) + " of " +
            std::to_string(header.shard_count) + ", which is out of range");
    for (const auto& h : c.at("heuristics").items())
        header.heuristics.push_back(h.as_string());
    SweepConfig& sw = header.sweep;
    sw.tasks_values = parse_int_array(c.at("tasks"));
    sw.ncom_values = parse_int_array(c.at("ncom"));
    sw.wmin_values = parse_int_array(c.at("wmin"));
    sw.scenarios_per_cell =
        static_cast<int>(c.at("scenarios_per_cell").as_i64());
    sw.trials_per_scenario =
        static_cast<int>(c.at("trials_per_scenario").as_i64());
    sw.p = static_cast<int>(c.at("p").as_i64());
    sw.tdata_factor = c.at("tdata_factor").as_double();
    sw.tprog_factor = c.at("tprog_factor").as_double();
    sw.master_seed = c.at("master_seed").as_u64();
    sw.run.iterations = static_cast<int>(c.at("iterations").as_i64());
    sw.run.replica_cap = static_cast<int>(c.at("replica_cap").as_i64());
    sw.run.max_slots = c.at("max_slots").as_i64();
    sw.run.plan_class = plan_class_from(c.at("plan_class").as_string());
    // Optional (absent in classic, checkpoint-free campaign files).
    if (const auto* ckpts = c.find("checkpoints")) {
        sw.checkpoint_values.clear();
        for (const auto& v : ckpts->items())
            sw.checkpoint_values.push_back(v.as_string());
        sw.run.checkpoint_cost =
            static_cast<int>(c.at("checkpoint_cost").as_i64());
    }
    if (campaign_fingerprint(sw, header.heuristics) != header.fingerprint)
        throw std::invalid_argument(
            "campaign: header fingerprint does not match its configuration "
            "(tampered or version-skewed shard file)");
    return header;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

std::filesystem::path manifest_path(const std::filesystem::path& dir) {
    return dir / "MANIFEST";
}

void write_manifest(const std::filesystem::path& dir,
                    const CampaignManifest& m) {
    std::string out = "volsched-campaign-manifest 1\n";
    out += "fingerprint " + std::to_string(m.fingerprint) + "\n";
    out += "shard " + std::to_string(m.shard_index) + " " +
           std::to_string(m.shard_count) + "\n";
    out += "jobs " + std::to_string(m.jobs_done) + " " +
           std::to_string(m.jobs_total) + "\n";
    out += "instances " + std::to_string(m.instances_done) + "\n";
    out += "jsonl " + std::to_string(m.jsonl_bytes) + "\n";
    out += "csv " + std::to_string(m.csv_bytes) + "\n";
    out += "complete " + std::string(m.complete ? "1" : "0") + "\n";
    util::write_file_atomic(manifest_path(dir), out);
}

std::optional<CampaignManifest>
read_manifest(const std::filesystem::path& dir) {
    const auto path = manifest_path(dir);
    if (!std::filesystem::exists(path)) return std::nullopt;
    std::istringstream in(util::read_text_file(path));
    std::string magic;
    int version = 0;
    in >> magic >> version;
    if (magic != "volsched-campaign-manifest" || version != 1)
        fail("malformed manifest '" + path.string() + "'");
    CampaignManifest m;
    // Byte counts go through a signed read: an unsigned one would take
    // "-5" as a huge count.
    long long jsonl_bytes = 0, csv_bytes = 0;
    std::string key;
    while (in >> key) {
        if (key == "fingerprint") in >> m.fingerprint;
        else if (key == "shard") in >> m.shard_index >> m.shard_count;
        else if (key == "jobs") in >> m.jobs_done >> m.jobs_total;
        else if (key == "instances") in >> m.instances_done;
        else if (key == "jsonl") in >> jsonl_bytes;
        else if (key == "csv") in >> csv_bytes;
        else if (key == "complete") {
            int c = 0;
            in >> c;
            m.complete = c != 0;
        } else {
            fail("unknown manifest key '" + key + "' in '" + path.string() +
                 "'");
        }
        if (in.fail())
            fail("malformed manifest value for '" + key + "' in '" +
                 path.string() + "'");
    }
    if (m.shard_count < 1 || m.shard_index < 1 ||
        m.shard_index > m.shard_count)
        fail("manifest '" + path.string() + "' names shard " +
             std::to_string(m.shard_index) + "/" +
             std::to_string(m.shard_count) + ", which is impossible");
    if (m.jobs_done < 0 || m.jobs_done > m.jobs_total)
        fail("manifest '" + path.string() + "' checkpoints " +
             std::to_string(m.jobs_done) + " of " +
             std::to_string(m.jobs_total) +
             " jobs, which is impossible (corrupted manifest?)");
    if (m.instances_done < 0 || jsonl_bytes < 0 || csv_bytes < 0)
        fail("manifest '" + path.string() + "' holds a negative count");
    m.jsonl_bytes = static_cast<std::uint64_t>(jsonl_bytes);
    m.csv_bytes = static_cast<std::uint64_t>(csv_bytes);
    return m;
}

// ---------------------------------------------------------------------------
// Shard run loop
// ---------------------------------------------------------------------------

CampaignResult run_campaign(const CampaignConfig& cfg) {
    if (cfg.directory.empty())
        throw std::invalid_argument("campaign: no output directory");
    if (cfg.checkpoint_jobs < 1)
        throw std::invalid_argument("campaign: checkpoint_jobs must be >= 1");
    if (cfg.pipeline_window < 0)
        throw std::invalid_argument(
            "campaign: pipeline_window must be >= 0");
    if (cfg.heuristics.empty())
        throw std::invalid_argument("campaign: no heuristics");
    for (const auto& name : cfg.heuristics)
        api::SchedulerRegistry::instance().validate(name);
    if (cfg.sweep.checkpoint_values.empty())
        throw std::invalid_argument("campaign: empty checkpoint axis");
    for (const auto& spec : cfg.sweep.checkpoint_values)
        ckpt::CheckpointRegistry::instance().validate(spec);

    const std::vector<GridJob> jobs =
        shard_jobs(cfg.sweep, cfg.shard_index, cfg.shard_count);
    const std::uint64_t fingerprint =
        campaign_fingerprint(cfg.sweep, cfg.heuristics);
    const int trials = cfg.sweep.trials_per_scenario;
    const std::size_t num_heuristics = cfg.heuristics.size();

    std::filesystem::create_directories(cfg.directory);
    const auto jsonl_file = cfg.directory / "records.jsonl";
    const auto csv_file = cfg.directory / "records.csv";

    std::optional<CampaignManifest> previous;
    if (cfg.resume) previous = read_manifest(cfg.directory);
    if (!previous) {
        // Fresh start — either requested, or no durable checkpoint exists
        // (e.g. a previous run was killed before its first manifest, whose
        // un-checkpointed records must not survive).
        std::filesystem::remove(manifest_path(cfg.directory));
        std::filesystem::remove(jsonl_file);
        std::filesystem::remove(csv_file);
        std::filesystem::remove(index_path(jsonl_file));
    }

    if (previous) {
        if (previous->fingerprint != fingerprint)
            fail("manifest in '" + cfg.directory.string() +
                 "' belongs to a different campaign configuration; use a "
                 "fresh directory or disable resume");
        if (previous->shard_index != cfg.shard_index ||
            previous->shard_count != cfg.shard_count)
            fail("manifest in '" + cfg.directory.string() + "' is shard " +
                 std::to_string(previous->shard_index) + "/" +
                 std::to_string(previous->shard_count) +
                 ", not the requested " + std::to_string(cfg.shard_index) +
                 "/" + std::to_string(cfg.shard_count));
        if (previous->jobs_total != static_cast<long long>(jobs.size()))
            fail("manifest job count disagrees with the grid");
        if (cfg.write_csv != (previous->csv_bytes > 0))
            fail("the CSV sink cannot be toggled across a resume");
    }

    JsonlSink jsonl(jsonl_file, campaign_header_line(cfg));
    std::optional<CsvSink> csv;
    if (cfg.write_csv)
        csv.emplace(csv_file, cfg.heuristics,
                    has_checkpoint_axis(cfg.sweep));
    // The index sidecar is derived data: started fresh on every run and
    // refilled from the replay on resume, so it never participates in the
    // truncate-to-manifest contract.
    IndexSink index(index_path(jsonl_file), fingerprint);

    CampaignResult result(cfg.heuristics);
    result.jobs_total = static_cast<long long>(jobs.size());
    result.jsonl_path = jsonl_file;

    long long jobs_done = 0;
    if (previous) {
        // The resume contract: truncate each sink to the last durable
        // checkpoint, then rebuild the shard-local tables by replaying the
        // surviving records — streamed one line at a time — through the
        // canonical reduction.
        jsonl.resume_at(previous->jsonl_bytes);
        if (csv) csv->resume_at(previous->csv_bytes);
        jobs_done = previous->jobs_done;
        replay_shard_stream(result.tables, index, jsonl_file, fingerprint,
                            jobs, jobs_done, trials);
        index.flush(previous->jsonl_bytes);
    }

    CampaignManifest manifest;
    manifest.fingerprint = fingerprint;
    manifest.shard_index = cfg.shard_index;
    manifest.shard_count = cfg.shard_count;
    manifest.jobs_total = static_cast<long long>(jobs.size());

    const long long jobs_total = static_cast<long long>(jobs.size());
    const long long shard_instances_total = jobs_total * trials;
    std::atomic<long long> instances_done{jobs_done * trials};

    std::optional<util::ThreadPool> owned_pool;
    if (!cfg.pool) owned_pool.emplace(cfg.sweep.threads);
    util::ThreadPool& pool = cfg.pool ? *cfg.pool : *owned_pool;

    // Observability (all observer-only; outputs are byte-identical with or
    // without it): pipeline occupancy gauges and stage wall-time histograms
    // into the process registry when a driver installed one, plus the
    // per-shard status.json heartbeat.  Gauges move by deltas because
    // parallel shards share them.
    obs::Registry* const reg = obs::Registry::active();
    obs::Gauge* const g_queue =
        reg ? &reg->gauge("campaign.queue_depth") : nullptr;
    obs::Gauge* const g_lag =
        reg ? &reg->gauge("campaign.emitter_lag") : nullptr;
    obs::Gauge* const g_window =
        reg ? &reg->gauge("campaign.window") : nullptr;
    obs::Histogram* const h_run =
        reg ? &reg->histogram("campaign.run_us") : nullptr;
    obs::Histogram* const h_serialize =
        reg ? &reg->histogram("campaign.serialize_us") : nullptr;
    obs::Histogram* const h_fsync =
        reg ? &reg->histogram("campaign.fsync_us") : nullptr;
    const bool timed = cfg.heartbeat || reg != nullptr;
    obs::Histogram stage_run, stage_serialize, stage_fsync;
    const auto stage_sample = [timed](obs::Histogram& local,
                                      obs::Histogram* global,
                                      std::int64_t start_us) {
        if (!timed) return;
        const std::int64_t us = obs::now_us() - start_us;
        local.observe(us);
        if (global) global->observe(us);
    };
    // Heartbeat pipeline-occupancy shadows (atomics: workers bump the
    // queue, the driver reads them when writing the heartbeat).
    std::atomic<long long> hb_queue{0};
    std::atomic<long long> hb_lag{0};
    long long hb_window = 0;
    std::int64_t last_heartbeat_ms = 0; // driver thread only
    const auto stage_stats = [](const obs::Histogram& h) {
        return StageStats{h.count(), h.sum(), h.max()};
    };
    auto write_heartbeat = [&](const char* state) {
        if (!cfg.heartbeat) return;
        ShardStatus s;
        s.shard = cfg.shard_index;
        s.shards = cfg.shard_count;
        s.jobs_done = jobs_done;
        s.jobs_total = jobs_total;
        s.instances_done = instances_done.load();
        s.queue_depth = hb_queue.load();
        s.emitter_lag = hb_lag.load();
        s.window = hb_window;
        s.state = state;
        s.run = stage_stats(stage_run);
        s.serialize = stage_stats(stage_serialize);
        s.fsync = stage_stats(stage_fsync);
        write_status(cfg.directory, s);
        last_heartbeat_ms = obs::now_ms();
    };
    auto heartbeat_tick = [&] { // driver thread, between emissions
        if (!cfg.heartbeat) return;
        if (obs::now_ms() - last_heartbeat_ms < kHeartbeatIntervalMs) return;
        write_heartbeat("running");
    };
    write_heartbeat("running");

    // Per-job compute, shared verbatim by both execution modes; runs on
    // worker threads, touches no sink.
    struct JobOutcome {
        DfbTable local;
        std::vector<InstanceRecord> records;
    };
    auto compute_job = [&](const GridJob& job) {
        const std::int64_t start_us = timed ? obs::now_us() : 0;
        JobOutcome out{DfbTable(num_heuristics), {}};
        const RealizedScenario rs = realize(job.scenario);
        out.records.reserve(static_cast<std::size_t>(trials));
        for (int trial = 0; trial < trials; ++trial) {
            const std::uint64_t trial_seed = util::mix_seed(
                cfg.sweep.master_seed, 0x54524cULL, job.seed_ordinal,
                static_cast<std::uint64_t>(trial));
            auto outcome =
                run_instance(rs, job.scenario.tasks, cfg.heuristics,
                             cfg.sweep.run, trial_seed,
                             job.scenario.checkpoint);
            out.local.add_instance(outcome.makespans);
            InstanceRecord rec;
            rec.scenario_ordinal = job.ordinal;
            rec.trial = trial;
            rec.scenario = job.scenario;
            rec.makespans = std::move(outcome.makespans);
            out.records.push_back(std::move(rec));
            const long long done = ++instances_done;
            if (cfg.sweep.progress)
                cfg.sweep.progress(done, shard_instances_total);
        }
        stage_sample(stage_run, h_run, start_us);
        return out;
    };

    // Deterministic emission: records leave in (ordinal, trial) order
    // regardless of which worker finished first.  Only ever called from
    // the driver thread — the single writer every ResultSink expects.
    auto emit_job = [&](const GridJob& job, JobOutcome& out) {
        const std::int64_t start_us = timed ? obs::now_us() : 0;
        for (const InstanceRecord& rec : out.records) {
            index.add(rec.scenario_ordinal, rec.trial, jsonl.offset());
            jsonl.write(rec);
            if (csv) csv->write(rec);
            if (cfg.sweep.record) cfg.sweep.record(rec);
        }
        merge_job_tables(result.tables, job.scenario, out.local);
        stage_sample(stage_serialize, h_serialize, start_us);
    };

    // Durable checkpoint: sink bytes hit the disk before the manifest
    // vouches for them.
    auto checkpoint = [&](long long done_now) {
        const std::int64_t start_us = timed ? obs::now_us() : 0;
        jsonl.flush();
        if (csv) csv->flush();
        index.flush(jsonl.offset());
        manifest.jobs_done = done_now;
        manifest.instances_done = done_now * trials;
        manifest.jsonl_bytes = jsonl.offset();
        manifest.csv_bytes = csv ? csv->offset() : 0;
        manifest.complete = done_now == jobs_total;
        write_manifest(cfg.directory, manifest);
        stage_sample(stage_fsync, h_fsync, start_us);
        write_heartbeat("running");
    };

    // The completion pipeline.  Workers pull jobs from a shared cursor
    // (`next_submit`, advanced under `mu` as the emitter frees window slots)
    // and deposit finished JobOutcomes keyed by job position; this driver
    // thread is the emitter, draining deposits strictly in job order — so
    // simulation overlaps sink I/O, a checkpoint's fsync stalls nobody, and
    // a straggler delays only emission, not the pool.  The window caps
    // finished-but-unemitted + in-flight jobs, bounding peak record memory.
    const long long first_job = jobs_done;
    long long end_jobs = jobs_total;
    if (cfg.stop_after_batches > 0)
        end_jobs = std::min(
            end_jobs, first_job + static_cast<long long>(
                                      cfg.stop_after_batches) *
                                      cfg.checkpoint_jobs);
    const long long window =
        cfg.pipeline_window > 0
            ? cfg.pipeline_window
            : std::max<long long>(cfg.checkpoint_jobs,
                                  2 * static_cast<long long>(pool.size()));
    hb_window = window;
    if (g_window) g_window->add(window);

    std::mutex mu;
    std::condition_variable cv;
    std::map<long long, JobOutcome> ready;
    std::exception_ptr first_error;
    long long in_flight = 0;
    long long next_submit = jobs_done;

    // Caller holds `mu`.  Tasks capture this stack frame by reference,
    // which is why every exit path below drains `in_flight` to zero
    // before unwinding.
    auto submit_upto_window = [&](long long emitted) {
        while (next_submit < end_jobs && !first_error &&
               next_submit - emitted < window) {
            const long long j = next_submit++;
            ++in_flight;
            hb_lag.fetch_add(1, std::memory_order_relaxed);
            if (g_lag) g_lag->add(1);
            pool.submit([&, j] {
                // notify_all happens *under* `mu`: the driver destroys
                // `cv` (by unwinding this stack frame) the moment it
                // observes in_flight == 0, and it cannot observe that
                // until the lock is released — after the notify call
                // has fully returned.
                try {
                    JobOutcome out =
                        compute_job(jobs[static_cast<std::size_t>(j)]);
                    std::lock_guard lock(mu);
                    ready.emplace(j, std::move(out));
                    --in_flight;
                    hb_queue.fetch_add(1, std::memory_order_relaxed);
                    if (g_queue) g_queue->add(1);
                    cv.notify_all();
                } catch (...) {
                    std::lock_guard lock(mu);
                    if (!first_error)
                        first_error = std::current_exception();
                    --in_flight;
                    cv.notify_all();
                }
            });
        }
    };

    try {
        {
            std::unique_lock lock(mu);
            submit_upto_window(jobs_done);
        }
        while (jobs_done < end_jobs) {
            std::optional<JobOutcome> out;
            {
                std::unique_lock lock(mu);
                cv.wait(lock, [&] {
                    return first_error || ready.contains(jobs_done);
                });
                if (first_error) break;
                auto node = ready.extract(jobs_done);
                out.emplace(std::move(node.mapped()));
                hb_queue.fetch_add(-1, std::memory_order_relaxed);
                if (g_queue) g_queue->add(-1);
                submit_upto_window(jobs_done + 1);
            }
            emit_job(jobs[static_cast<std::size_t>(jobs_done)], *out);
            hb_lag.fetch_add(-1, std::memory_order_relaxed);
            if (g_lag) g_lag->add(-1);
            ++jobs_done;
            if ((jobs_done - first_job) % cfg.checkpoint_jobs == 0 ||
                jobs_done == jobs_total)
                checkpoint(jobs_done);
            heartbeat_tick();
        }
    } catch (...) {
        std::lock_guard lock(mu);
        if (!first_error) first_error = std::current_exception();
    }
    {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return in_flight == 0; });
        if (g_window) g_window->add(-window);
        if (first_error) std::rethrow_exception(first_error);
    }

    write_heartbeat(jobs_done == jobs_total ? "done" : "stopped");
    result.jobs_done = jobs_done;
    result.instances_done = jobs_done * trials;
    result.complete = jobs_done == jobs_total;
    return result;
}

// ---------------------------------------------------------------------------
// In-process parallel shards
// ---------------------------------------------------------------------------

ParallelCampaignResult run_parallel_campaign(const CampaignConfig& base) {
    if (base.shard_count < 1)
        throw std::invalid_argument("campaign: shard count must be >= 1");
    if (base.directory.empty())
        throw std::invalid_argument("campaign: no output directory");
    const int shards = base.shard_count;
    const int trials = base.sweep.trials_per_scenario;

    // Aggregated progress: every underlying progress call is exactly one
    // newly finished instance, so a shared counter over the full grid gives
    // a monotone campaign-wide (done, total) regardless of which shard's
    // worker reports.  Resumed shards start from their manifests' counts.
    const long long grid_instances =
        static_cast<long long>(grid_jobs(base.sweep).size()) * trials;
    std::atomic<long long> aggregate_done{0};
    if (base.resume) {
        for (int k = 1; k <= shards; ++k) {
            const auto dir =
                base.directory / shard_directory_name(k, shards);
            if (const auto m = read_manifest(dir))
                aggregate_done += m->instances_done;
        }
    }

    util::ThreadPool pool(base.sweep.threads);
    std::mutex record_mutex;

    std::vector<std::optional<CampaignResult>> results(
        static_cast<std::size_t>(shards));
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(shards));
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<std::size_t>(shards));
    for (int k = 1; k <= shards; ++k) {
        drivers.emplace_back([&, k] {
            const auto slot = static_cast<std::size_t>(k - 1);
            try {
                CampaignConfig cfg = base;
                cfg.shard_index = k;
                cfg.directory =
                    base.directory / shard_directory_name(k, shards);
                cfg.pool = &pool;
                if (base.sweep.progress)
                    cfg.sweep.progress = [&](long long, long long) {
                        base.sweep.progress(aggregate_done.fetch_add(1) + 1,
                                            grid_instances);
                    };
                if (base.sweep.record)
                    // Each shard's emitter is single-threaded, but N of
                    // them share the caller's hook.
                    cfg.sweep.record = [&](const InstanceRecord& rec) {
                        std::lock_guard lock(record_mutex);
                        base.sweep.record(rec);
                    };
                results[slot].emplace(run_campaign(cfg));
            } catch (...) {
                errors[slot] = std::current_exception();
            }
        });
    }
    for (auto& t : drivers) t.join();
    for (const auto& e : errors)
        if (e) std::rethrow_exception(e);

    ParallelCampaignResult out;
    out.complete = true;
    for (auto& r : results) {
        out.jobs_total += r->jobs_total;
        out.jobs_done += r->jobs_done;
        out.instances_done += r->instances_done;
        out.complete = out.complete && r->complete;
        out.shards.push_back(std::move(*r));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

SweepResult
merge_shards(const std::vector<std::filesystem::path>& jsonl_files) {
    if (jsonl_files.empty()) fail("merge: no shard files");

    // Open every shard and cross-validate the headers up front.
    std::vector<std::unique_ptr<ShardStream>> streams;
    streams.reserve(jsonl_files.size());
    for (const auto& file : jsonl_files) {
        auto stream = std::make_unique<ShardStream>(file);
        if (!streams.empty()) {
            const CampaignHeader& ref = streams.front()->header();
            if (stream->header().fingerprint != ref.fingerprint)
                fail("merge: '" + file.string() +
                     "' belongs to a different campaign (fingerprint "
                     "mismatch)");
            if (stream->header().shard_count != ref.shard_count)
                fail("merge: '" + file.string() +
                     "' disagrees on the shard count");
        }
        streams.push_back(std::move(stream));
    }
    const CampaignHeader& ref = streams.front()->header();
    std::vector<ShardStream*> by_shard(
        static_cast<std::size_t>(ref.shard_count), nullptr);
    for (const auto& stream : streams) {
        const int k = stream->header().shard_index;
        const auto slot = static_cast<std::size_t>(k - 1);
        if (k < 1 || k > ref.shard_count || by_shard[slot])
            fail("merge: shard " + std::to_string(k) +
                 " appears twice or is out of range");
        by_shard[slot] = stream.get();
    }
    for (std::size_t k = 0; k < by_shard.size(); ++k)
        if (!by_shard[k])
            fail("merge: shard " + std::to_string(k + 1) + " of " +
                 std::to_string(by_shard.size()) + " is missing");

    // Streaming k-way merge.  The grid enumeration *is* the merged order:
    // shard k-of-N holds exactly the ordinals congruent to k-1 mod N, each
    // emitted in (ordinal, trial) order, so walking the grid and pulling
    // `trials` records from the owning shard visits every record exactly
    // once, in the order run_sweep reduces them — per-job tables built in
    // trial order, merged in ordinal order — keeping the floating-point
    // operation sequence, and therefore every digit, bit-identical to the
    // unsharded sweep.  Peak memory is O(shards + grid jobs), never
    // O(records).
    const std::vector<GridJob> grid = grid_jobs(ref.sweep);
    const int trials = ref.sweep.trials_per_scenario;
    const std::size_t num_heuristics = ref.heuristics.size();
    SweepResult result(ref.heuristics);
    for (const GridJob& job : grid) {
        ShardStream& shard = *by_shard[static_cast<std::size_t>(
            job.ordinal % static_cast<std::uint64_t>(ref.shard_count))];
        DfbTable local(num_heuristics);
        for (int t = 0; t < trials; ++t) {
            auto rec = shard.next();
            if (!rec)
                fail("merge: '" + shard.path().string() +
                     "' ran out of records at scenario ordinal " +
                     std::to_string(job.ordinal) + " trial " +
                     std::to_string(t) + " (incomplete shard?)");
            if (rec->scenario_ordinal != job.ordinal || rec->trial != t)
                fail("merge: '" + shard.path().string() +
                     "' yields (ordinal " +
                     std::to_string(rec->scenario_ordinal) + ", trial " +
                     std::to_string(rec->trial) + ") where (ordinal " +
                     std::to_string(job.ordinal) + ", trial " +
                     std::to_string(t) +
                     ") was expected (duplicate, missing, or out-of-order "
                     "record?)");
            if (rec->scenario.seed != job.scenario.seed)
                fail("merge: ordinal " + std::to_string(job.ordinal) +
                     " carries seed " + std::to_string(rec->scenario.seed) +
                     " but the grid expects " +
                     std::to_string(job.scenario.seed) +
                     " (records from a different campaign?)");
            if (rec->scenario.checkpoint != job.scenario.checkpoint)
                fail("merge: ordinal " + std::to_string(job.ordinal) +
                     " carries checkpoint policy '" +
                     rec->scenario.checkpoint + "' but the grid expects '" +
                     job.scenario.checkpoint + "'");
            if (rec->makespans.size() != num_heuristics)
                fail("merge: ordinal " + std::to_string(job.ordinal) +
                     " has " + std::to_string(rec->makespans.size()) +
                     " makespans, expected " +
                     std::to_string(num_heuristics));
            local.add_instance(rec->makespans);
        }
        merge_job_tables(result, job.scenario, local);
    }
    for (const auto& stream : streams)
        if (stream->next())
            fail("merge: '" + stream->path().string() +
                 "' holds records past the end of its shard of the grid "
                 "(duplicate shard or foreign file?)");
    return result;
}

// ---------------------------------------------------------------------------
// Directory layout
// ---------------------------------------------------------------------------

std::string shard_directory_name(int shard_index, int shard_count) {
    return "shard-" + std::to_string(shard_index) + "-of-" +
           std::to_string(shard_count);
}

std::vector<std::filesystem::path>
find_shard_directories(const std::filesystem::path& root) {
    std::vector<std::filesystem::path> dirs;
    if (!std::filesystem::is_directory(root)) return dirs;
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
        if (!entry.is_directory()) continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard-", 0) != 0) continue;
        if (!std::filesystem::exists(entry.path() / "records.jsonl"))
            continue;
        dirs.push_back(entry.path());
    }
    std::sort(dirs.begin(), dirs.end());
    return dirs;
}

} // namespace volsched::exp
