#pragma once
/// \file spans.hpp
/// The traced run's instruments, all on the benchmark's side of the
/// library's public virtual seams: an in-memory span recorder with
/// per-layer self time, and decorators for sim::Scheduler,
/// markov::AvailabilityModel and ckpt::CheckpointPolicy that count the work
/// they see and time it (a span around every scheduler and policy call;
/// sampled windows of availability draws).  Each decorator forwards
/// every virtual of its seam (including counters(), clone(),
/// quiet_horizon() and name()); dropping one would change the program under
/// test.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "volsched/volsched.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call (process-relative monotonic clock).
inline double now_s() {
    static const auto epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// The src/ modules the benchmark attributes time to.  `trace` models are
/// counted under kMarkov (their cost is paid in availability draws).
enum Layer : int { kApi, kMarkov, kSim, kCore, kCkpt, kExp, kObs, kLayers };

inline const char* layer_name(int layer) {
    static constexpr std::array<const char*, kLayers> names = {
        "api", "markov", "sim", "core", "ckpt", "exp", "obs"};
    return names[static_cast<std::size_t>(layer)];
}

/// Work the decorators observe: counts (deterministic for a fixed seed)
/// and the wall time of the calls they wrap.
struct Work {
    long long rounds = 0;         ///< Scheduler::begin_round calls
    long long select_calls = 0;   ///< Scheduler::select calls
    long long candidates = 0;     ///< eligible processors offered to select
    long long draws = 0;          ///< availability draws (initial + next)
    long long segments = 0;       ///< availability runs started
    long long should_calls = 0;   ///< CheckpointPolicy::should_checkpoint
    long long quiet_calls = 0;    ///< CheckpointPolicy::quiet_horizon
    long long builds = 0;         ///< SimulationBuilder::build calls
    double select_s = 0;          ///< time inside Scheduler::select
    double begin_round_s = 0;     ///< time inside Scheduler::begin_round
    double build_s = 0;           ///< time inside builders and registry make
    long long window_draws = 0;   ///< draws inside timed sample windows
    double window_s = 0;          ///< time of those windows

    /// Estimated time of the draws made since `base`: the draw count times
    /// the mean cost per draw in the sample windows since `base` (or, when
    /// none closed, in all windows so far).
    [[nodiscard]] double draw_s_since(const Work& base) const {
        long long n = window_draws - base.window_draws;
        double s = window_s - base.window_s;
        if (n == 0) {
            n = window_draws;
            s = window_s;
        }
        return n > 0 ? s / static_cast<double>(n) *
                           static_cast<double>(draws - base.draws)
                     : 0.0;
    }

    /// The counts (not the times) of `*this` minus `base`.
    [[nodiscard]] Work counts_since(const Work& base) const {
        Work d;
        d.rounds = rounds - base.rounds;
        d.select_calls = select_calls - base.select_calls;
        d.candidates = candidates - base.candidates;
        d.draws = draws - base.draws;
        d.segments = segments - base.segments;
        d.should_calls = should_calls - base.should_calls;
        d.quiet_calls = quiet_calls - base.quiet_calls;
        d.builds = builds - base.builds;
        return d;
    }
    [[nodiscard]] bool same_counts(const Work& o) const {
        return rounds == o.rounds && select_calls == o.select_calls &&
               candidates == o.candidates && draws == o.draws &&
               segments == o.segments && should_calls == o.should_calls &&
               quiet_calls == o.quiet_calls && builds == o.builds;
    }
};

/// Keeps spans in memory (name, start, end, parent) and, independently of
/// how many it keeps, accumulates every layer's self time: a span's
/// duration minus the part of it its child spans cover.  Single-threaded.
///
/// Fine spans (one scheduler or policy call) last tens of nanoseconds,
/// close to the cost of reading the clock, so the recorder compensates
/// them: it measures at construction what an empty span reads as and what
/// it costs its parent, subtracts the first from every fine span and
/// charges the second to the parent's child time, so tracing overhead does
/// not land in the parent's self time.  Coarse spans (runs, builds,
/// campaigns, queries) are not compensated.
class SpanRecorder {
public:
    struct Span {
        const char* name = "";
        int layer = 0;
        double start = 0;
        double end = 0;
        int parent = -1; ///< index into spans(), -1 for a root
    };

    /// Fine spans beyond this many per name are aggregated but not kept;
    /// coarse spans are always kept.
    static constexpr std::size_t kKeepFine = 5000;

    SpanRecorder() { calibrate(); }

    /// Opens a span; returns a token for close().
    int open(const char* name, Layer layer, bool coarse = false) {
        Frame f;
        f.layer = layer;
        f.coarse = coarse;
        f.start = now_s();
        const int parent = stack_.empty() ? -1 : stack_.back().kept;
        if (coarse || keep_fine(name)) {
            f.kept = static_cast<int>(spans_.size());
            spans_.push_back({name, layer, f.start, f.start, parent});
        } else {
            ++dropped_;
        }
        stack_.push_back(f);
        return static_cast<int>(stack_.size()) - 1;
    }

    /// Closes the innermost span (spans nest strictly; `token` documents
    /// the pairing) and returns its (compensated) duration in seconds.  A
    /// fine span standing for `weight` calls (one timed call out of
    /// `weight`, the rest only counted) is charged `weight` times.
    double close(int token, double weight = 1.0) {
        (void)token;
        const double end = now_s();
        const Frame f = stack_.back();
        stack_.pop_back();
        double dur = end - f.start;
        if (!f.coarse) dur = std::max(0.0, dur - inside_overhead_);
        const double charged = dur * weight;
        self_[static_cast<std::size_t>(f.layer)] += charged - f.child;
        if (!stack_.empty())
            stack_.back().child += charged + (f.coarse ? 0.0 : parent_overhead_);
        if (f.kept >= 0) spans_[static_cast<std::size_t>(f.kept)].end = end;
        return charged;
    }

    /// What an empty fine span reads as (the clock's own cost).
    [[nodiscard]] double span_overhead() const { return inside_overhead_; }

    /// Keeps a span for the trace file only: it takes no part in self-time
    /// accounting (its time is accounted elsewhere).
    void note(const char* name, Layer layer, double start, double end) {
        if (!keep_fine(name)) {
            ++dropped_;
            return;
        }
        const int parent = stack_.empty() ? -1 : stack_.back().kept;
        spans_.push_back({name, layer, start, end, parent});
    }

    [[nodiscard]] double self_s(Layer layer) const {
        return self_[static_cast<std::size_t>(layer)];
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    Work work;

    /// Chrome trace-event JSON ("X" complete events, microseconds, one
    /// track); loads in Perfetto and chrome://tracing.
    void write_chrome_json(std::ostream& out) const {
        out.precision(15);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            if (i) out << ',';
            out << "{\"name\":\"" << s.name << "\",\"cat\":\""
                << layer_name(s.layer) << "\",\"ph\":\"X\",\"pid\":1,"
                << "\"tid\":1,\"ts\":" << s.start * 1e6
                << ",\"dur\":" << (s.end - s.start) * 1e6
                << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
                << "}}";
        }
        out << "],\"otherData\":{\"dropped_fine_spans\":" << dropped_
            << ",\"span_overhead_ns\":" << inside_overhead_ * 1e9 << "}}\n";
    }

private:
    bool keep_fine(const char* name) {
        for (auto& [n, kept] : fine_kept_) {
            if (n != name) continue;
            if (kept >= kKeepFine) return false;
            ++kept;
            return true;
        }
        fine_kept_.emplace_back(name, 1);
        return true;
    }

    struct Frame {
        int layer = 0;
        bool coarse = false;
        double start = 0;
        double child = 0;
        int kept = -1;
    };

    /// Measures empty fine spans: the median duration one reads as, and
    /// the mean wall time one costs around it.  Leaves no spans behind.
    void calibrate() {
        constexpr int kSamples = 4001;
        std::vector<double> inside;
        inside.reserve(kSamples);
        const int root = open("calibrate", kObs, true);
        const double t0 = now_s();
        for (int i = 0; i < kSamples; ++i) inside.push_back(close(open("", kObs)));
        parent_overhead_ = (now_s() - t0) / kSamples;
        close(root);
        std::nth_element(inside.begin(), inside.begin() + kSamples / 2,
                         inside.end());
        inside_overhead_ = inside[kSamples / 2];
        parent_overhead_ = std::max(0.0, parent_overhead_ - inside_overhead_);
        spans_.clear();
        fine_kept_.clear();
        self_ = {};
    }

    std::vector<Span> spans_;
    std::vector<std::pair<const char*, std::size_t>> fine_kept_;
    std::vector<Frame> stack_;
    std::array<double, kLayers> self_{};
    long long dropped_ = 0;
    double inside_overhead_ = 0; ///< what an empty fine span reads as
    double parent_overhead_ = 0; ///< what it costs outside that reading
};

/// RAII span; a null recorder makes it a no-op.  With `acc` the span's
/// duration is also added to *acc.
class Scope {
public:
    Scope(SpanRecorder* rec, const char* name, Layer layer, bool coarse = false,
          double* acc = nullptr)
        : rec_(rec), acc_(acc),
          token_(rec ? rec->open(name, layer, coarse) : -1) {}
    ~Scope() {
        if (!rec_) return;
        const double dur = rec_->close(token_);
        if (acc_) *acc_ += dur;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    SpanRecorder* rec_;
    double* acc_;
    int token_;
};

/// Times and counts every call into a heuristic (the `core` layer).
class TracedScheduler final : public volsched::sim::Scheduler {
public:
    TracedScheduler(std::unique_ptr<volsched::sim::Scheduler> inner,
                    SpanRecorder& rec)
        : inner_(std::move(inner)), rec_(&rec) {}

    void begin_round(const volsched::sim::SchedView& view) override {
        Scope s(rec_, "core.begin_round", kCore, false,
                &rec_->work.begin_round_s);
        ++rec_->work.rounds;
        inner_->begin_round(view);
    }

    volsched::sim::ProcId select(const volsched::sim::SchedView& view,
                                 std::span<const volsched::sim::ProcId> eligible,
                                 std::span<const int> nq,
                                 volsched::util::Rng& rng) override {
        Scope s(rec_, "core.select", kCore, false, &rec_->work.select_s);
        ++rec_->work.select_calls;
        rec_->work.candidates += static_cast<long long>(eligible.size());
        return inner_->select(view, eligible, nq, rng);
    }

    [[nodiscard]] std::string_view name() const override {
        return inner_->name();
    }
    [[nodiscard]] volsched::sim::SchedulerCounters counters() const override {
        return inner_->counters();
    }

private:
    std::unique_ptr<volsched::sim::Scheduler> inner_;
    SpanRecorder* rec_;
};

/// Times and counts every availability draw (the `markov` layer, `trace`
/// models included).  clone() keeps the decoration, so per-processor
/// copies made by RealizedTraces stay traced.
class TracedAvailability final : public volsched::markov::AvailabilityModel {
public:
    TracedAvailability(std::unique_ptr<volsched::markov::AvailabilityModel> inner,
                       SpanRecorder& rec)
        : TracedAvailability(std::move(inner), rec, std::make_shared<Window>()) {}

    volsched::markov::ProcState
    initial_state(volsched::util::Rng& rng) override {
        ++rec_->work.segments;
        return draw([&] { return inner_->initial_state(rng); });
    }

    volsched::markov::ProcState next_state(volsched::markov::ProcState current,
                                           volsched::util::Rng& rng) override {
        const auto next = draw([&] { return inner_->next_state(current, rng); });
        if (next != current) ++rec_->work.segments;
        return next;
    }

    [[nodiscard]] std::unique_ptr<volsched::markov::AvailabilityModel>
    clone() const override {
        return std::unique_ptr<TracedAvailability>(
            new TracedAvailability(inner_->clone(), *rec_, window_));
    }

private:
    /// The open sample window, shared by every clone traced into one
    /// recorder (the recorder is single-threaded).
    struct Window {
        int left = 0; ///< draws still to go in the open window
        double start = 0;
    };

    TracedAvailability(std::unique_ptr<volsched::markov::AvailabilityModel> inner,
                       SpanRecorder& rec, std::shared_ptr<Window> window)
        : inner_(std::move(inner)), rec_(&rec), window_(std::move(window)) {}

    /// Draws cost a few nanoseconds, close to the clock's own cost, and are
    /// by far the most frequent call, so they are not spans.  Every
    /// kSampleEvery-th draw opens a window over the next kWindow draws;
    /// RealizedTrace samples in long bursts, so a window holds nothing but
    /// draws and their run-length bookkeeping.  A window that took longer
    /// than kMaxWindowS straddled other work and is dropped.  Work::
    /// draw_s_since turns the windows into a time for all draws.
    static constexpr long long kSampleEvery = 64;
    static constexpr int kWindow = 16;
    static constexpr double kMaxWindowS = kWindow * 1e-6;

    template <class F>
    volsched::markov::ProcState draw(F&& f) {
        const long long n = ++rec_->work.draws;
        Window& w = *window_;
        if (w.left == 0 && n % kSampleEvery == 0) {
            w.left = kWindow;
            w.start = now_s();
        }
        const auto state = f();
        if (w.left > 0 && --w.left == 0) {
            const double end = now_s();
            const double dur = end - w.start - rec_->span_overhead();
            if (dur <= kMaxWindowS) {
                rec_->work.window_draws += kWindow;
                rec_->work.window_s += std::max(0.0, dur);
                rec_->note("markov.draws", kMarkov, w.start, end);
            }
        }
        return state;
    }

    std::unique_ptr<volsched::markov::AvailabilityModel> inner_;
    SpanRecorder* rec_;
    std::shared_ptr<Window> window_;
};

/// Times and counts every checkpoint-policy consultation (the `ckpt`
/// layer).
class TracedPolicy final : public volsched::ckpt::CheckpointPolicy {
public:
    TracedPolicy(std::shared_ptr<const volsched::ckpt::CheckpointPolicy> inner,
                 SpanRecorder& rec)
        : inner_(std::move(inner)), rec_(&rec) {}

    [[nodiscard]] bool
    should_checkpoint(const volsched::ckpt::CheckpointView& view) const override {
        Scope s(rec_, "ckpt.should", kCkpt);
        ++rec_->work.should_calls;
        return inner_->should_checkpoint(view);
    }

    [[nodiscard]] long long
    quiet_horizon(const volsched::ckpt::CheckpointView& view) const override {
        Scope s(rec_, "ckpt.quiet", kCkpt);
        ++rec_->work.quiet_calls;
        return inner_->quiet_horizon(view);
    }

    [[nodiscard]] std::string_view name() const override {
        return inner_->name();
    }

private:
    std::shared_ptr<const volsched::ckpt::CheckpointPolicy> inner_;
    SpanRecorder* rec_;
};

} // namespace perfbench
