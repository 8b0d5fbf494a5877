#pragma once
/// \file trace.hpp
/// Sim-time structured tracer: records engine activity as spans and
/// instants on a per-worker track set and exports Chrome trace-event JSON
/// (the `traceEvents` format) loadable in Perfetto / chrome://tracing.
///
/// Time base: 1 simulation slot = 1 trace microsecond (ts/dur fields are
/// slots verbatim), pid 0, and one thread id per (worker, lane):
///
///   tid 0                      the engine track (scheduler rounds,
///                              iteration boundaries, elided ranges)
///   tid 1 + 4*q + lane         worker q's lanes: availability state,
///                              master transfers (program/data), compute,
///                              checkpoint uploads
///
/// The tracer is an *observer*: sim::TraceObserver (sim/trace_observer.hpp)
/// translates the engine's Event stream into these calls, the tracer
/// allocates on its own heap, consumes no RNG, and never feeds anything
/// back — trace-on and trace-off runs are byte-identical in every other
/// output (pinned by tests/test_obs.cpp in both stepping cores).  Spans
/// carry sim-time only; wall-clock never appears here (rulebook R3).
///
/// Attach with SimulationBuilder::trace(&rec) or `volsched_sim --trace-out
/// FILE`; scripts/check_trace.py validates the export in CI.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace volsched::obs {

class TraceRecorder {
public:
    /// Per-worker lanes; tid = 1 + 4*proc + lane.
    enum Lane : int {
        kLaneAvail = 0,    ///< up / reclaimed / down state spans
        kLaneTransfer = 1, ///< program + data downloads from the master
        kLaneCompute = 2,  ///< task computation
        kLaneCkpt = 3,     ///< checkpoint snapshot uploads
    };

    /// Starts a run of `procs` workers: resets all lane state and emits the
    /// thread_name metadata for every track.
    void begin_run(int procs);

    /// Ends the run at `end_slot` (exclusive; the makespan): every still-
    /// open span — activity interrupted by the horizon, and each worker's
    /// final availability state — is closed there.
    void end_run(long long end_slot);

    /// Opens a span on (proc, lane) at `slot`; an already-open span on the
    /// lane is closed end-exclusive at `slot` first (state handoff).
    /// `args_json` is an optional preformatted JSON object ("{\"task\":3}").
    void span_begin(long long slot, int proc, Lane lane, const char* name,
                    std::string args_json = {});

    /// Closes the open span on (proc, lane), slot-inclusive: an activity
    /// whose completion event fires in slot s occupied s itself, so
    /// dur = s + 1 - begin.  No-op when nothing is open.
    void span_end(long long slot, int proc, Lane lane);

    /// Cuts the open span on (proc, lane), slot-exclusive: the interrupting
    /// event (crash, cancellation) happens *before* the activity could use
    /// slot s, so dur = s - begin.  Tags the span with {"outcome": ...}.
    /// No-op when nothing is open.
    void span_cut(long long slot, int proc, Lane lane, const char* outcome);

    /// Instantaneous marker on a worker lane / on the engine track.
    void instant(long long slot, int proc, Lane lane, const char* name);
    void instant_engine(long long slot, const char* name);

    /// Availability handoff on the avail lane: 'u' up, 'r' reclaimed,
    /// 'd' down (the timeline's codes).  'd' also cuts the three activity
    /// lanes with outcome "lost" — a crash ends everything in flight,
    /// including the in-flight program download that has no Event of its
    /// own.
    void state_change(long long slot, int proc, char code);

    /// Records the engine-elided range [from, to) on the engine track
    /// (`dead` marks an all-workers-absent stretch).
    void elided(long long from, long long to, bool dead);

    /// Free-form run metadata (heuristic spec, seed, ...) rendered into the
    /// export's "otherData" object.
    void meta(const std::string& key, const std::string& value);

    /// Chrome trace-event JSON: {"traceEvents":[...],"otherData":{...}}.
    /// Events are emitted in non-decreasing ts order (metadata first).
    void write_json(std::ostream& out) const;
    [[nodiscard]] std::string json() const;

    /// Recorded events so far (spans count once, when closed).
    [[nodiscard]] std::size_t size() const noexcept {
        return events_.size();
    }

private:
    struct TraceEvent {
        long long ts = 0;
        long long dur = -1; ///< >= 0 for ph 'X' only
        int tid = 0;
        char ph = 'X'; ///< 'X' complete, 'i' instant, 'M' metadata
        std::string name;
        std::string args_json; ///< preformatted {"..."} or empty
    };
    struct OpenSpan {
        bool active = false;
        long long ts = 0;
        std::string name;
        std::string args_json;
    };

    [[nodiscard]] int tid_of(int proc, Lane lane) const noexcept {
        return 1 + 4 * proc + static_cast<int>(lane);
    }
    OpenSpan& open(int proc, Lane lane) {
        return open_[static_cast<std::size_t>(tid_of(proc, lane))];
    }
    void close_span(OpenSpan& span, int tid, long long end_exclusive,
                    std::string extra_args);
    void thread_name(int tid, std::string name);

    int procs_ = 0;
    std::vector<TraceEvent> events_;
    std::vector<OpenSpan> open_; ///< indexed by tid (slot 0 unused)
    std::vector<std::pair<std::string, std::string>> meta_;
};

} // namespace volsched::obs
