#include "sim/trace_observer.hpp"

#include <string>

#include "obs/trace.hpp"
#include "sim/events.hpp"

namespace volsched::sim {

void TraceObserver::begin_run(const Platform& platform) {
    free_data_ = platform.t_data == 0;
    rec_.begin_run(platform.size());
}

void TraceObserver::on_round(long long slot) {
    rec_.instant_engine(slot, "sched round");
}

void TraceObserver::on_slots(long long from, long long to,
                             const SlotActivity& activity) {
    if (activity.elided) rec_.elided(from, to, activity.dead);
}

void TraceObserver::end_run(long long end_slot) { rec_.end_run(end_slot); }

void TraceObserver::on_event(const Event& e) {
    using obs::TraceRecorder;
    TraceRecorder& tr = rec_;
    const auto task_args = [&e] {
        std::string a = "{\"task\":" + std::to_string(e.logical) +
                        ",\"iter\":" + std::to_string(e.iteration);
        if (e.replica) a += ",\"replica\":true";
        return a + "}";
    };
    switch (e.kind) {
    case EventKind::StateChange: {
        const char code = e.state == markov::ProcState::Up          ? 'u'
                          : e.state == markov::ProcState::Reclaimed ? 'r'
                                                                    : 'd';
        // A DOWN handoff also cuts the activity lanes ("lost") inside
        // state_change — this covers the in-flight program download a
        // crash wipes without emitting any WorkLost event.
        tr.state_change(e.slot, e.proc, code);
        break;
    }
    case EventKind::ProgStart:
        tr.span_begin(e.slot, e.proc, TraceRecorder::kLaneTransfer, "prog");
        break;
    case EventKind::ProgComplete:
        tr.span_end(e.slot, e.proc, TraceRecorder::kLaneTransfer);
        break;
    case EventKind::DataStart:
        // A zero-cost transfer never emits DataComplete — record an
        // instant so the transfer lane is not left open.
        if (free_data_)
            tr.instant(e.slot, e.proc, TraceRecorder::kLaneTransfer,
                       "data (free)");
        else
            tr.span_begin(e.slot, e.proc, TraceRecorder::kLaneTransfer,
                          "data", task_args());
        break;
    case EventKind::DataComplete:
        tr.span_end(e.slot, e.proc, TraceRecorder::kLaneTransfer);
        break;
    case EventKind::ComputeStart:
        // Promotion happens at end of slot s; the computation's first
        // advancing slot is s + 1 (and completions of slot s have already
        // closed the lane, so the handoff order is safe).
        tr.span_begin(e.slot + 1, e.proc, TraceRecorder::kLaneCompute,
                      "compute", task_args());
        break;
    case EventKind::TaskComplete:
        tr.span_end(e.slot, e.proc, TraceRecorder::kLaneCompute);
        break;
    case EventKind::WorkLost:
        tr.span_cut(e.slot, e.proc, TraceRecorder::kLaneTransfer, "lost");
        tr.span_cut(e.slot, e.proc, TraceRecorder::kLaneCompute, "lost");
        break;
    case EventKind::ReplicaCommitted:
        tr.instant(e.slot, e.proc, TraceRecorder::kLaneTransfer,
                   "replica committed");
        break;
    case EventKind::ReplicaCancelled:
        tr.span_cut(e.slot, e.proc, TraceRecorder::kLaneTransfer,
                    "cancelled");
        tr.span_cut(e.slot, e.proc, TraceRecorder::kLaneCompute, "cancelled");
        break;
    case EventKind::ProactiveCancel:
        tr.span_cut(e.slot, e.proc, TraceRecorder::kLaneTransfer,
                    "proactive");
        tr.span_cut(e.slot, e.proc, TraceRecorder::kLaneCompute, "proactive");
        break;
    case EventKind::IterationComplete:
        tr.instant_engine(e.slot, "iteration complete");
        break;
    case EventKind::CheckpointStart:
        tr.span_begin(e.slot, e.proc, TraceRecorder::kLaneCkpt, "ckpt",
                      task_args());
        break;
    case EventKind::CheckpointCommit:
        tr.span_end(e.slot, e.proc, TraceRecorder::kLaneCkpt);
        break;
    case EventKind::CheckpointLost:
        tr.span_cut(e.slot, e.proc, TraceRecorder::kLaneCkpt, "lost");
        break;
    case EventKind::Recovery:
        tr.instant(e.slot, e.proc, TraceRecorder::kLaneCompute, "recovery");
        break;
    }
}

} // namespace volsched::sim
