#include "sim/timeline.hpp"

#include <algorithm>
#include <sstream>

namespace volsched::sim {

void Timeline::begin_run(const Platform& platform) {
    rows_.assign(static_cast<std::size_t>(platform.size()), std::string{});
}

void Timeline::on_slots(long long from, long long to,
                        const SlotActivity& activity) {
    for (std::size_t q = 0; q < rows_.size(); ++q) {
        char code = '.';
        const markov::ProcState st = activity.states[q];
        if (st == markov::ProcState::Down) code = 'd';
        else if (st == markov::ProcState::Reclaimed) code = 'r';
        else {
            const std::uint8_t f = activity.flags[q];
            const bool compute = f & SlotActivity::kCompute;
            const bool data = f & SlotActivity::kData;
            if (compute && data) code = 'B';
            else if (compute) code = 'C';
            else if (f & SlotActivity::kCheckpoint) code = 'K';
            else if (data) code = 'D';
            else if (f & SlotActivity::kProgram) code = 'P';
        }
        rows_[q].append(static_cast<std::size_t>(to - from), code);
    }
}

char Timeline::at(ProcId proc, long long slot) const noexcept {
    if (proc < 0 || proc >= procs()) return '\0';
    if (slot < 0 || slot >= static_cast<long long>(rows_[proc].size()))
        return '\0';
    return rows_[proc][static_cast<std::size_t>(slot)];
}

std::string Timeline::render(long long first, long long last) const {
    std::ostringstream os;
    const long long end =
        (last < 0) ? slots() : std::min<long long>(last, slots());
    const long long begin_slot = std::clamp<long long>(first, 0, end);
    // Ruler: a tick every 10 slots.
    os << "      ";
    for (long long t = begin_slot; t < end; ++t)
        os << (t % 10 == 0 ? '|' : ' ');
    os << '\n';
    for (int q = 0; q < procs(); ++q) {
        os << 'P' << q << (q < 10 ? "    " : "   ");
        os << rows_[q].substr(static_cast<std::size_t>(begin_slot),
                              static_cast<std::size_t>(end - begin_slot));
        os << '\n';
    }
    return os.str();
}

} // namespace volsched::sim
