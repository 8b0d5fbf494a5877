#include "api/simulation_builder.hpp"

#include <stdexcept>
#include <utility>

#include "ckpt/registry.hpp"
#include "sim/trace_observer.hpp"
#include "trace/empirical.hpp"

namespace volsched::api {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("SimulationBuilder: " + what);
}

} // namespace

// ---------------------------------------------------------------------------
// AvailabilitySource factories.
// ---------------------------------------------------------------------------

AvailabilitySource
AvailabilitySource::markov(std::vector<markov::MarkovChain> chains,
                           markov::InitialState init) {
    AvailabilitySource src;
    src.origin = "markov";
    src.models.reserve(chains.size());
    for (const auto& chain : chains)
        src.models.push_back(
            std::make_unique<markov::MarkovAvailability>(chain, init));
    src.default_beliefs = std::move(chains);
    return src;
}

AvailabilitySource
AvailabilitySource::replay(std::vector<trace::RecordedTrace> traces,
                           trace::ReplayAvailability::EndPolicy policy) {
    AvailabilitySource src;
    src.origin = "replay";
    src.models.reserve(traces.size());
    for (auto& t : traces)
        src.models.push_back(
            std::make_unique<trace::ReplayAvailability>(std::move(t), policy));
    return src;
}

AvailabilitySource
AvailabilitySource::empirical(std::vector<trace::RecordedTrace> traces,
                              trace::ReplayAvailability::EndPolicy policy) {
    AvailabilitySource src;
    src.origin = "empirical";
    src.models.reserve(traces.size());
    src.default_beliefs.reserve(traces.size());
    for (auto& t : traces) {
        if (t.length() == 0)
            throw std::invalid_argument(
                "AvailabilitySource::empirical: empty trace (cannot fit a "
                "Markov belief)");
        src.default_beliefs.emplace_back(trace::fit_markov({t}));
        src.models.push_back(
            std::make_unique<trace::ReplayAvailability>(std::move(t), policy));
    }
    return src;
}

AvailabilitySource AvailabilitySource::models_from(
    std::vector<std::unique_ptr<markov::AvailabilityModel>> models) {
    AvailabilitySource src;
    src.origin = "models";
    for (const auto& m : models)
        if (!m)
            throw std::invalid_argument(
                "AvailabilitySource::models_from: null model");
    src.models = std::move(models);
    return src;
}

// ---------------------------------------------------------------------------
// SimulationBuilder.
// ---------------------------------------------------------------------------

SimulationBuilder& SimulationBuilder::platform(sim::Platform pf) {
    platform_ = std::move(pf);
    return *this;
}

SimulationBuilder& SimulationBuilder::availability(AvailabilitySource source) {
    if (source_.has_value())
        fail("availability source set twice (had '" + source_->origin +
             "', now '" + source.origin + "'); a simulation has exactly one");
    source_ = std::move(source);
    return *this;
}

SimulationBuilder&
SimulationBuilder::markov(std::vector<markov::MarkovChain> chains,
                          markov::InitialState init) {
    return availability(AvailabilitySource::markov(std::move(chains), init));
}

SimulationBuilder&
SimulationBuilder::replay(std::vector<trace::RecordedTrace> traces,
                          trace::ReplayAvailability::EndPolicy policy) {
    return availability(AvailabilitySource::replay(std::move(traces), policy));
}

SimulationBuilder&
SimulationBuilder::empirical(std::vector<trace::RecordedTrace> traces,
                             trace::ReplayAvailability::EndPolicy policy) {
    return availability(
        AvailabilitySource::empirical(std::move(traces), policy));
}

SimulationBuilder& SimulationBuilder::models(
    std::vector<std::unique_ptr<markov::AvailabilityModel>> models) {
    return availability(AvailabilitySource::models_from(std::move(models)));
}

SimulationBuilder&
SimulationBuilder::beliefs(std::vector<markov::MarkovChain> chains) {
    belief_override_ = std::move(chains);
    uninformed_ = false;
    return *this;
}

SimulationBuilder& SimulationBuilder::uninformed() {
    belief_override_.reset();
    uninformed_ = true;
    return *this;
}

SimulationBuilder& SimulationBuilder::config(sim::EngineConfig cfg) {
    config_ = cfg;
    return *this;
}

SimulationBuilder& SimulationBuilder::iterations(int n) {
    config_.iterations = n;
    return *this;
}

SimulationBuilder& SimulationBuilder::tasks_per_iteration(int n) {
    config_.tasks_per_iteration = n;
    return *this;
}

SimulationBuilder& SimulationBuilder::replica_cap(int n) {
    config_.replica_cap = n;
    return *this;
}

SimulationBuilder& SimulationBuilder::max_slots(long long n) {
    config_.max_slots = n;
    return *this;
}

SimulationBuilder& SimulationBuilder::plan_class(sim::SchedulerClass c) {
    config_.plan_class = c;
    return *this;
}

SimulationBuilder& SimulationBuilder::audit(bool on) {
    config_.audit = on;
    return *this;
}

SimulationBuilder& SimulationBuilder::observe(sim::RunObserver* observer) {
    if (observer) config_.observers.push_back(observer);
    return *this;
}

SimulationBuilder& SimulationBuilder::trace(obs::TraceRecorder* rec) {
    if (!rec) return *this;
    owned_observers_.push_back(std::make_unique<sim::TraceObserver>(*rec));
    return observe(owned_observers_.back().get());
}

SimulationBuilder& SimulationBuilder::checkpoint(const std::string& spec) {
    // Resolves eagerly: a typo fails here with the checkpoint registry's
    // did-you-mean message, not at build().
    return checkpoint(std::shared_ptr<const ckpt::CheckpointPolicy>(
        ckpt::CheckpointRegistry::instance().make(spec)));
}

SimulationBuilder& SimulationBuilder::checkpoint(
    std::shared_ptr<const ckpt::CheckpointPolicy> policy) {
    if (!policy) fail(".checkpoint(...) got a null policy");
    checkpoint_ = std::move(policy);
    return *this;
}

SimulationBuilder& SimulationBuilder::checkpoint_cost(int slots) {
    config_.checkpoint_cost = slots;
    return *this;
}

SimulationBuilder& SimulationBuilder::seed(std::uint64_t s) {
    seed_ = s;
    return *this;
}

SimulationBuilder&
SimulationBuilder::realized(std::shared_ptr<markov::RealizedTraces> traces) {
    if (!traces) fail(".realized(...) got a null realization");
    realized_ = std::move(traces);
    return *this;
}

SimulationBuilder& SimulationBuilder::trace_cache(bool on) {
    cache_traces_ = on;
    return *this;
}

SimulationBuilder& SimulationBuilder::event_driven(bool on) {
    config_.event_driven = on;
    return *this;
}

sim::Simulation SimulationBuilder::build() {
    if (built_)
        fail("build() called twice; a builder is single-use (the first "
             "build consumed its availability models)");
    if (!platform_.has_value())
        fail("no platform; call .platform(sim::Platform) first");
    if (!source_.has_value())
        fail("no availability source; call one of .markov(chains), "
             ".replay(traces), .empirical(traces) or .models(...)");

    const int p = platform_->size();
    if (static_cast<int>(source_->models.size()) != p)
        fail("availability source '" + source_->origin + "' has " +
             std::to_string(source_->models.size()) +
             " models but the platform has " + std::to_string(p) +
             " processors; one model per processor is required");

    std::vector<markov::MarkovChain> beliefs;
    if (uninformed_) {
        // explicit .uninformed(): run without belief chains
    } else if (belief_override_.has_value()) {
        if (static_cast<int>(belief_override_->size()) != p)
            fail(".beliefs(...) got " +
                 std::to_string(belief_override_->size()) +
                 " chains but the platform has " + std::to_string(p) +
                 " processors; pass one chain per processor (or call "
                 ".uninformed() for none)");
        beliefs = std::move(*belief_override_);
    } else {
        beliefs = std::move(source_->default_beliefs);
    }

    if (realized_) {
        if (!cache_traces_)
            fail(".trace_cache(false) conflicts with .realized(...): an "
                 "attached realization is always retained and shared");
        if (realized_->size() != p)
            fail(".realized(...) holds " + std::to_string(realized_->size()) +
                 " traces but the platform has " + std::to_string(p) +
                 " processors");
        if (realized_->seed() != seed_)
            fail(".realized(...) was sampled from seed " +
                 std::to_string(realized_->seed()) +
                 " but the simulation seed is " + std::to_string(seed_) +
                 "; sharing it would break the determinism contract "
                 "(realization must be a function of the seed only)");
    }

    built_ = true;
    sim::Simulation simulation(std::move(*platform_),
                               std::move(source_->models), std::move(beliefs),
                               config_, seed_);
    simulation.cache_traces_ = cache_traces_;
    if (realized_) simulation.traces_ = std::move(realized_);
    if (checkpoint_) {
        // The simulation keeps the resolved policy alive; the raw config
        // pointer the engine reads targets the shared object.
        simulation.checkpoint_policy_ = std::move(checkpoint_);
        simulation.config_.checkpoint = simulation.checkpoint_policy_.get();
    }
    simulation.owned_observers_ = std::move(owned_observers_);
    return simulation;
}

} // namespace volsched::api

// Out-of-line so sim/ never depends on api/ headers: the static factory
// declared on sim::Simulation is defined here, next to the builder.
volsched::api::SimulationBuilder volsched::sim::Simulation::builder() {
    return {};
}
