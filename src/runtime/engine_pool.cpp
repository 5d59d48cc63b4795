#include "runtime/engine_pool.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/logging.hpp"

namespace orpheus {

const char *
to_string(ReplicaState state)
{
    switch (state) {
      case ReplicaState::kActive: return "active";
      case ReplicaState::kSpare: return "spare";
      case ReplicaState::kQuarantined: return "quarantined";
    }
    return "invalid";
}

EnginePool::Lease::~Lease()
{
    if (pool_ != nullptr) {
        // Unreleased lease: neutral outcome, but pending hang
        // demotions must still be applied before the next holder.
        EnginePool *pool = pool_;
        const std::size_t id = id_;
        pool_ = nullptr;
        std::lock_guard<std::mutex> lock(pool->mutex_);
        pool->apply_pending_demotions_locked(id);
        pool->replicas_[id].leased = false;
        pool->replica_free_.notify_all();
    }
}

EnginePool::EnginePool(Graph graph, EngineOptions engine_options,
                       EnginePoolOptions options)
    : options_(std::move(options)),
      pack_cache_(engine_options.pack_cache != nullptr
                      ? engine_options.pack_cache
                      : std::make_shared<ConstantPackCache>())
{
    ORPHEUS_CHECK(options_.replicas >= 1,
                  "engine pool needs >= 1 replica, got "
                      << options_.replicas);
    ORPHEUS_CHECK(options_.warm_spares >= 0,
                  "engine pool needs >= 0 warm spares, got "
                      << options_.warm_spares);

    replica_storage_count_ = static_cast<std::size_t>(options_.replicas) +
                             static_cast<std::size_t>(options_.warm_spares);
    monitors_.reserve(replica_storage_count_);
    replicas_.reserve(replica_storage_count_);
    for (std::size_t i = 0; i < replica_storage_count_; ++i) {
        monitors_.push_back(std::make_shared<ExecutionMonitor>());
        EngineOptions per_replica = engine_options;
        per_replica.execution_monitor = monitors_.back();
        per_replica.pack_cache = pack_cache_;
        if (i < options_.per_replica_injectors.size() &&
            options_.per_replica_injectors[i] != nullptr)
            per_replica.fault_injector = options_.per_replica_injectors[i];
        Replica replica;
        // The last replica may consume the caller's graph; the rest
        // compile from copies. Every replica after the first hits the
        // shared pack cache instead of rebuilding constant packs.
        replica.engine = std::make_unique<Engine>(
            i + 1 == replica_storage_count_ ? std::move(graph)
                                            : Graph(graph),
            std::move(per_replica));
        replica.state = i < static_cast<std::size_t>(options_.replicas)
                            ? ReplicaState::kActive
                            : ReplicaState::kSpare;
        replicas_.push_back(std::move(replica));
    }

    batch_capacity_ = replicas_.front().engine->batch_capacity();
    for (const ValueInfo &input :
         replicas_.front().engine->request_inputs())
        probe_inputs_.emplace(input.name,
                              Tensor(input.shape, input.dtype));
}

std::size_t
EnginePool::pick_free_active_locked(std::size_t exclude,
                                    std::size_t exclude2) const
{
    std::size_t best = kNoReplica;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        const Replica &replica = replicas_[i];
        if (replica.state != ReplicaState::kActive || replica.leased ||
            replica.draining || i == exclude || i == exclude2)
            continue;
        if (best == kNoReplica ||
            replica.health_penalty < replicas_[best].health_penalty ||
            (replica.health_penalty == replicas_[best].health_penalty &&
             replica.served < replicas_[best].served))
            best = i;
    }
    return best;
}

std::size_t
EnginePool::promote_spare_locked()
{
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i].state == ReplicaState::kSpare) {
            replicas_[i].state = ReplicaState::kActive;
            ++stats_.spare_promotions;
            ORPHEUS_WARN("engine pool: promoted warm spare replica "
                         << i << " into rotation");
            return i;
        }
    }
    return kNoReplica;
}

std::size_t
EnginePool::count_in_rotation_locked() const
{
    std::size_t count = 0;
    for (const Replica &replica : replicas_)
        if (replica.state != ReplicaState::kQuarantined)
            ++count;
    return count;
}

EnginePool::Lease
EnginePool::acquire(const DeadlineToken &deadline,
                    std::size_t exclude_replica, Status *why,
                    LeasePriority priority)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (deadline.expired()) {
            if (why != nullptr)
                *why = deadline_exceeded_error(
                    "deadline expired while waiting for a pool replica");
            return Lease();
        }

        // A real-time acquirer is waiting for a lease: normal traffic
        // stands aside so the next freed replica goes to it first.
        if (priority == LeasePriority::kNormal && rt_waiters_ > 0 &&
            count_in_rotation_locked() > 0) {
            if (deadline.has_deadline())
                replica_free_.wait_for(
                    lock, std::chrono::duration<double, std::milli>(
                              std::max(deadline.remaining_ms(), 0.0)));
            else
                replica_free_.wait(lock);
            continue;
        }

        // Canary slicing: when a slice is armed and the canary is free,
        // a credit accumulator routes `fraction` of acquires to it; the
        // rest of the traffic skips it so the slice stays honest.
        std::size_t id = kNoReplica;
        const bool canary_eligible =
            canary_replica_ != kNoReplica &&
            canary_replica_ != exclude_replica &&
            canary_replica_ < replicas_.size() &&
            replicas_[canary_replica_].state == ReplicaState::kActive &&
            !replicas_[canary_replica_].leased &&
            !replicas_[canary_replica_].draining;
        if (canary_eligible) {
            canary_credit_ += canary_fraction_;
            if (canary_credit_ >= 1.0) {
                canary_credit_ -= 1.0;
                id = canary_replica_;
                ++stats_.canary_routed;
            }
        }

        if (id == kNoReplica)
            id = pick_free_active_locked(exclude_replica, canary_replica_);
        if (id == kNoReplica) {
            id = promote_spare_locked();
            if (id != kNoReplica && id == exclude_replica)
                id = kNoReplica; // A spare that is the excluded replica
                                 // stays promoted; look again below.
        }
        if (id == kNoReplica && exclude_replica != kNoReplica)
            // Failing over beats failing: reuse the excluded replica
            // when it is the only healthy one.
            id = pick_free_active_locked(kNoReplica, canary_replica_);
        if (id == kNoReplica && canary_eligible)
            // Availability beats slicing: the canary is the only free
            // replica, so use it rather than queueing behind the rest.
            id = canary_replica_;

        if (id != kNoReplica) {
            Replica &replica = replicas_[id];
            replica.leased = true;
            ++stats_.acquires;
            return Lease(this, id, replica.engine.get());
        }

        if (count_in_rotation_locked() > 0) {
            // Healthy replicas exist but all are leased: wait for one.
            // Real-time waiters register so normal acquirers defer to
            // them until the line clears.
            if (priority == LeasePriority::kRealtime)
                ++rt_waiters_;
            if (deadline.has_deadline()) {
                const double remaining = deadline.remaining_ms();
                replica_free_.wait_for(
                    lock, std::chrono::duration<double, std::milli>(
                              std::max(remaining, 0.0)));
            } else {
                replica_free_.wait(lock);
            }
            if (priority == LeasePriority::kRealtime &&
                --rt_waiters_ == 0)
                replica_free_.notify_all();
            continue;
        }

        // Every replica is quarantined. Try to revive the least-bad
        // unleased one; if that is impossible, fail fast — the caller
        // must see kResourceExhausted, not a hang.
        std::size_t candidate = kNoReplica;
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            const Replica &replica = replicas_[i];
            if (replica.state != ReplicaState::kQuarantined ||
                replica.leased)
                continue;
            if (candidate == kNoReplica ||
                replica.health_penalty <
                    replicas_[candidate].health_penalty)
                candidate = i;
        }
        if (candidate == kNoReplica) {
            // Quarantined replicas exist but are all mid-probe on other
            // threads; wait for a verdict.
            replica_free_.wait(lock);
            continue;
        }

        Replica &replica = replicas_[candidate];
        replica.leased = true; // Exclusive for the probe.
        ++stats_.probes;
        lock.unlock();
        std::string failure;
        const bool clean = revive(candidate, &failure);
        lock.lock();
        if (clean) {
            replica.state = ReplicaState::kActive;
            replica.health_penalty = 0;
            replica.last_fault.clear();
            ++stats_.readmissions;
            ++stats_.acquires;
            ORPHEUS_WARN("engine pool: replica " << candidate
                                                 << " probed clean; "
                                                    "readmitted");
            return Lease(this, candidate, replica.engine.get());
        }
        ++stats_.probe_failures;
        replica.leased = false;
        replica.last_fault = "probe failed: " + failure;
        replica_free_.notify_all();
        ORPHEUS_WARN("engine pool: replica " << candidate
                                             << " failed its readmission "
                                                "probe: "
                                             << failure);

        bool any_hope = false;
        for (const Replica &other : replicas_)
            if (other.state != ReplicaState::kQuarantined || other.leased)
                any_hope = true;
        if (!any_hope) {
            if (why != nullptr)
                *why = resource_exhausted_error(
                    "all replicas quarantined and the readmission probe "
                    "failed: " +
                    failure);
            return Lease();
        }
    }
}

EnginePool::Lease
EnginePool::acquire_specific(std::size_t replica,
                             const DeadlineToken &deadline, Status *why)
{
    std::unique_lock<std::mutex> lock(mutex_);
    ORPHEUS_CHECK(replica < replicas_.size(),
                  "replica index " << replica
                                   << " out of range (pool has "
                                   << replicas_.size() << " replicas)");
    for (;;) {
        Replica &target = replicas_[replica];
        if (target.state == ReplicaState::kQuarantined ||
            target.draining) {
            if (why != nullptr)
                *why = failed_precondition_error(
                    "replica " + std::to_string(replica) + " is " +
                    (target.draining ? "draining"
                                     : to_string(target.state)) +
                    "; cannot be acquired specifically");
            return Lease();
        }
        if (deadline.expired()) {
            if (why != nullptr)
                *why = deadline_exceeded_error(
                    "deadline expired while waiting for replica " +
                    std::to_string(replica));
            return Lease();
        }
        if (!target.leased) {
            target.leased = true;
            ++stats_.acquires;
            return Lease(this, replica, target.engine.get());
        }
        if (deadline.has_deadline())
            replica_free_.wait_for(
                lock, std::chrono::duration<double, std::milli>(
                          std::max(deadline.remaining_ms(), 0.0)));
        else
            replica_free_.wait(lock);
    }
}

std::unique_ptr<Engine>
EnginePool::swap_replica(std::size_t id, std::unique_ptr<Engine> engine,
                         std::uint64_t generation,
                         const DeadlineToken &drain_deadline, Status *why)
{
    ORPHEUS_CHECK(engine != nullptr, "swap_replica needs an engine");
    std::unique_lock<std::mutex> lock(mutex_);
    ORPHEUS_CHECK(id < replicas_.size(),
                  "replica index " << id << " out of range (pool has "
                                   << replicas_.size() << " replicas)");
    Replica &replica = replicas_[id];
    if (replica.draining) {
        if (why != nullptr)
            *why = failed_precondition_error(
                "replica " + std::to_string(id) +
                " is already draining for another swap");
        return nullptr;
    }
    // Fence off new leases; existing holders finish undisturbed. Only
    // this one replica leaves rotation, so capacity stays >= N-1.
    replica.draining = true;
    while (replica.leased) {
        if (drain_deadline.expired()) {
            replica.draining = false;
            replica_free_.notify_all();
            if (why != nullptr)
                *why = deadline_exceeded_error(
                    "drain deadline expired while replica " +
                    std::to_string(id) + " was still leased");
            return nullptr;
        }
        if (drain_deadline.has_deadline())
            replica_free_.wait_for(
                lock, std::chrono::duration<double, std::milli>(
                          std::max(drain_deadline.remaining_ms(), 0.0)));
        else
            replica_free_.wait(lock);
    }

    std::unique_ptr<Engine> displaced = std::move(replica.engine);
    replica.engine = std::move(engine);
    replica.generation = generation;
    replica.health_penalty = 0;
    replica.pending_demotions.clear();
    replica.pending_hang_penalty = 0;
    replica.last_fault.clear();
    replica.window = ReplicaWindow{};
    if (replica.state == ReplicaState::kQuarantined)
        // The replacement engine is fresh; readmit the slot.
        replica.state = ReplicaState::kActive;
    replica.draining = false;
    ++stats_.swaps;
    replica_free_.notify_all();
    return displaced;
}

void
EnginePool::set_canary(std::size_t replica, double fraction)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (replica != kNoReplica)
        ORPHEUS_CHECK(replica < replicas_.size(),
                      "canary replica " << replica
                                        << " out of range (pool has "
                                        << replicas_.size()
                                        << " replicas)");
    canary_replica_ = replica;
    canary_fraction_ = std::min(std::max(fraction, 0.0), 1.0);
    canary_credit_ = 0;
}

std::size_t
EnginePool::canary_replica() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return canary_replica_;
}

void
EnginePool::tag_generation(std::uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Replica &replica : replicas_)
        replica.generation = generation;
}

std::vector<ReplicaWindow>
EnginePool::windows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ReplicaWindow> windows;
    windows.reserve(replicas_.size());
    for (const Replica &replica : replicas_)
        windows.push_back(replica.window);
    return windows;
}

void
EnginePool::reset_windows()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Replica &replica : replicas_)
        replica.window = ReplicaWindow{};
}

bool
EnginePool::revive(std::size_t id, std::string *failure)
{
    Engine &engine = *replicas_[id].engine;
    try {
        for (std::size_t step = 0; step < engine.steps().size(); ++step)
            if (engine.steps()[step].degraded())
                engine.restore_step(step);
    } catch (const std::exception &error) {
        *failure = error.what();
        return false;
    }
    if (!options_.probe_on_readmission)
        return true;
    std::map<std::string, Tensor> outputs;
    const Status verdict = engine.try_run(
        probe_inputs_, outputs,
        DeadlineToken::after_ms(options_.probe_deadline_ms));
    if (!verdict.is_ok())
        *failure = verdict.to_string();
    return verdict.is_ok();
}

void
EnginePool::apply_pending_demotions_locked(std::size_t id)
{
    Replica &replica = replicas_[id];
    replica.health_penalty += replica.pending_hang_penalty;
    if (replica.pending_hang_penalty > 0)
        ++replica.failures;
    replica.pending_hang_penalty = 0;
    std::vector<PendingDemotion> todo;
    todo.swap(replica.pending_demotions);
    for (const PendingDemotion &demotion : todo) {
        Engine &engine = *replica.engine;
        if (demotion.step_index >= engine.steps().size() ||
            engine.steps()[demotion.step_index].degraded())
            continue;
        try {
            engine.demote_step(demotion.step_index, demotion.reason);
            ++stats_.demotions;
        } catch (const Error &error) {
            // No alternative implementation; keep serving on the
            // original kernel rather than losing the replica.
            ORPHEUS_WARN("engine pool: could not demote step "
                         << demotion.step_index << " of replica " << id
                         << ": " << error.what());
        }
    }
}

void
EnginePool::release(Lease lease, const Status &outcome, double run_ms,
                    std::int64_t requests)
{
    if (!lease.valid())
        return;
    const std::size_t id = lease.id_;
    lease.pool_ = nullptr; // The destructor must not double-release.
    requests = std::max<std::int64_t>(1, requests);

    std::lock_guard<std::mutex> lock(mutex_);
    Replica &replica = replicas_[id];
    // The window counts requests, not leases: a fused run served
    // `requests` of them, each experiencing the fused run's latency.
    replica.served += requests;
    replica.window.served += requests;
    if (run_ms >= 0)
        for (std::int64_t r = 0; r < requests; ++r)
            replica.window.latency.record(run_ms);
    apply_pending_demotions_locked(id);

    if (outcome.is_ok()) {
        replica.health_penalty = std::max(
            0.0, replica.health_penalty - options_.success_reward);
        replica.window.ok += requests;
    } else if (outcome.code() == StatusCode::kDataCorruption) {
        replica.health_penalty += options_.corruption_penalty;
        ++replica.failures;
        replica.window.corruption += requests;
        replica.last_fault = outcome.to_string();
    } else if (outcome.code() == StatusCode::kInternal) {
        replica.health_penalty += options_.fault_penalty;
        ++replica.failures;
        replica.window.fault += requests;
        replica.last_fault = outcome.to_string();
    }
    // Deadline expiry stays neutral: the client's budget ran out, which
    // says nothing about the replica (watchdog hangs arrive separately
    // through report_hang).

    if (replica.state == ReplicaState::kActive &&
        replica.health_penalty >= options_.quarantine_threshold) {
        replica.state = ReplicaState::kQuarantined;
        ++stats_.quarantines;
        ORPHEUS_WARN("engine pool: replica "
                     << id << " quarantined (health penalty "
                     << replica.health_penalty << " >= "
                     << options_.quarantine_threshold << ", last fault: "
                     << replica.last_fault << ")");
        promote_spare_locked();
    }

    replica.leased = false;
    replica_free_.notify_all();
}

void
EnginePool::report_hang(std::size_t replica, std::size_t step_index,
                        const std::string &reason)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (replica >= replicas_.size())
        return;
    replicas_[replica].pending_demotions.push_back(
        PendingDemotion{step_index, reason});
    replicas_[replica].pending_hang_penalty += options_.hang_penalty;
    ++replicas_[replica].window.hang;
    replicas_[replica].last_fault = reason;
}

const Engine &
EnginePool::engine(std::size_t index) const
{
    ORPHEUS_CHECK(index < replicas_.size(),
                  "replica index " << index << " out of range (pool has "
                                   << replicas_.size() << " replicas)");
    return *replicas_[index].engine;
}

std::int64_t
EnginePool::breaker_opens(const Engine &engine) const
{
    std::int64_t opens = 0;
    for (const PlanStep &step : engine.steps())
        opens += step.health.opens_total;
    return opens;
}

EnginePoolStats
EnginePool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    EnginePoolStats stats = stats_;
    for (const Replica &replica : replicas_) {
        switch (replica.state) {
          case ReplicaState::kActive: ++stats.active_replicas; break;
          case ReplicaState::kSpare: ++stats.spare_replicas; break;
          case ReplicaState::kQuarantined:
            ++stats.quarantined_replicas;
            break;
        }
    }
    return stats;
}

std::vector<ReplicaSnapshot>
EnginePool::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ReplicaSnapshot> snapshots;
    snapshots.reserve(replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        const Replica &replica = replicas_[i];
        ReplicaSnapshot view;
        view.id = i;
        view.state = replica.state;
        view.leased = replica.leased;
        view.draining = replica.draining;
        view.health_penalty = replica.health_penalty;
        view.generation = replica.generation;
        view.served = replica.served;
        view.failures = replica.failures;
        view.breaker_opens = breaker_opens(*replica.engine);
        view.last_fault = replica.last_fault;
        snapshots.push_back(std::move(view));
    }
    return snapshots;
}

} // namespace orpheus
