#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "workload/spec_parser.hpp"

namespace cast::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Service-wide solver options specialized to one request: seed and wall
/// budget come from the request (falling back to service defaults), the
/// cancel token from the service. Everything else is shared config.
core::CastOptions request_options(const ServiceOptions& service, const PlanRequest& request,
                                  const CancelToken* cancel) {
    core::CastOptions opts = service.solver;
    if (request.seed) opts.annealing.seed = *request.seed;
    opts.annealing.max_wall_ms =
        request.max_wall_ms > 0.0 ? request.max_wall_ms : service.default_max_wall_ms;
    opts.annealing.cancel = cancel;
    return opts;
}

PlanResponse shed_response(const PlanRequest& request, std::uint64_t epoch,
                           std::string why) {
    PlanResponse resp;
    resp.id = request.id;
    resp.kind = request.kind;
    resp.status = ResponseStatus::kRejected;
    resp.error = std::move(why);
    resp.snapshot_epoch = epoch;
    resp.degradation_level = DegradationLevel::kShed;
    return resp;
}

}  // namespace

const char* priority_name(Priority priority) {
    switch (priority) {
        case Priority::kHigh: return "high";
        case Priority::kNormal: return "normal";
        case Priority::kLow: return "low";
    }
    return "unknown";
}

/// Every serve-layer instrument, resolved once at construction so the
/// request path touches cached references only: no registry mutex, no
/// allocation, no name lookup. The counters are the service's only event
/// counts; stats() reads them back into ServiceStats.
struct PlannerService::Instruments {
    obs::Counter& submitted;
    obs::Counter& completed;
    obs::Counter& rejected;
    obs::Counter& errors;
    obs::Counter& coalesced;
    obs::Counter& batches;
    obs::Counter& served_full;
    obs::Counter& served_trimmed;
    obs::Counter& served_greedy;
    obs::Counter& shed_overload;
    obs::Counter& shed_deadline;
    obs::Counter& retries;
    obs::Counter& breaker_fastfail;
    obs::Counter& swaps;
    obs::Counter& swap_clears_suppressed;
    /// End-to-end latency (queue wait + solve) by request priority.
    obs::Histogram& latency_high;
    obs::Histogram& latency_normal;
    obs::Histogram& latency_low;
    /// Representative solve time only (coalesced copies share the solve).
    obs::Histogram& solve_ms;
    /// Solves answered by the replica-exchange path (replicas > 0).
    obs::Counter& tempering_solves;
    /// Incremental re-planning: amends that returned a plan, and how.
    obs::Counter& amends;
    obs::Counter& amend_escalations;
    obs::Counter& amend_greedy;
    /// Restricted-neighborhood size per amend (the knob the ladder shrinks).
    obs::Histogram& amend_neighborhood;
    obs::Gauge& amend_cache_hit_rate;
    /// Per-rung exchange counters (replicas - 1 rungs) and per-replica
    /// throughput gauges, sized for the largest ladder any request can run.
    std::vector<obs::Counter*> exchanges_attempted;
    std::vector<obs::Counter*> exchanges_accepted;
    std::vector<obs::Gauge*> replica_iters_per_sec;

    Instruments(obs::MetricsRegistry& reg, std::size_t max_replicas)
        : submitted(reg.counter("serve.requests.submitted")),
          completed(reg.counter("serve.requests.completed")),
          rejected(reg.counter("serve.requests.rejected")),
          errors(reg.counter("serve.requests.errors")),
          coalesced(reg.counter("serve.requests.coalesced")),
          batches(reg.counter("serve.dispatch.batches")),
          served_full(reg.counter("serve.governor.served_full")),
          served_trimmed(reg.counter("serve.governor.served_trimmed")),
          served_greedy(reg.counter("serve.governor.served_greedy")),
          shed_overload(reg.counter("serve.governor.shed_overload")),
          shed_deadline(reg.counter("serve.governor.shed_deadline")),
          retries(reg.counter("serve.retry.attempts")),
          breaker_fastfail(reg.counter("serve.breaker.fastfail")),
          swaps(reg.counter("serve.snapshot.swaps")),
          swap_clears_suppressed(reg.counter("serve.snapshot.clears_suppressed")),
          latency_high(reg.histogram("serve.latency_ms.high")),
          latency_normal(reg.histogram("serve.latency_ms.normal")),
          latency_low(reg.histogram("serve.latency_ms.low")),
          solve_ms(reg.histogram("serve.solve_ms")),
          tempering_solves(reg.counter("solver.tempering.solves")),
          amends(reg.counter("solver.incremental.amends")),
          amend_escalations(reg.counter("solver.incremental.escalations")),
          amend_greedy(reg.counter("solver.incremental.greedy_amends")),
          amend_neighborhood(reg.histogram("solver.incremental.neighborhood_jobs")),
          amend_cache_hit_rate(reg.gauge("solver.incremental.amend_cache_hit_rate")) {
        for (std::size_t k = 0; k + 1 < max_replicas; ++k) {
            const std::string rung = ".rung" + std::to_string(k);
            exchanges_attempted.push_back(
                &reg.counter("solver.tempering.exchanges_attempted" + rung));
            exchanges_accepted.push_back(
                &reg.counter("solver.tempering.exchanges_accepted" + rung));
        }
        for (std::size_t r = 0; r < max_replicas; ++r) {
            replica_iters_per_sec.push_back(
                &reg.gauge("solver.tempering.replica_iters_per_sec.r" + std::to_string(r)));
        }
    }

    /// Fold one amend's statistics into the registry. The hit-rate gauge
    /// reflects the shared cache as of the most recent amend — the warm-
    /// cache-across-amendments signal the incremental engine lives on.
    void record_amend(const core::AmendResult& result) {
        amends.add();
        if (result.escalated_cold) amend_escalations.add();
        if (result.greedy_only) amend_greedy.add();
        amend_neighborhood.observe(static_cast<double>(result.neighborhood.size()));
        amend_cache_hit_rate.set(result.cache_stats.hit_rate());
    }

    /// Fold one solve's replica-exchange statistics into the registry:
    /// exchange attempt/accept totals per ladder rung (counters, summed
    /// across solves) and per-replica iteration throughput for the most
    /// recent solve (gauges). No-op for greedy-only results.
    void record_tempering(const core::TemperingStats& stats, double ms) {
        if (!stats.enabled()) return;
        CAST_ENSURES_MSG(
            static_cast<std::size_t>(stats.replicas) <= replica_iters_per_sec.size(),
            "a solve ran more replicas than the service's chain options allow");
        tempering_solves.add();
        for (std::size_t k = 0; k < stats.exchange_attempts.size(); ++k) {
            exchanges_attempted[k]->add(stats.exchange_attempts[k]);
            exchanges_accepted[k]->add(stats.exchange_accepts[k]);
        }
        const double secs = ms / 1000.0;
        if (secs <= 0.0) return;
        for (std::size_t r = 0; r < stats.replica_iterations.size(); ++r) {
            replica_iters_per_sec[r]->set(static_cast<double>(stats.replica_iterations[r]) /
                                          secs);
        }
    }

    [[nodiscard]] obs::Histogram& latency_for(Priority priority) {
        switch (priority) {
            case Priority::kHigh: return latency_high;
            case Priority::kLow: return latency_low;
            case Priority::kNormal: break;
        }
        return latency_normal;
    }
};

PlannerService::PlannerService(SnapshotPtr snapshot, ServiceOptions options)
    : options_(std::move(options)),
      snapshot_(std::move(snapshot)),
      trace_(options_.obs.trace_capacity),
      // Requests never raise chains and the governor's trimmed rung only
      // halves it, so these two options bound every ladder a solve runs.
      inst_(std::make_unique<Instruments>(
          metrics_, static_cast<std::size_t>(std::max(
                        {1, options_.solver.annealing.chains, options_.amend.chains})))),
      queue_(options_.queue_capacity, 3),
      pool_(options_.workers),
      governor_(options_.governor, std::max<std::size_t>(std::size_t{1}, options_.workers),
                options_.queue_capacity),
      injector_(options_.faults),
      swap_breaker_(options_.governor.swap_breaker) {
    CAST_EXPECTS_MSG(snapshot_ != nullptr, "PlannerService needs a snapshot");
    CAST_EXPECTS(options_.max_batch >= 1);
    CAST_EXPECTS(options_.default_max_wall_ms >= 0.0);
    // Gauges must exist before the dispatcher can run a single request.
    register_gauges();
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

PlannerService::~PlannerService() {
    // Close admission; the dispatcher drains whatever is already queued
    // (fast when cancel_inflight() latched the token) and exits on the
    // queue's closed+empty signal. Pool workers join in ~ThreadPool.
    queue_.close();
    if (dispatcher_.joinable()) dispatcher_.join();
}

void PlannerService::register_gauges() {
    // Pull gauges read live service state at export time. The registry
    // evaluates them outside its own mutex, so taking snapshot_mutex_ /
    // breaker_mutex_ (or the governor's) inside a callback adds no
    // lock-order edge. Callbacks capture `this`; the registry is a member,
    // so exports cannot outlive the service.
    metrics_.gauge_fn("serve.queue.depth",
                      [this] { return static_cast<double>(queue_.size()); });
    metrics_.gauge_fn("serve.inflight", [this] {
        return static_cast<double>(in_flight_.load(std::memory_order_relaxed));
    });
    metrics_.gauge_fn("serve.governor.ewma_solve_ms",
                      [this] { return governor_.ewma_solve_ms(); });
    metrics_.gauge_fn("serve.governor.ewma_seeded",
                      [this] { return governor_.ewma_seeded() ? 1.0 : 0.0; });
    metrics_.gauge_fn("serve.snapshot.epoch", [this] {
        return static_cast<double>(snapshot()->epoch());
    });
    metrics_.gauge_fn("serve.cache.hit_rate",
                      [this] { return snapshot()->cache().stats().hit_rate(); });
    metrics_.gauge_fn("serve.cache.generation_bumps", [this] {
        return static_cast<double>(snapshot()->cache().stats().generation_bumps);
    });
    metrics_.gauge_fn("serve.cache.inserts", [this] {
        return static_cast<double>(snapshot()->cache().stats().inserts);
    });
    metrics_.gauge_fn("serve.breakers.open", [this] { return open_breaker_count(); });
    metrics_.gauge_fn("serve.breakers.trips",
                      [this] { return static_cast<double>(total_breaker_trips()); });
}

double PlannerService::open_breaker_count() const {
    // Holding breaker_mutex_ while reading each breaker's own lock follows
    // the established order (stats() reads trips() the same way).
    double open = swap_breaker_.state() == BreakerState::kOpen ? 1.0 : 0.0;
    LockGuard lock(breaker_mutex_);
    for (const auto& [key, breaker] : breakers_) {
        if (breaker->state() == BreakerState::kOpen) open += 1.0;
    }
    return open;
}

std::uint64_t PlannerService::total_breaker_trips() const {
    LockGuard lock(breaker_mutex_);
    std::uint64_t trips = evicted_breaker_trips_ + swap_breaker_.trips();
    for (const auto& [key, breaker] : breakers_) trips += breaker->trips();
    return trips;
}

void PlannerService::trace_response(
    const PlanRequest& request, const PlanResponse& resp,
    std::chrono::steady_clock::time_point enqueued,
    std::optional<std::chrono::steady_clock::time_point> dispatched,
    std::optional<std::chrono::steady_clock::time_point> solved, const std::string& note) {
    if (!trace_.enabled()) return;
    obs::TraceSpan span;
    span.id = resp.id;
    span.label = priority_name(request.priority);
    switch (resp.status) {
        case ResponseStatus::kOk: span.outcome = "ok"; break;
        case ResponseStatus::kRejected: span.outcome = "rejected"; break;
        case ResponseStatus::kError: span.outcome = "error"; break;
    }
    span.events.push_back({"admit", trace_.at_ms(enqueued), ""});
    if (dispatched) {
        span.events.push_back({"dequeue", trace_.at_ms(*dispatched), ""});
        // The ladder decision is made at dequeue time; kFull on an
        // ungoverned service documents "no governor in the way".
        span.events.push_back({"governor", trace_.at_ms(*dispatched),
                               degradation_level_name(resp.degradation_level)});
    }
    if (solved) {
        span.events.push_back(
            {"solve", trace_.at_ms(*solved), "attempts=" + std::to_string(resp.attempts)});
    }
    span.events.push_back({"respond", trace_.now_ms(), note});
    trace_.push(std::move(span));
}

std::future<PlanResponse> PlannerService::submit(PlanRequest request) {
    inst_->submitted.add();

    // Deadline-aware admission: with queue pressure P requests deep and an
    // EWMA solve latency of E ms, a new request waits ~ P*E/workers before
    // any worker touches it. If that alone exceeds the declared deadline,
    // solving it would produce an answer nobody can use — shed now, while
    // it is still free.
    if (governor_.enabled() && options_.governor.deadline_admission &&
        request.deadline_ms > 0.0 &&
        governor_.provably_late(request.deadline_ms, queue_.size(),
                                in_flight_.load(std::memory_order_relaxed))) {
        inst_->rejected.add();
        inst_->shed_deadline.add();
        PlanResponse resp = shed_response(
            request, 0, "deadline shed: predicted queue wait exceeds deadline-ms");
        trace_response(request, resp, std::chrono::steady_clock::now(), std::nullopt,
                       std::nullopt, resp.error);
        std::promise<PlanResponse> immediate;
        immediate.set_value(std::move(resp));
        return immediate.get_future();
    }

    auto pending = std::make_unique<Pending>();
    pending->request = std::move(request);
    pending->enqueued = std::chrono::steady_clock::now();
    const std::uint64_t id = pending->request.id;
    const RequestKind kind = pending->request.kind;
    const auto level = static_cast<std::size_t>(pending->request.priority);
    // The future must be taken before the push: once admitted, the
    // dispatcher owns the Pending and may fulfill it at any moment.
    std::future<PlanResponse> fut = pending->promise.get_future();
    if (queue_.try_push(std::move(pending), level)) return fut;

    inst_->rejected.add();
    PlanResponse resp;
    resp.id = id;
    resp.kind = kind;
    resp.status = ResponseStatus::kRejected;
    resp.error = "queue full or service shutting down";
    if (trace_.enabled()) {
        // The request moved into the queue attempt; stamp a minimal span
        // from what the rejection response carries.
        obs::TraceSpan span;
        span.id = id;
        span.label = priority_name(static_cast<Priority>(level));
        span.outcome = "rejected";
        const double now = trace_.now_ms();
        span.events.push_back({"admit", now, ""});
        span.events.push_back({"respond", now, resp.error});
        trace_.push(std::move(span));
    }
    std::promise<PlanResponse> immediate;
    immediate.set_value(std::move(resp));
    return immediate.get_future();
}

void PlannerService::swap_snapshot(SnapshotPtr next) {
    CAST_EXPECTS_MSG(next != nullptr, "cannot swap in a null snapshot");
    SnapshotPtr old;
    bool storm_sample = false;
    {
        LockGuard lock(snapshot_mutex_);
        old = std::exchange(snapshot_, std::move(next));
        if (governor_.enabled()) {
            const auto now = std::chrono::steady_clock::now();
            storm_sample = any_swap_ && ms_between(last_swap_, now) <
                                            options_.governor.swap_storm_window_ms;
            last_swap_ = now;
            any_swap_ = true;
        }
    }
    inst_->swaps.add();

    // Swap-storm guard: back-to-back swaps each clearing the outgoing cache
    // serialize every in-flight solve against a cold memo table. The clear
    // is an eager-invalidation optimization only — refcounting reclaims the
    // snapshot regardless, and the cache is a pure memo (same bits derive
    // either way) — so while the breaker says "storm", skip it.
    if (governor_.enabled()) {
        if (!swap_breaker_.allow()) {
            inst_->swap_clears_suppressed.add();
            return;
        }
        if (storm_sample) {
            swap_breaker_.record_failure();
        } else {
            swap_breaker_.record_success();
        }
    }

    // Solves dispatched against the old snapshot may still be running;
    // clearing bumps the cache generation, so their thread-local L1 slots
    // are invalidated and values re-derive from the model set — the same
    // bits either way, since the cache is a pure memo.
    old->cache().clear();
}

SnapshotPtr PlannerService::snapshot() const {
    LockGuard lock(snapshot_mutex_);
    return snapshot_;
}

void PlannerService::cancel_inflight() { cancel_.request_stop(); }

ServiceStats PlannerService::stats() const {
    ServiceStats s;
    s.submitted = inst_->submitted.value();
    s.completed = inst_->completed.value();
    s.rejected = inst_->rejected.value();
    s.errors = inst_->errors.value();
    s.batches = inst_->batches.value();
    s.coalesced = inst_->coalesced.value();
    s.snapshot_swaps = inst_->swaps.value();
    s.served_full = inst_->served_full.value();
    s.served_trimmed = inst_->served_trimmed.value();
    s.served_greedy = inst_->served_greedy.value();
    s.governor_shed = inst_->shed_overload.value();
    s.deadline_shed = inst_->shed_deadline.value();
    s.amend_requests = inst_->amends.value();
    s.amend_escalations = inst_->amend_escalations.value();
    s.amend_greedy = inst_->amend_greedy.value();
    s.solve_retries = inst_->retries.value();
    s.breaker_fastfail = inst_->breaker_fastfail.value();
    s.swap_clears_suppressed = inst_->swap_clears_suppressed.value();
    s.breaker_trips = total_breaker_trips();
    s.ewma_solve_ms = governor_.ewma_solve_ms();
    s.ewma_seeded = governor_.ewma_seeded();
    s.cache = snapshot()->cache().stats();
    s.faults = injector_.stats();
    return s;
}

void PlannerService::dispatcher_loop() {
    std::vector<std::unique_ptr<Pending>> batch;
    for (;;) {
        batch.clear();
        if (queue_.pop_batch(batch, options_.max_batch) == 0) return;  // closed + drained
        inst_->batches.add();
        dispatch_batch(batch);
    }
}

void PlannerService::fulfill(Pending& pending, PlanResponse&& resp) {
    if (resp.status == ResponseStatus::kRejected) {
        // A dispatch-time shed is backpressure, not completed work — same
        // accounting as a queue-full rejection at submit.
        inst_->rejected.add();
    } else {
        if (resp.status == ResponseStatus::kError) inst_->errors.add();
        inst_->completed.add();
        if (resp.ok()) {
            // End-to-end latency by priority; solve time only for the
            // representative (a coalesced copy shared its rep's solve).
            inst_->latency_for(pending.request.priority)
                .observe(resp.queue_ms + resp.solve_ms);
            if (!resp.coalesced) inst_->solve_ms.observe(resp.solve_ms);
        }
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    pending.promise.set_value(std::move(resp));
}

void PlannerService::dispatch_batch(std::vector<std::unique_ptr<Pending>>& batch) {
    // One snapshot capture per dispatch: every request in the batch solves
    // against the same epoch even if a swap lands mid-batch.
    const SnapshotPtr snap = snapshot();
    in_flight_.fetch_add(batch.size(), std::memory_order_relaxed);

    // Coalesce identical requests: one representative solve per dedup key;
    // the duplicates get a copy of its response. The duplicate would have
    // computed exactly the same bits (deterministic solvers, shared
    // snapshot, identical options), so sharing is observationally free.
    std::vector<std::size_t> reps;
    std::vector<std::vector<std::size_t>> dupes;
    if (options_.coalesce_identical && batch.size() > 1) {
        std::map<std::string, std::size_t> groups;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const auto [it, inserted] =
                groups.emplace(dedup_key(batch[i]->request), reps.size());
            if (inserted) {
                reps.push_back(i);
                dupes.emplace_back();
            } else {
                dupes[it->second].push_back(i);
            }
        }
    } else {
        reps.resize(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) reps[i] = i;
        dupes.resize(batch.size());
    }

    pool_.parallel_for(
        reps.size(),
        [&](std::size_t r) {
            Pending& rep = *batch[reps[r]];
            const auto start = std::chrono::steady_clock::now();
            const double waited_ms = ms_between(rep.enqueued, start);

            // Walk the ladder: classify once per representative against the
            // live backlog, then either shed or solve at the chosen level.
            enum class Shed { kNone, kDeadline, kGovernor } shed = Shed::kNone;
            PlanResponse resp;
            if (governor_.enabled()) {
                const DegradationLevel level = governor_.classify(governor_.pressure(
                    queue_.size(), in_flight_.load(std::memory_order_relaxed)));
                if (options_.governor.deadline_admission &&
                    rep.request.deadline_ms > 0.0 &&
                    waited_ms > rep.request.deadline_ms) {
                    shed = Shed::kDeadline;
                    resp = shed_response(rep.request, snap->epoch(),
                                         "deadline shed: deadline-ms elapsed in queue");
                } else if (level == DegradationLevel::kShed) {
                    shed = Shed::kGovernor;
                    resp = shed_response(rep.request, snap->epoch(),
                                         "overload shed: backlog past the shed threshold");
                } else {
                    resp = solve_request(rep.request, *snap, level);
                }
            } else {
                resp = solve_request(rep.request, *snap, DegradationLevel::kFull);
            }
            const auto solved_at = std::chrono::steady_clock::now();
            resp.queue_ms = waited_ms;
            resp.solve_ms = ms_between(start, solved_at);
            if (resp.ok()) {
                if (resp.batch) inst_->record_tempering(resp.batch->tempering, resp.solve_ms);
                if (resp.workflow) {
                    inst_->record_tempering(resp.workflow->tempering, resp.solve_ms);
                }
            }

            auto count_outcome = [&](const PlanResponse& out) {
                switch (shed) {
                    case Shed::kDeadline:
                        inst_->shed_deadline.add();
                        return;
                    case Shed::kGovernor:
                        inst_->shed_overload.add();
                        return;
                    case Shed::kNone:
                        break;
                }
                if (!out.ok()) return;
                switch (out.degradation_level) {
                    case DegradationLevel::kFull:
                        inst_->served_full.add();
                        break;
                    case DegradationLevel::kTrimmed:
                        inst_->served_trimmed.add();
                        break;
                    case DegradationLevel::kGreedy:
                        inst_->served_greedy.add();
                        break;
                    case DegradationLevel::kShed:
                        break;
                }
            };

            if (shed == Shed::kNone) {
                // Feed the latency EWMA with actual solve time only — sheds
                // are near-free and would talk the governor out of shedding.
                governor_.record_solve_ms(resp.solve_ms);
            }

            for (const std::size_t d : dupes[r]) {
                Pending& dup = *batch[d];
                PlanResponse share = resp;
                share.id = dup.request.id;
                share.coalesced = true;
                share.queue_ms = ms_between(dup.enqueued, start);
                count_outcome(share);
                inst_->coalesced.add();
                trace_response(dup.request, share, dup.enqueued, start, std::nullopt,
                               "coalesced");
                fulfill(dup, std::move(share));
            }
            count_outcome(resp);
            trace_response(rep.request, resp, rep.enqueued, start,
                           shed == Shed::kNone
                               ? std::optional<std::chrono::steady_clock::time_point>(
                                     solved_at)
                               : std::nullopt,
                           resp.error);
            fulfill(rep, std::move(resp));
        },
        /*grain=*/1);
}

std::shared_ptr<CircuitBreaker> PlannerService::breaker_for(const std::string& key) {
    LockGuard lock(breaker_mutex_);
    const auto it = breakers_.find(key);
    if (it != breakers_.end()) return it->second;
    if (breakers_.size() >= kMaxBreakers) {
        // Wholesale eviction keeps the map bounded without LRU bookkeeping;
        // a poisoned template that reappears re-trips within one retry
        // budget. Trips are carried so stats stay monotonic.
        for (const auto& [k, b] : breakers_) evicted_breaker_trips_ += b->trips();
        breakers_.clear();
    }
    auto breaker = std::make_shared<CircuitBreaker>(options_.governor.breaker);
    breakers_.emplace(key, breaker);
    return breaker;
}

PlanResponse PlannerService::solve_request(const PlanRequest& request, const Snapshot& snap,
                                           DegradationLevel level) {
    const bool governed = governor_.enabled();

    // One breaker per request template: a template that keeps exhausting
    // its retry budget is failed fast instead of re-burning a worker every
    // time it reappears.
    std::shared_ptr<CircuitBreaker> breaker;
    if (governed) {
        breaker = breaker_for(dedup_key(request));
        if (!breaker->allow()) {
            inst_->breaker_fastfail.add();
            PlanResponse resp;
            resp.id = request.id;
            resp.kind = request.kind;
            resp.status = ResponseStatus::kError;
            resp.error = "circuit breaker open: this request template is failing fast";
            resp.snapshot_epoch = snap.epoch();
            resp.degradation_level = level;
            return resp;
        }
    }

    const int max_attempts = governed ? options_.governor.retry.max_attempts : 1;
    PlanResponse resp;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
            inst_->retries.add();
            sleep_backoff_ms(options_.governor.retry.wait_ms(attempt - 1));
        }
        try {
            if (injector_.enabled()) {
                const AttemptFault fault = injector_.on_attempt(request.id, attempt);
                sleep_backoff_ms(fault.stall_ms);  // worker stall: a real sleep
                if (fault.throw_exception) {
                    throw SimulationError("injected serve-layer solver fault", "",
                                          "serve");
                }
            }
            resp = request.kind == RequestKind::kAmend
                       ? amend_direct(request, snap, level)
                       : solve_direct(snap, request, options_, &cancel_, level);
            if (resp.ok() && request.kind == RequestKind::kBatch && resp.batch &&
                !request.plan_handle.empty()) {
                store_plan(request.plan_handle, *request.workload, resp.batch->plan,
                           request.reuse_aware);
            }
            resp.attempts = attempt + 1;
            if (breaker) breaker->record_success();
            return resp;
        } catch (const std::exception& e) {
            // Lint rejections, validation failures and injected faults are
            // per-request faults; they must never take down the service or
            // the batch.
            if (breaker) breaker->record_failure();
            resp = PlanResponse{};
            resp.id = request.id;
            resp.kind = request.kind;
            resp.status = ResponseStatus::kError;
            resp.error = e.what();
            resp.snapshot_epoch = snap.epoch();
            resp.degradation_level = level;
            resp.attempts = attempt + 1;
        }
    }
    return resp;
}

std::string PlannerService::dedup_key(const PlanRequest& request) {
    std::ostringstream os;
    if (request.kind == RequestKind::kAmend) {
        // Amends are stateful (each advances the stored plan), so identical
        // deltas are NOT idempotent — keying on the request id makes every
        // amend its own coalescing group. The handle keeps breaker/trace
        // keys readable.
        os << "A|" << request.plan_handle << '|' << request.id;
        return os.str();
    }
    os << (request.kind == RequestKind::kBatch ? 'B' : 'W') << '|' << request.reuse_aware
       << '|' << (request.seed ? std::to_string(*request.seed) : std::string("-")) << '|'
       << request.max_wall_ms << '|' << request.deadline_ms << '|'
       << request.plan_handle << '|';
    // The spec serialization covers everything the solvers read (sizes,
    // task counts, pins, reuse groups, deadlines); job names ride along
    // because lint notes quote them.
    if (request.workload) {
        workload::write_spec(*request.workload, os);
        for (std::size_t i = 0; i < request.workload->size(); ++i) {
            os << '|' << request.workload->job(i).name;
        }
    }
    if (request.workflow) {
        workload::write_spec(*request.workflow, os);
        os << '|' << request.workflow->name();
        for (const workload::JobSpec& job : request.workflow->jobs()) {
            os << '|' << job.name;
        }
    }
    return os.str();
}

void PlannerService::store_plan(const std::string& handle, workload::Workload workload,
                                core::TieringPlan plan, bool reuse_aware) {
    std::shared_ptr<StoredPlan> entry;
    {
        LockGuard lock(store_mutex_);
        auto& slot = plans_[handle];
        if (slot == nullptr) slot = std::make_shared<StoredPlan>();
        entry = slot;
    }
    LockGuard lock(entry->mu);
    entry->workload = std::move(workload);
    entry->plan = std::move(plan);
    entry->reuse_aware = reuse_aware;
}

std::optional<StoredPlanView> PlannerService::stored_plan(const std::string& handle) const {
    std::shared_ptr<StoredPlan> entry;
    {
        LockGuard lock(store_mutex_);
        const auto it = plans_.find(handle);
        if (it == plans_.end()) return std::nullopt;
        entry = it->second;
    }
    LockGuard lock(entry->mu);
    return StoredPlanView{entry->workload, entry->plan, entry->reuse_aware};
}

PlanResponse PlannerService::amend_direct(const PlanRequest& request, const Snapshot& snap,
                                          DegradationLevel level) {
    CAST_EXPECTS_MSG(level != DegradationLevel::kShed,
                     "kShed is a rejection, not a solver mode");
    if (!request.delta.has_value()) {
        throw ValidationError("amend request carries no delta");
    }
    std::shared_ptr<StoredPlan> entry;
    {
        LockGuard lock(store_mutex_);
        const auto it = plans_.find(request.plan_handle);
        if (it == plans_.end()) {
            throw ValidationError("amend references unknown plan handle '" +
                                  request.plan_handle + "'");
        }
        entry = it->second;
    }

    // The governor's ladder maps onto smaller neighborhoods rather than
    // fewer chains-of-everything: kTrimmed shrinks the per-member iteration
    // budget (the amend analogue of trim_iter_factor) and halves the
    // replica count; kGreedy skips annealing entirely — the irrevocable
    // online placement, the cheapest non-reject amend.
    core::AmendPolicy policy = options_.amend;
    if (level == DegradationLevel::kTrimmed) {
        const double f = options_.governor.trim_iter_factor;
        policy.iters_per_member = std::max(
            1, static_cast<int>(static_cast<double>(policy.iters_per_member) * f));
        policy.min_iters =
            std::max(1, static_cast<int>(static_cast<double>(policy.min_iters) * f));
        policy.max_iters = std::max(policy.min_iters, static_cast<int>(static_cast<double>(
                                                          policy.max_iters) * f));
        policy.chains = std::max(1, policy.chains / 2);
    } else if (level == DegradationLevel::kGreedy) {
        policy.greedy_only = true;
    }
    core::CastOptions opts = request_options(options_, request, &cancel_);
    options_.governor.apply(level, opts);  // trims any escalated cold solve too

    PlanResponse resp;
    resp.id = request.id;
    resp.kind = request.kind;
    resp.snapshot_epoch = snap.epoch();
    resp.degradation_level = level;

    // Hold the entry lock across the solve: amendments to one handle are a
    // chain (each builds on the last), so per-handle serialization is the
    // semantics, not an implementation accident. Other handles — and every
    // batch/workflow request — proceed in parallel.
    LockGuard lock(entry->mu);
    const core::IncrementalSolver solver(snap.models(), opts, policy, entry->reuse_aware);
    core::AmendResult amended = solver.amend(entry->workload, entry->plan, *request.delta,
                                             /*pool=*/nullptr, &snap.cache());
    inst_->record_amend(amended);

    entry->workload = amended.workload;
    entry->plan = amended.plan;

    core::CastResult carrier;
    carrier.plan = std::move(amended.plan);
    carrier.evaluation = std::move(amended.evaluation);
    carrier.iterations = amended.iterations;
    carrier.cache_stats = amended.cache_stats;
    carrier.budget_exhausted = amended.budget_exhausted;
    carrier.tempering = amended.tempering;
    resp.batch = std::move(carrier);
    resp.neighborhood_size = amended.neighborhood.size();
    resp.escalated_cold = amended.escalated_cold;
    resp.status = ResponseStatus::kOk;
    return resp;
}

PlanResponse PlannerService::solve_direct(const Snapshot& snapshot, const PlanRequest& request,
                                          const ServiceOptions& options,
                                          const CancelToken* cancel, DegradationLevel level) {
    CAST_EXPECTS_MSG(level != DegradationLevel::kShed,
                     "kShed is a rejection, not a solver mode");
    CAST_EXPECTS_MSG(request.kind != RequestKind::kAmend,
                     "amend requests need the service's plan store; submit() them");
    PlanResponse resp;
    resp.id = request.id;
    resp.kind = request.kind;
    resp.snapshot_epoch = snapshot.epoch();
    resp.degradation_level = level;
    core::CastOptions opts = request_options(options, request, cancel);
    options.governor.apply(level, opts);  // kFull/kGreedy: no-op
    if (request.kind == RequestKind::kBatch) {
        core::EvalCache& cache = snapshot.cache();
        CAST_EXPECTS_MSG(request.workload.has_value(), "batch request carries no workload");
        if (level == DegradationLevel::kGreedy) {
            resp.batch = core::plan_cast_greedy(snapshot.models(), *request.workload, opts,
                                                request.reuse_aware, &cache);
        } else if (request.reuse_aware) {
            resp.batch = core::plan_cast_plus_plus(snapshot.models(), *request.workload,
                                                   opts, nullptr, &cache);
        } else {
            resp.batch =
                core::plan_cast(snapshot.models(), *request.workload, opts, nullptr, &cache);
        }
    } else {
        CAST_EXPECTS_MSG(request.workflow.has_value(), "workflow request carries no workflow");
        // Memo scope: workflow keys (job content x provisioned capacity)
        // almost never recur across requests, so the solve memoizes into
        // its own table, freed with the solve, rather than growing the
        // snapshot cache without bound.
        const core::WorkflowEvaluator evaluator(snapshot.models(), *request.workflow);
        const core::WorkflowSolver solver(evaluator, opts.annealing,
                                          options.workflow_deadline_safety);
        resp.workflow = level == DegradationLevel::kGreedy ? solver.solve_greedy()
                                                           : solver.solve(nullptr);
    }
    resp.status = ResponseStatus::kOk;
    return resp;
}

}  // namespace cast::serve
