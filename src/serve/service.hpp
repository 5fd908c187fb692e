// Multi-tenant planning service: the serving layer over the CAST solvers.
//
// The one-shot pipeline (cast_plan) pays the full cold cost per request:
// load models, build a fresh EvalCache, solve, exit. PlannerService keeps
// a long-lived process warm instead:
//
//   * requests are admitted through a bounded priority queue (reject on
//     overflow = explicit backpressure, never unbounded memory),
//   * a dispatcher thread pops them in batches, coalesces identical
//     requests (popular-template replay solves once, everyone gets the
//     bits), and fans the unique solves over the work-stealing ThreadPool,
//   * every solve runs against the current immutable Snapshot; batch and
//     amend solves memoize into its snapshot-scoped EvalCache, so REG
//     runtimes computed for request N are free for request N+1
//     (bit-identical by EvalCache's contract), while workflow solves,
//     whose keys do not recur across requests, get a table scoped to the
//     solve,
//   * per-request wall budgets and a service CancelToken make every solve
//     boundable: exhaustion returns the best-so-far feasible plan flagged
//     budget_exhausted, never an error.
//
// Determinism: the service calls the exact same plan_cast /
// plan_cast_plus_plus / WorkflowSolver::solve facades a direct caller
// would, with pool=nullptr inside the worker (chains sequential per
// request). Since solvers are deterministic and the cache is
// bit-transparent, a response is bit-identical to the direct solve of the
// same request, regardless of worker count, queue order, cache warmth, or
// a snapshot swap racing other requests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/cancel.hpp"
#include "common/mpmc_queue.hpp"
#include "common/retry.hpp"
#include "common/thread_pool.hpp"
#include "core/castpp.hpp"
#include "core/incremental.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/faults.hpp"
#include "serve/governor.hpp"
#include "serve/snapshot.hpp"
#include "workload/workflow.hpp"

namespace cast::serve {

/// Queue levels, highest first (level 0 drains before level 1, §BoundedPriorityQueue).
enum class Priority : std::size_t { kHigh = 0, kNormal = 1, kLow = 2 };

/// Wire-stable lowercase name ("high" / "normal" / "low"); appears in
/// metric names (serve.latency_ms.<priority>) and trace span labels.
[[nodiscard]] const char* priority_name(Priority priority);

enum class RequestKind { kBatch, kWorkflow, kAmend };

struct PlanRequest {
    std::uint64_t id = 0;
    RequestKind kind = RequestKind::kBatch;
    /// Exactly one of the two, matching `kind`.
    std::optional<workload::Workload> workload;
    std::optional<workload::Workflow> workflow;
    /// Batch requests: plain CAST vs CAST++ Enhancement 1.
    bool reuse_aware = false;
    /// Overrides the service's solver seed when set (golden tests pin it).
    std::optional<std::uint64_t> seed;
    /// Per-request wall budget (ms); 0 inherits the service default, and a
    /// default of 0 means unbudgeted.
    double max_wall_ms = 0.0;
    /// Caller's end-to-end deadline (ms from submit); 0 = none. With the
    /// governor's deadline admission on, a request whose predicted queue
    /// wait already exceeds this is shed instead of solved-then-ignored.
    double deadline_ms = 0.0;
    Priority priority = Priority::kNormal;
    /// Plan-store handle. On a batch request: when non-empty, the solved
    /// (workload, plan) is stored under this handle after an ok solve, so
    /// later amend requests can build on it. On an amend request: names the
    /// stored plan to amend (required). Ignored for workflows.
    std::string plan_handle;
    /// Amend requests only: the job-set delta (arrivals / departures /
    /// re-estimates) to apply to the stored plan.
    std::optional<workload::JobDelta> delta;
};

enum class ResponseStatus {
    kOk,        ///< solved (possibly budget_exhausted — still a plan)
    kRejected,  ///< backpressure: queue full or service shutting down
    kError,     ///< the solve itself threw (e.g. lint rejection)
};

struct PlanResponse {
    std::uint64_t id = 0;
    /// Echo of the request's kind — set on every path, including sheds and
    /// errors where neither result below is populated.
    RequestKind kind = RequestKind::kBatch;
    ResponseStatus status = ResponseStatus::kError;
    std::string error;
    /// Batch result (kind == kBatch); carries plan, evaluation, iteration
    /// counters, cache stats and the budget flag. Amend results (kind ==
    /// kAmend) reuse this carrier: plan/evaluation are the amended plan
    /// over the post-delta job set.
    std::optional<core::CastResult> batch;
    /// Workflow result (kind == kWorkflow).
    std::optional<core::WorkflowSolveResult> workflow;
    /// Epoch of the snapshot this request was solved against.
    std::uint64_t snapshot_epoch = 0;
    /// True when this response was shared from an identical request solved
    /// in the same dispatch (bit-identical by solver determinism — the
    /// duplicate would have computed exactly these bits).
    bool coalesced = false;
    /// Ladder level this response was served at (kFull when the governor is
    /// idle; kShed on a governor/deadline rejection).
    DegradationLevel degradation_level = DegradationLevel::kFull;
    /// Solve attempts consumed (> 1 means the retry wrapper recovered from
    /// at least one exception).
    int attempts = 1;
    double queue_ms = 0.0;
    double solve_ms = 0.0;
    /// Amend responses: jobs the restricted move generator was allowed to
    /// touch (0 on every other kind, and when the delta needed no search).
    std::size_t neighborhood_size = 0;
    /// Amend responses: the escalation rule replaced the restricted solve
    /// with a full unrestricted re-solve.
    bool escalated_cold = false;

    [[nodiscard]] bool ok() const { return status == ResponseStatus::kOk; }
    [[nodiscard]] bool budget_exhausted() const {
        if (batch) return batch->budget_exhausted;
        if (workflow) return workflow->budget_exhausted;
        return false;
    }
};

/// Observability switches. The metrics registry is always on (its
/// counters are the service's only event counts, see ServiceStats), so
/// tracing is the one opt-in: it adds one short ring-mutex critical
/// section per request. Neither ever changes a solve bit.
struct ObservabilityOptions {
    /// No-op: nothing reads it. Kept only so the perfbench sources, which
    /// assign it, still compile.
    bool metrics = false;
    /// Completed trace spans to ring-buffer; 0 disables tracing entirely.
    std::size_t trace_capacity = 0;
};

struct ServiceOptions {
    /// Solver pool size (the dispatcher thread is extra).
    std::size_t workers = ThreadPool::default_workers();
    /// Admission-queue bound; try_push beyond it rejects (backpressure).
    std::size_t queue_capacity = 256;
    /// Max requests coalesced into one dispatch: they share one snapshot
    /// capture and fan out over the pool together.
    std::size_t max_batch = 16;
    /// Default per-request wall budget (ms); 0 = unbudgeted.
    double default_max_wall_ms = 0.0;
    /// Solver configuration applied to every request (seed and budget are
    /// overridden per request).
    core::CastOptions solver;
    /// WorkflowSolver deadline-safety margin (Eq. 9 headroom).
    double workflow_deadline_safety = 1.0;
    /// Incremental re-planning policy applied to amend requests (the
    /// governor's trimmed/greedy rungs shrink it further per request).
    core::AmendPolicy amend;
    /// Solve identical requests landing in one dispatch once and share the
    /// response (popular-template replay dedup). Safe because solves are
    /// deterministic functions of (request, snapshot, options).
    bool coalesce_identical = true;
    /// Overload governor; disabled by default, which leaves every response
    /// bit-identical to an ungoverned service.
    GovernorOptions governor;
    /// Serve-layer fault injection; the zero profile (default) injects
    /// nothing and is bit-identical to an uninstrumented service.
    ServeFaultProfile faults;
    /// Tracing (default off); the metrics registry needs no switch.
    ObservabilityOptions obs;
};

/// The service's registry counters (serve.*, solver.incremental.*) read
/// into one struct, plus the live snapshot's cache statistics.
struct ServiceStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;         ///< dispatches (pop_batch groups)
    std::uint64_t coalesced = 0;       ///< responses shared from a duplicate
    std::uint64_t snapshot_swaps = 0;  ///< swap_snapshot calls
    // Governor ladder counters: how many representative solves ran at each
    // level, and how many requests were shed before any solve.
    std::uint64_t served_full = 0;
    std::uint64_t served_trimmed = 0;
    std::uint64_t served_greedy = 0;
    std::uint64_t governor_shed = 0;   ///< load-shed at dispatch (ladder level 3)
    std::uint64_t deadline_shed = 0;   ///< provably-late drops (admission/dispatch)
    // Incremental re-planning counters (amend requests only).
    std::uint64_t amend_requests = 0;     ///< amends that returned a plan
    std::uint64_t amend_escalations = 0;  ///< amends escalated to a full cold re-solve
    std::uint64_t amend_greedy = 0;       ///< amends served on the greedy-only rung
    // Fault-survival counters.
    std::uint64_t solve_retries = 0;      ///< extra attempts after an exception
    std::uint64_t breaker_fastfail = 0;   ///< requests refused by an open breaker
    std::uint64_t breaker_trips = 0;      ///< breaker open transitions (all breakers)
    std::uint64_t swap_clears_suppressed = 0;  ///< storm-guarded cache clears skipped
    double ewma_solve_ms = 0.0;        ///< governor's latency estimate
    /// False until the EWMA has absorbed its first solve sample: a 0.0
    /// estimate right after startup or a pure shed burst is "no evidence",
    /// not "instant solves" — readers must check this before trusting
    /// ewma_solve_ms (and deadline admission cannot fire while false).
    bool ewma_seeded = false;
    core::EvalCacheStats cache;        ///< current snapshot's memo table
    ServeFaultStats faults;            ///< what the injector actually did
};

/// A consistent copy of one stored plan (see PlannerService::stored_plan).
struct StoredPlanView {
    workload::Workload workload;
    core::TieringPlan plan;
    bool reuse_aware = false;
};

class PlannerService {
public:
    PlannerService(SnapshotPtr snapshot, ServiceOptions options = {});

    PlannerService(const PlannerService&) = delete;
    PlannerService& operator=(const PlannerService&) = delete;

    /// Closes admission, drains queued work (unless cancel_inflight() was
    /// called), and joins the dispatcher and pool.
    ~PlannerService();

    /// Enqueue a request. Always returns a future: on admission it resolves
    /// when the solve finishes; on overflow/shutdown it is already resolved
    /// with kRejected. Never blocks on a full queue — backpressure is the
    /// caller's signal to slow down.
    [[nodiscard]] std::future<PlanResponse> submit(PlanRequest request);

    /// Install a new snapshot. In-flight requests keep the snapshot they
    /// were dispatched with (refcount); later dispatches see the new one.
    /// The outgoing snapshot's cache is cleared, bumping its generation so
    /// any thread-local L1 entries die with it.
    void swap_snapshot(SnapshotPtr next) CAST_EXCLUDES(snapshot_mutex_);

    [[nodiscard]] SnapshotPtr snapshot() const CAST_EXCLUDES(snapshot_mutex_);

    /// Cooperative cancellation of everything in flight *and* everything
    /// still queued: each solve stops at its next segment boundary and
    /// returns its best-so-far feasible plan flagged budget_exhausted.
    /// The token latches — this is a fast-drain shutdown aid, not a
    /// per-request cancel.
    void cancel_inflight();

    [[nodiscard]] ServiceStats stats() const;
    [[nodiscard]] const ServiceOptions& options() const { return options_; }

    /// Consistent copy of the plan currently stored under `handle` (written
    /// by a batch request carrying plan_handle, advanced by every ok amend);
    /// nullopt when no such handle exists.
    [[nodiscard]] std::optional<StoredPlanView> stored_plan(const std::string& handle) const
        CAST_EXCLUDES(store_mutex_);

    /// The service's metrics registry: every serve.* and solver.* instrument,
    /// registered at construction (stats() reads the same counters). Pull
    /// gauges registered here read live service state, so an export taken
    /// mid-burst shows the burst.
    [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }

    /// Buffered trace spans, oldest first (empty unless
    /// options().obs.trace_capacity > 0).
    [[nodiscard]] std::vector<obs::TraceSpan> trace_spans() const {
        return trace_.snapshot();
    }
    [[nodiscard]] const obs::TraceRing& trace_ring() const { return trace_; }

    /// Solve `request` directly against `snapshot` with no queue, no pool
    /// and no shared cache side effects beyond the snapshot's own — the
    /// serial baseline path, also used by the golden tests as the ground
    /// truth the service must match bit-for-bit. `level` selects the
    /// degradation ladder rung to solve at (kFull = the PR 5 behavior;
    /// kShed never reaches a solver and is rejected here). Amend requests
    /// are rejected too: they need the service's plan store.
    [[nodiscard]] static PlanResponse solve_direct(
        const Snapshot& snapshot, const PlanRequest& request,
        const ServiceOptions& options, const CancelToken* cancel = nullptr,
        DegradationLevel level = DegradationLevel::kFull);

private:
    struct Pending {
        PlanRequest request;
        std::promise<PlanResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    void dispatcher_loop();
    void dispatch_batch(std::vector<std::unique_ptr<Pending>>& batch);
    /// Compute the response at the given ladder level, surviving injected
    /// and real solver exceptions via the retry/breaker wrapper (never
    /// throws; terminal faults become kError). Timing fields are the
    /// caller's to fill.
    [[nodiscard]] PlanResponse solve_request(const PlanRequest& request,
                                             const Snapshot& snap,
                                             DegradationLevel level);
    /// Amend path: look up the stored plan, run the IncrementalSolver with
    /// the governor's rung mapped onto a smaller neighborhood budget
    /// (kTrimmed) or the greedy-only policy (kGreedy), and advance the
    /// store on success. Throws (ValidationError on unknown handle /
    /// missing delta); solve_request's retry wrapper converts to kError.
    [[nodiscard]] PlanResponse amend_direct(const PlanRequest& request, const Snapshot& snap,
                                            DegradationLevel level)
        CAST_EXCLUDES(store_mutex_);
    /// Store (or overwrite) a plan under `handle` (batch requests carrying
    /// plan_handle call this after an ok solve).
    void store_plan(const std::string& handle, workload::Workload workload,
                    core::TieringPlan plan, bool reuse_aware) CAST_EXCLUDES(store_mutex_);
    /// Per-template breaker lookup (governor path only); the map is bounded
    /// and evicts wholesale when it outgrows kMaxBreakers. Shared ownership
    /// because an eviction may race a worker mid-solve with its breaker.
    [[nodiscard]] std::shared_ptr<CircuitBreaker> breaker_for(const std::string& key)
        CAST_EXCLUDES(breaker_mutex_);
    /// Fulfill one pending with its response, maintaining the
    /// completed/rejected/errors counters (a dispatch-time shed counts as
    /// rejected, not completed).
    void fulfill(Pending& pending, PlanResponse&& resp);
    /// Coalescing identity: kind, solver-relevant options, and the full
    /// workload/workflow content (spec serialization + job names).
    [[nodiscard]] static std::string dedup_key(const PlanRequest& request);

    /// Pre-resolved instrument references: the event counters, latency
    /// histograms, and the per-rung / per-replica tempering instruments.
    struct Instruments;
    /// Register the serve.* pull gauges (queue depth, in-flight, EWMA,
    /// cache stats, breaker states) against live service state. Called
    /// once from the constructor, before the dispatcher starts.
    void register_gauges();
    /// Breaker aggregates for the pull gauges.
    [[nodiscard]] double open_breaker_count() const CAST_EXCLUDES(breaker_mutex_);
    [[nodiscard]] std::uint64_t total_breaker_trips() const CAST_EXCLUDES(breaker_mutex_);
    /// Push a span for one fulfilled response (no-op when tracing is off).
    /// `enqueued`/`dispatched` stamp the admit/dequeue events; `solved` is
    /// unset for sheds, which never reach a solver.
    void trace_response(const PlanRequest& request, const PlanResponse& resp,
                        std::chrono::steady_clock::time_point enqueued,
                        std::optional<std::chrono::steady_clock::time_point> dispatched,
                        std::optional<std::chrono::steady_clock::time_point> solved,
                        const std::string& note);

    ServiceOptions options_;
    mutable Mutex snapshot_mutex_;
    SnapshotPtr snapshot_ CAST_GUARDED_BY(snapshot_mutex_);

    /// Observability state. The registry/ring own their synchronization;
    /// inst_ is resolved in the constructor, never null, and only read
    /// afterwards.
    obs::MetricsRegistry metrics_;
    obs::TraceRing trace_;
    const std::unique_ptr<Instruments> inst_;

    BoundedPriorityQueue<std::unique_ptr<Pending>> queue_;
    ThreadPool pool_;
    CancelToken cancel_;
    OverloadGovernor governor_;
    ServeFaultInjector injector_;

    /// Requests popped from the queue whose response is not yet fulfilled;
    /// feeds the governor's backlog estimate together with queue depth.
    std::atomic<std::size_t> in_flight_{0};

    /// Plan store for amend requests. Two-level locking: store_mutex_
    /// guards the handle map only; each entry carries its own mutex held
    /// for the whole amend, so amendments to one handle serialize (each
    /// builds on the previous plan) while different handles amend in
    /// parallel. Entries are shared_ptr so a map rehash never moves a
    /// locked entry.
    struct StoredPlan {
        mutable Mutex mu;
        workload::Workload workload CAST_GUARDED_BY(mu);
        core::TieringPlan plan CAST_GUARDED_BY(mu);
        bool reuse_aware CAST_GUARDED_BY(mu) = false;
    };
    mutable Mutex store_mutex_;
    std::unordered_map<std::string, std::shared_ptr<StoredPlan>> plans_
        CAST_GUARDED_BY(store_mutex_);

    static constexpr std::size_t kMaxBreakers = 256;
    mutable Mutex breaker_mutex_;
    std::unordered_map<std::string, std::shared_ptr<CircuitBreaker>> breakers_
        CAST_GUARDED_BY(breaker_mutex_);
    /// Trips carried over from evicted breakers so stats stay monotonic.
    std::uint64_t evicted_breaker_trips_ CAST_GUARDED_BY(breaker_mutex_) = 0;
    /// Swap-storm guard state. The breaker is internally synchronized (it
    /// sits below every service mutex in the lock hierarchy); the storm
    /// detector's timestamps share the snapshot mutex because they are only
    /// touched inside swap_snapshot's swap critical section.
    CircuitBreaker swap_breaker_;
    std::chrono::steady_clock::time_point last_swap_ CAST_GUARDED_BY(snapshot_mutex_){};
    bool any_swap_ CAST_GUARDED_BY(snapshot_mutex_) = false;

    /// Started last: everything it touches must already be constructed.
    std::thread dispatcher_;
};

}  // namespace cast::serve
