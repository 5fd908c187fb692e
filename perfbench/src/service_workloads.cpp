// The three workloads that drive a long-lived PlannerService.
//
// All of them run the service as an operator would (nproc-1 solver
// workers, metrics on, trace ring off) in a timed run. A traced run splits
// the window: the first half repeats the timed configuration, the second
// half runs a fresh snapshot and a service with its trace ring on, records
// a submit->ready span per request with children built from the
// response's queue_ms and solve_ms, and then calls the layers below the
// service directly on the same inputs.
//
//   amend_stream       3 plan handles, each a sequence of 10%-churn amend
//                      streams, one outstanding per handle (closed loop).
//   workflow_deadline  Fig. 9 deadline workflows, 3 outstanding (closed).
//   template_replay    Zipf-popular small templates under a seeded Poisson
//                      open loop at a fixed ladder of rates, interactive
//                      solver tier.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <list>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "core/deployer.hpp"
#include "core/incremental.hpp"
#include "harness.hpp"
#include "lint/analyzer.hpp"
#include "workload/facebook.hpp"
#include "workload/spec_parser.hpp"
#include "workload/stream.hpp"

namespace castbench {

using namespace cast;

namespace {

/// Plan handles (amend_stream) and outstanding requests (workflow_deadline).
constexpr std::size_t kClients = 3;
constexpr std::size_t kTraceCapacity = 4096;

std::size_t service_workers() { return std::max<std::size_t>(1, host_threads() - 1); }

serve::ServiceOptions service_options(bool traced) {
    serve::ServiceOptions o;
    o.workers = service_workers();
    // Large enough that the open loop never meets backpressure: overload
    // shows as a growing backlog, not as rejections.
    o.queue_capacity = std::size_t{1} << 16;
    o.obs.metrics = true;
    o.obs.trace_capacity = traced ? kTraceCapacity : 0;
    return o;
}

/// One service request as the client observed it.
struct Sample {
    std::uint64_t request = 0;
    /// Open loop: when the schedule said to send. Closed loop: the submit.
    Clock::time_point due;
    Clock::time_point submitted;
    Clock::time_point ready;
    bool ok = false;
    double queue_ms = 0.0;
    double solve_ms = 0.0;
    bool coalesced = false;

    [[nodiscard]] double latency_ms() const { return ms_between(due, ready); }
    /// End-to-end time the service's own two fields do not account for.
    [[nodiscard]] double overhead_ms() const {
        return ms_between(submitted, ready) - queue_ms - solve_ms;
    }
};

void fill_from_response(Sample& s, const serve::PlanResponse& resp) {
    s.ok = resp.ok();
    s.queue_ms = resp.queue_ms;
    s.solve_ms = resp.solve_ms;
    s.coalesced = resp.coalesced;
}

struct PhaseResult {
    std::vector<Sample> samples;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t failed = 0;  ///< rejected, errored or failed an output check
    serve::ServiceStats stats;
};

std::vector<double> latencies(const std::vector<Sample>& samples) {
    std::vector<double> out;
    for (const Sample& s : samples) {
        if (s.ok) out.push_back(s.latency_ms());
    }
    return out;
}

std::uint64_t ok_count(const std::vector<Sample>& samples) {
    return static_cast<std::uint64_t>(
        std::count_if(samples.begin(), samples.end(), [](const Sample& s) { return s.ok; }));
}

/// submit->ready span per request, children from queue_ms and solve_ms.
void record_service_spans(const std::vector<Sample>& samples, SpanRecorder& spans) {
    const auto at = [](Clock::time_point t, double ms) {
        return t + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
    };
    for (const Sample& s : samples) {
        const std::uint64_t root = spans.add("request", s.request, 0, s.submitted, s.ready);
        const Clock::time_point dequeued = at(s.submitted, s.queue_ms);
        spans.add("serve.queue", s.request, root, s.submitted, dequeued);
        spans.add("serve.solve", s.request, root, dequeued, at(dequeued, s.solve_ms));
    }
}

void fill_serve_layers(const PhaseResult& phase, LayerMetrics& layers) {
    std::vector<double> queue;
    std::vector<double> solve;
    std::vector<double> overhead;
    for (const Sample& s : phase.samples) {
        if (!s.ok) continue;
        queue.push_back(s.queue_ms);
        if (!s.coalesced) solve.push_back(s.solve_ms);
        overhead.push_back(s.overhead_ms());
    }
    layers.queue_ms = median_of(queue);
    layers.solve_ms = median_of(solve);
    layers.overhead_ms = median_of(overhead);
    const serve::ServiceStats& st = phase.stats;
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    layers.coalesced_ratio = {ratio(st.coalesced, st.completed), st.completed};
    layers.batch_size_mean = {ratio(st.submitted, st.batches), st.batches};
    layers.serve_cache_hit_ratio = {st.cache.hit_rate(), st.cache.lookups()};
    layers.rejected = {static_cast<double>(st.rejected), st.submitted};
}

/// Export the service's own trace ring, one span per line.
void write_service_trace(const serve::PlannerService& service, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    for (const obs::TraceSpan& span : service.trace_spans()) {
        std::string label = span.label.substr(0, 48);
        out << "{\"id\":" << span.id << ",\"label\":" << json_string(label)
            << ",\"outcome\":" << json_string(span.outcome) << ",\"events\":[";
        for (std::size_t i = 0; i < span.events.size(); ++i) {
            const obs::TraceEvent& e = span.events[i];
            out << (i ? "," : "") << "{\"name\":" << json_string(e.name)
                << ",\"at_ms\":" << e.at_ms << ",\"detail\":" << json_string(e.detail) << "}";
        }
        out << "]}\n";
    }
}

/// The trace-overhead figure: traced half's median latency against the
/// untraced half's, in percent.
LayerValue overhead_pct(const std::vector<Sample>& plain, const std::vector<Sample>& traced) {
    const std::vector<double> a = latencies(plain);
    const std::vector<double> b = latencies(traced);
    if (a.empty() || b.empty()) return {};
    return {(percentile(b, 50.0) / percentile(a, 50.0) - 1.0) * 100.0, b.size()};
}

/// Run `client(c, window_end)` on kClients threads and time the whole
/// phase. A client stops once `window_end` has passed and the phase has
/// issued kMinSamples requests. An exception in a client is rethrown here
/// after every thread has joined.
template <typename Client>
void run_clients(PhaseResult& phase, double seconds, Client&& client) {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const auto window_end =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<std::exception_ptr> errors(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                client(c, window_end);
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    phase.wall_s = seconds_since(t0);
    phase.cpu_s = process_cpu_seconds() - cpu0;
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

// ===========================================================================
// amend_stream
// ===========================================================================

/// Each handle runs a sequence of segments: a fresh Facebook workload,
/// seeded by a cold batch solve that is not sampled, then kSegmentSteps
/// amends at 10% churn. Amend latency is bimodal (small neighborhoods
/// against capacity-shift neighborhoods), so its median moves with the mix
/// of workloads a run draws; three handles on one workload each give a run
/// three workloads, segments give a 40-second run about two dozen.
constexpr int kSegmentSteps = 64;
/// Segments generated per handle, about twice what a 40-second run uses on
/// a 4-vCPU host; a handle that runs out ends its part of the window early.
constexpr std::size_t kSegments = 16;
/// The quality figures cover the first kAmendQualitySteps amends of each
/// handle's first kAmendQualitySegments segments (every run completes them)
/// and deploy kAmendDeployed of them; a timed run also replays
/// kAmendReplaysPerHandle amends of each handle's first segment through a
/// direct IncrementalSolver::amend.
constexpr std::size_t kAmendQualitySegments = 4;
constexpr std::size_t kAmendQualitySteps = 16;
constexpr std::size_t kAmendQuality = kClients * kAmendQualitySegments * kAmendQualitySteps;
constexpr std::size_t kAmendDeployed = 12;
constexpr std::size_t kAmendReplaysPerHandle = 2;

/// Position of an amend in the quality subset, or kAmendQuality outside it.
std::size_t quality_index(std::size_t handle, std::size_t segment, std::size_t step) {
    if (segment >= kAmendQualitySegments || step >= kAmendQualitySteps) return kAmendQuality;
    return (handle * kAmendQualitySegments + segment) * kAmendQualitySteps + step;
}

std::string handle_name(std::size_t h) { return "handle-" + std::to_string(h); }

struct AmendSegment {
    workload::Workload initial;
    std::vector<workload::JobDelta> stream;
};

/// segments[h][g]: handle h's g-th segment.
struct AmendInputs {
    std::vector<std::vector<AmendSegment>> segments;
};

AmendInputs make_amend_inputs(std::uint64_t seed) {
    AmendInputs in;
    workload::StreamOptions opts;
    opts.steps = kSegmentSteps;
    opts.churn = 0.10;
    in.segments.resize(kClients);
    for (std::size_t h = 0; h < kClients; ++h) {
        for (std::size_t g = 0; g < kSegments; ++g) {
            const std::uint64_t salt = kSegments * h + g;
            AmendSegment seg;
            seg.initial = workload::synthesize_facebook_workload(mix_seed(seed, 1000 + salt));
            seg.stream = workload::synthesize_stream(seg.initial, mix_seed(seed, 2000 + salt), opts);
            in.segments[h].push_back(std::move(seg));
        }
    }
    return in;
}

/// One amend kept for a direct replay or a deployment.
struct AmendRecord {
    std::size_t handle = 0;
    std::size_t segment = 0;
    std::size_t step = 0;
    workload::Workload prior;
    core::TieringPlan prior_plan;
    workload::Workload next;
    core::TieringPlan plan;
    core::PlanEvaluation evaluation;

    [[nodiscard]] const workload::JobDelta& delta(const AmendInputs& in) const {
        return in.segments[handle][segment].stream[step];
    }
};

struct AmendPhase : PhaseResult {
    std::vector<AmendRecord> kept;
    /// Each handle's first seeding plan.
    std::vector<core::TieringPlan> seeded_plans;
};

/// Store `workload`'s cold CAST++ plan under handle `h` (a batch request
/// carrying the handle).
std::future<serve::PlanResponse> submit_seed(serve::PlannerService& service, std::size_t h,
                                             const workload::Workload& workload,
                                             std::uint64_t id) {
    serve::PlanRequest req;
    req.id = id;
    req.kind = serve::RequestKind::kBatch;
    req.workload = workload;
    req.reuse_aware = true;
    req.plan_handle = handle_name(h);
    return service.submit(std::move(req));
}

bool seed_ok(const model::PerfModelSet& models, const workload::Workload& workload,
             const serve::PlanResponse& resp) {
    return resp.ok() &&
           batch_plan_checks(models, workload, resp.batch->plan, resp.batch->evaluation);
}

/// Seed every handle's first segment (warm-up, not sampled), then stream
/// amends, one outstanding per handle, until the window closes.
/// `keep(h, segment, step)` selects the amends kept for replays and
/// deployments.
template <typename Keep>
AmendPhase run_amend_phase(serve::PlannerService& service, const model::PerfModelSet& models,
                           const AmendInputs& in, double seconds, Keep&& keep) {
    AmendPhase phase;
    std::atomic<std::uint64_t> next_id{1};
    std::vector<std::future<serve::PlanResponse>> seeding;
    for (std::size_t h = 0; h < kClients; ++h) {
        seeding.push_back(submit_seed(service, h, in.segments[h][0].initial, next_id++));
    }
    for (std::size_t h = 0; h < kClients; ++h) {
        const serve::PlanResponse resp = seeding[h].get();
        if (!seed_ok(models, in.segments[h][0].initial, resp)) {
            throw std::runtime_error("amend_stream: seeding solve of " + handle_name(h) +
                                     " failed: " + resp.error);
        }
        phase.seeded_plans.push_back(resp.batch->plan);
    }

    std::vector<std::vector<Sample>> samples(kClients);
    std::vector<std::vector<AmendRecord>> kept(kClients);
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::size_t> amends_issued{0};
    run_clients(phase, seconds, [&](std::size_t h, Clock::time_point window_end) {
        const std::vector<AmendSegment>& segments = in.segments[h];
        std::size_t g = 0;
        workload::Workload current = segments[0].initial;
        core::TieringPlan current_plan = phase.seeded_plans[h];
        // The previous amend's output check runs while the next amend is in
        // flight, so checking never delays the closed loop.
        std::optional<AmendRecord> unchecked;
        const auto check = [&](const AmendRecord& r) {
            if (!batch_plan_checks(models, r.next, r.plan, r.evaluation)) {
                std::cerr << "amend_stream: " << handle_name(h) << " segment " << r.segment
                          << " step " << r.step << " failed its output check\n";
                failed.fetch_add(1);
            }
        };
        for (std::size_t k = 0;; ++k) {
            const bool quality_done =
                g >= kAmendQualitySegments ||
                (g + 1 == kAmendQualitySegments && k >= kAmendQualitySteps);
            if (quality_done && amends_issued.load() >= kMinSamples &&
                Clock::now() >= window_end) {
                break;
            }
            if (k == segments[g].stream.size()) {
                if (++g == segments.size()) break;
                const serve::PlanResponse resp =
                    submit_seed(service, h, segments[g].initial, next_id++).get();
                if (!seed_ok(models, segments[g].initial, resp)) {
                    std::cerr << "amend_stream: reseeding " << handle_name(h) << " failed\n";
                    failed.fetch_add(1);
                    break;
                }
                current = segments[g].initial;
                current_plan = resp.batch->plan;
                k = 0;
            }
            const workload::JobDelta& delta = segments[g].stream[k];
            serve::PlanRequest req;
            req.id = next_id++;
            req.kind = serve::RequestKind::kAmend;
            req.plan_handle = handle_name(h);
            req.delta = delta;
            Sample s;
            s.request = req.id;
            s.due = s.submitted = Clock::now();
            amends_issued.fetch_add(1);
            std::future<serve::PlanResponse> fut = service.submit(std::move(req));
            workload::Workload next = workload::apply_delta(current, delta).workload;
            if (unchecked) check(*unchecked);
            unchecked.reset();
            const serve::PlanResponse resp = fut.get();
            s.ready = Clock::now();
            fill_from_response(s, resp);
            samples[h].push_back(s);
            if (!resp.ok()) {
                // The store did not advance; later deltas no longer apply.
                std::cerr << "amend_stream: " << handle_name(h) << " segment " << g << " step "
                          << k << ": " << resp.error << "\n";
                failed.fetch_add(1);
                break;
            }
            AmendRecord record{h,    g, k, std::move(current), std::move(current_plan), next,
                               resp.batch->plan, resp.batch->evaluation};
            if (keep(h, g, k)) kept[h].push_back(record);
            current = std::move(next);
            current_plan = resp.batch->plan;
            unchecked = std::move(record);
        }
        if (unchecked) check(*unchecked);
    });
    for (std::size_t h = 0; h < kClients; ++h) {
        phase.samples.insert(phase.samples.end(), samples[h].begin(), samples[h].end());
        for (AmendRecord& r : kept[h]) phase.kept.push_back(std::move(r));
    }
    phase.failed = failed.load();
    phase.stats = service.stats();
    return phase;
}

/// Replay one kept amend through IncrementalSolver::amend with the
/// service's options; true when the plan and evaluation match bit for bit.
bool replay_amend(const model::PerfModelSet& models, const serve::ServiceOptions& options,
                  const AmendInputs& in, const AmendRecord& r, core::EvalCache& cache,
                  SpanRecorder& spans, std::vector<core::AmendResult>* results) {
    const workload::JobDelta& delta = r.delta(in);
    const std::uint64_t root = spans.open("direct", r.step, 0);
    const core::IncrementalSolver solver(models, options.solver, options.amend, true);
    core::AmendResult result = spans.time("core.amend", r.step, root, [&] {
        return solver.amend(r.prior, r.prior_plan, delta, nullptr, &cache);
    });
    if (spans.enabled()) {
        // The escalation rule's deterministic greedy shadow of a cold solve
        // over the post-delta set, timed on its own.
        spans.time("core.amend_shadow", r.step, root, [&] {
            const core::PlanEvaluator evaluator(models, apply_delta(r.prior, delta).workload,
                                                core::EvalOptions{.reuse_aware = true});
            return core::greedy_projected_plan(evaluator, options.solver.greedy_init, true,
                                               &cache);
        });
    }
    spans.close(root);
    const bool same = same_plan(result.plan, r.plan) &&
                      same_evaluation(result.evaluation, r.evaluation);
    if (!same) {
        std::cerr << "amend_stream: " << handle_name(r.handle) << " segment " << r.segment
                  << " step " << r.step << " differs from a direct IncrementalSolver::amend\n";
    }
    if (results != nullptr) results->push_back(std::move(result));
    return same;
}

}  // namespace

bool run_amend_stream(const Args& args, Report& report) {
    SpanRecorder spans(args.trace);
    const serve::ServiceOptions options = service_options(false);
    SetupResult setup = run_setup(args, options, spans);
    const AmendInputs in = make_amend_inputs(args.seed);
    report.note("threads", "service workers " + std::to_string(options.workers) +
                               " + dispatcher, " + std::to_string(kClients) + " clients");
    report.note("loop", "closed, 1 outstanding amend per handle, 3 handles, 10% churn");

    // The quality amends are kept; a seeded few per handle are replayed
    // directly and a seeded subset is deployed.
    std::vector<std::vector<std::size_t>> replay_steps;
    for (std::size_t h = 0; h < kClients; ++h) {
        replay_steps.push_back(
            seeded_subset(mix_seed(args.seed, 3000 + h), kAmendQualitySteps, kAmendReplaysPerHandle));
    }
    const std::vector<std::size_t> deployed =
        seeded_subset(args.seed, kAmendQuality, kAmendDeployed);
    const auto is_deployed = [&](const AmendRecord& r) {
        return std::binary_search(deployed.begin(), deployed.end(),
                                  quality_index(r.handle, r.segment, r.step));
    };
    const auto is_replayed = [&](const AmendRecord& r) {
        return r.segment == 0 && std::binary_search(replay_steps[r.handle].begin(),
                                                    replay_steps[r.handle].end(), r.step);
    };

    const double plain_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    AmendPhase plain = run_amend_phase(*setup.service, *setup.models, in, plain_seconds,
                                       [](std::size_t h, std::size_t g, std::size_t k) {
                                           return quality_index(h, g, k) < kAmendQuality;
                                       });
    setup.service.reset();

    std::uint64_t failed = plain.failed;
    std::uint64_t attempted = plain.samples.size();
    core::EvalCache replay_cache;
    SpanRecorder no_spans(false);
    for (const AmendRecord& r : plain.kept) {
        if (!is_replayed(r)) continue;
        ++attempted;
        if (!replay_amend(*setup.models, options, in, r, replay_cache, no_spans, nullptr)) {
            ++failed;
        }
    }

    AmendPhase traced;
    LayerMetrics layers;
    if (args.trace) {
        const serve::ServiceOptions traced_options = service_options(true);
        serve::PlannerService service(serve::make_snapshot(*setup.models), traced_options);
        traced = run_amend_phase(service, *setup.models, in, args.seconds / 2.0,
                                 [](std::size_t, std::size_t, std::size_t) { return true; });
        write_service_trace(service, args.out_dir + "/service-trace-amend_stream.jsonl");
        record_service_spans(traced.samples, spans);
        failed += traced.failed;
        attempted += traced.samples.size();

        // Direct calls on the same inputs: each handle's first workload
        // through parse_spec of its spec text and the decomposed CAST++
        // pipeline (replicas on a pool of nproc workers), then every amend
        // of the traced half through IncrementalSolver::amend.
        SolveTally tally;
        core::EvalCache cold_cache;
        ThreadPool pool(host_threads());
        for (std::size_t h = 0; h < kClients; ++h) {
            const workload::Workload& initial = in.segments[h][0].initial;
            std::ostringstream text;
            workload::write_spec(initial, text);
            const std::uint64_t root = spans.open("direct", h, 0);
            spans.time("workload.parse", h, root, [&] {
                std::istringstream is(text.str());
                return workload::parse_spec(is);
            });
            const DecomposedPlan cold =
                decomposed_cast_plus_plus(*setup.models, initial, options.solver, &pool,
                                          host_threads(), cold_cache, spans, h, root, tally);
            spans.close(root);
            ++attempted;
            if (!same_plan(cold.plan, traced.seeded_plans[h])) {
                std::cerr << "amend_stream: decomposed seeding solve of " << handle_name(h)
                          << " differs from the service's\n";
                ++failed;
            }
        }
        std::vector<core::AmendResult> results;
        core::EvalCache amend_cache;
        for (const AmendRecord& r : traced.kept) {
            ++attempted;
            if (!replay_amend(*setup.models, options, in, r, amend_cache, spans, &results)) {
                ++failed;
            }
        }
        fill_setup_layers(setup, layers);
        layers.parse_ms = median_of(spans.self_ms_of("workload.parse"));
        tally.fill(spans, layers);
        layers.amend_ms = median_of(spans.self_ms_of("core.amend"));
        layers.amend_shadow_ms = median_of(spans.self_ms_of("core.amend_shadow"));
        std::vector<double> neighborhood;
        std::vector<double> iterations;
        std::size_t escalations = 0;
        for (const core::AmendResult& r : results) {
            neighborhood.push_back(static_cast<double>(r.neighborhood.size()));
            iterations.push_back(static_cast<double>(r.iterations));
            if (r.escalated_cold) ++escalations;
        }
        layers.amend_neighborhood_jobs = median_of(neighborhood);
        layers.amend_iterations = median_of(iterations);
        if (!results.empty()) {
            layers.amend_escalation_ratio = {
                static_cast<double>(escalations) / static_cast<double>(results.size()),
                results.size()};
        }
        fill_serve_layers(traced, layers);
        layers.coverage_ratio = {spans.coverage_ratio(), traced.samples.size()};
        layers.trace_overhead_pct = overhead_pct(plain.samples, traced.samples);
    }
    report.attempts(attempted, failed);

    EndToEnd e2e;
    e2e.setup = &setup;
    e2e.latencies_ms = latencies(plain.samples);
    e2e.ok_plans = ok_count(plain.samples);
    e2e.wall_s = plain.wall_s;
    e2e.cpu_s = plain.cpu_s;
    DeployTally deploys;
    for (const AmendRecord& r : plain.kept) {
        add_batch_quality(e2e, *setup.models, r.next, r.plan, r.evaluation, is_deployed(r),
                          deploys);
    }
    const bool complete = plain.kept.size() == kAmendQuality;
    add_end_to_end(report, e2e);
    if (args.trace) {
        deploys.fill(layers);
        finish_trace(report, layers, spans, args);
    }
    return complete && failed == 0;
}

// ===========================================================================
// workflow_deadline
// ===========================================================================

namespace {

/// The quality figures cover requests [0, kWorkflowQuality) (every run
/// completes them) and deploy kWorkflowDeployed of them; a traced run
/// re-solves the first kWorkflowDirect of them directly.
constexpr std::size_t kWorkflowQuality = kMinSamples;
constexpr std::size_t kWorkflowDirect = 16;
constexpr std::size_t kWorkflowDeployed = 10;

/// Request i's workflow: one of the five Fig. 9 workflows of a seeded
/// synthesis, so consecutive requests cycle through all five shapes.
workload::Workflow workflow_for(std::uint64_t seed, std::size_t i) {
    return workload::synthesize_deadline_workflows(mix_seed(seed, i / 5))[i % 5];
}

struct WorkflowRecord {
    workload::Workflow workflow;
    core::WorkflowPlan plan;
    core::WorkflowEvaluation evaluation;
};

struct WorkflowPhase : PhaseResult {
    /// Requests [0, kWorkflowQuality), indexed by request.
    std::vector<std::optional<WorkflowRecord>> quality;
};

WorkflowPhase run_workflow_phase(serve::PlannerService& service,
                                 const model::PerfModelSet& models, std::uint64_t seed,
                                 double seconds) {
    WorkflowPhase phase;
    phase.quality.resize(kWorkflowQuality);
    std::vector<std::vector<Sample>> samples(kClients);
    std::atomic<std::size_t> next_request{0};
    std::atomic<std::uint64_t> failed{0};
    std::mutex quality_mutex;
    run_clients(phase, seconds, [&](std::size_t c, Clock::time_point window_end) {
        std::optional<WorkflowRecord> unchecked;
        const auto check = [&](const WorkflowRecord& r) {
            if (!workflow_plan_checks(models, r.workflow, r.plan)) failed.fetch_add(1);
        };
        for (;;) {
            const std::size_t i = next_request++;
            if (i >= kMinSamples && Clock::now() >= window_end) break;
            workload::Workflow workflow = workflow_for(seed, i);
            serve::PlanRequest req;
            req.id = i + 1;
            req.kind = serve::RequestKind::kWorkflow;
            req.workflow = workflow;
            Sample s;
            s.request = req.id;
            s.due = s.submitted = Clock::now();
            std::future<serve::PlanResponse> fut = service.submit(std::move(req));
            if (unchecked) check(*unchecked);
            unchecked.reset();
            const serve::PlanResponse resp = fut.get();
            s.ready = Clock::now();
            fill_from_response(s, resp);
            samples[c].push_back(s);
            if (!resp.ok()) {
                std::cerr << "workflow_deadline: request " << i << ": " << resp.error << "\n";
                failed.fetch_add(1);
                continue;
            }
            WorkflowRecord record{std::move(workflow), resp.workflow->plan,
                                  resp.workflow->evaluation};
            if (i < kWorkflowQuality) {
                const std::lock_guard<std::mutex> lock(quality_mutex);
                phase.quality[i] = record;
            }
            unchecked = std::move(record);
        }
        if (unchecked) check(*unchecked);
    });
    for (const auto& s : samples) phase.samples.insert(phase.samples.end(), s.begin(), s.end());
    phase.failed = failed.load();
    phase.stats = service.stats();
    return phase;
}

}  // namespace

bool run_workflow_deadline(const Args& args, Report& report) {
    SpanRecorder spans(args.trace);
    const serve::ServiceOptions options = service_options(false);
    SetupResult setup = run_setup(args, options, spans);
    report.note("threads", "service workers " + std::to_string(options.workers) +
                               " + dispatcher, " + std::to_string(kClients) + " clients");
    report.note("loop", "closed, 3 outstanding workflow requests");

    const double plain_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    WorkflowPhase plain = run_workflow_phase(*setup.service, *setup.models, args.seed,
                                             plain_seconds);
    setup.service.reset();
    std::uint64_t failed = plain.failed;
    std::uint64_t attempted = plain.samples.size();

    LayerMetrics layers;
    WorkflowPhase traced;
    if (args.trace) {
        serve::PlannerService service(serve::make_snapshot(*setup.models),
                                      service_options(true));
        traced = run_workflow_phase(service, *setup.models, args.seed, args.seconds / 2.0);
        write_service_trace(service, args.out_dir + "/service-trace-workflow_deadline.jsonl");
        record_service_spans(traced.samples, spans);
        failed += traced.failed;
        attempted += traced.samples.size();

        // Direct WorkflowSolver calls on the quality requests, which must
        // reproduce the service's plans bit for bit.
        core::EvalCache cache;
        std::vector<double> solve_ms;
        std::uint64_t iterations = 0;
        double solve_wall_s = 0.0;
        for (std::size_t i = 0; i < kWorkflowDirect; ++i) {
            if (!traced.quality[i]) continue;
            const WorkflowRecord& r = *traced.quality[i];
            const std::uint64_t root = spans.open("direct", i + 1, 0);
            spans.time("lint.gate", i + 1, root, [&] {
                lint::LintContext ctx;
                ctx.models = setup.models.get();
                return lint::lint_workflow(r.workflow, ctx);
            });
            const core::WorkflowEvaluator evaluator(*setup.models, r.workflow);
            const core::WorkflowSolver solver(evaluator, options.solver.annealing,
                                              options.workflow_deadline_safety);
            const auto t0 = Clock::now();
            const core::WorkflowSolveResult result = solver.solve(nullptr, &cache);
            const auto t1 = Clock::now();
            spans.add("core.workflow_solve", i + 1, root, t0, t1);
            solve_wall_s += std::chrono::duration<double>(t1 - t0).count();
            iterations += static_cast<std::uint64_t>(result.iterations);
            spans.time("core.workflow_greedy", i + 1, root,
                       [&] { return solver.solve_greedy(&cache); });
            spans.close(root);
            ++attempted;
            if (!same_workflow_plan(result.plan, r.plan)) {
                std::cerr << "workflow_deadline: direct solve of request " << i
                          << " differs from the service's\n";
                ++failed;
            }
        }
        fill_setup_layers(setup, layers);
        layers.lint_ms = median_of(spans.self_ms_of("lint.gate"));
        layers.workflow_solve_ms = median_of(spans.self_ms_of("core.workflow_solve"));
        layers.workflow_greedy_ms = median_of(spans.self_ms_of("core.workflow_greedy"));
        if (solve_wall_s > 0.0) {
            layers.workflow_iters_per_s = {static_cast<double>(iterations) / solve_wall_s,
                                           layers.workflow_solve_ms.samples};
        }
        fill_serve_layers(traced, layers);
        layers.coverage_ratio = {spans.coverage_ratio(), traced.samples.size()};
        layers.trace_overhead_pct = overhead_pct(plain.samples, traced.samples);
    }
    report.attempts(attempted, failed);

    EndToEnd e2e;
    e2e.setup = &setup;
    e2e.latencies_ms = latencies(plain.samples);
    e2e.ok_plans = ok_count(plain.samples);
    e2e.wall_s = plain.wall_s;
    e2e.cpu_s = plain.cpu_s;
    // Workflow plans minimize cost under the deadline, so their gain is the
    // best uniform plan's cost (WorkflowSolver::solve_greedy, the solver's
    // own single-tier anchor) over the plan's cost, modeled and deployed.
    bool complete = true;
    DeployTally deploys;
    std::vector<double> costs;
    std::size_t missed = 0;
    const std::vector<std::size_t> deployed =
        seeded_subset(args.seed, kWorkflowQuality, kWorkflowDeployed);
    core::EvalCache quality_cache;
    for (std::size_t i = 0; i < kWorkflowQuality; ++i) {
        if (!plain.quality[i]) {
            complete = false;
            continue;
        }
        const WorkflowRecord& r = *plain.quality[i];
        const core::WorkflowEvaluator evaluator(*setup.models, r.workflow);
        const core::WorkflowSolveResult baseline =
            core::WorkflowSolver(evaluator, options.solver.annealing,
                                 options.workflow_deadline_safety)
                .solve_greedy(&quality_cache);
        e2e.plan_utilities.push_back(
            core::tenant_utility(r.evaluation.total_runtime, r.evaluation.total_cost()));
        e2e.plan_gains.push_back(baseline.evaluation.total_cost() / r.evaluation.total_cost());
        if (!std::binary_search(deployed.begin(), deployed.end(), i)) continue;
        const core::Deployer deployer;
        const auto t0 = Clock::now();
        const core::WorkflowDeployment dep = deployer.deploy_workflow(evaluator, r.plan);
        const core::WorkflowDeployment base = deployer.deploy_workflow(evaluator, baseline.plan);
        deploys.wall_s += seconds_since(t0);
        deploys.jobs += 2 * r.workflow.size();
        e2e.deployed_utilities.push_back(
            core::tenant_utility(dep.total_runtime, dep.total_cost()));
        e2e.deployed_gains.push_back(base.total_cost() / dep.total_cost());
        costs.push_back(dep.total_cost().value());
        if (!dep.met_deadline) ++missed;
    }
    add_end_to_end(report, e2e);
    if (!costs.empty()) {
        report.add(MetricKind::kInfo, "workflow_cost_usd", mean(costs), "usd", "lower",
                   costs.size());
        report.add(MetricKind::kInfo, "deadline_miss_share",
                   static_cast<double>(missed) / static_cast<double>(costs.size()), "ratio",
                   "lower", costs.size());
    }
    if (args.trace) {
        deploys.fill(layers);
        finish_trace(report, layers, spans, args);
    }
    return complete && failed == 0;
}

// ===========================================================================
// template_replay
// ===========================================================================

namespace {

constexpr std::size_t kTemplates = 96;
constexpr double kZipfExponent = 1.1;
/// Interactive solver tier (the serve_throughput bench's settings).
constexpr int kInteractiveIters = 2000;
constexpr int kInteractiveChains = 2;
/// Offered rates, requests per second, and each rung's share of the window.
constexpr double kLadder[] = {100.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0, 2400.0};
constexpr double kRungShare[] = {0.2, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1};
static_assert(std::size(kLadder) == std::size(kRungShare));
/// The rungs well below saturation (100 and 400 req/s); their pooled
/// latencies are the workload's latency_p50/p90_ms. At 800 req/s and up
/// the ms-scale tail already swings with host scheduling noise, and the
/// latency rungs get half the window so the tail averages over more of it.
constexpr std::size_t kLatencyRungs = 2;
/// A rung is sustained when its p90 latency (from the due time) is within
/// this limit and its backlog did not grow.
constexpr double kLatencyLimitMs = 50.0;
constexpr std::size_t kDeployedTemplates = 32;

std::vector<workload::Workload> make_templates(std::uint64_t seed) {
    std::vector<workload::Workload> out;
    for (std::size_t t = 0; t < kTemplates; ++t) {
        const std::uint64_t s = mix_seed(seed, 4000 + t);
        const workload::Workload base = workload::synthesize_facebook_workload(s);
        // Sizes follow popularity rank, not the seed, so every seed offers
        // the same mix of solve costs; the seed picks the jobs.
        const std::size_t jobs = 8 + t % 9;
        std::vector<workload::JobSpec> picked;
        for (const std::size_t i : seeded_subset(mix_seed(s, 2), base.size(), jobs)) {
            picked.push_back(base.job(i));
        }
        out.emplace_back(std::move(picked));
    }
    return out;
}

serve::PlanRequest template_request(const std::vector<workload::Workload>& templates,
                                    std::size_t t, std::uint64_t id) {
    serve::PlanRequest req;
    req.id = id;
    req.kind = serve::RequestKind::kBatch;
    req.workload = templates[t];
    req.reuse_aware = true;
    return req;
}

serve::ServiceOptions template_options(bool traced) {
    serve::ServiceOptions o = service_options(traced);
    o.solver.annealing.iter_max = kInteractiveIters;
    o.solver.annealing.chains = kInteractiveChains;
    return o;
}

struct Arrival {
    double offset_s = 0.0;
    std::size_t template_index = 0;
};

/// Seeded Poisson schedule of one rung: exponential gaps at `rate`,
/// Zipf-popular templates. Fixed for a given (seed, rung).
std::vector<Arrival> rung_schedule(std::uint64_t seed, std::size_t rung, double rate,
                                   double duration_s) {
    std::vector<double> cdf(kTemplates);
    double total = 0.0;
    for (std::size_t t = 0; t < kTemplates; ++t) {
        total += 1.0 / std::pow(static_cast<double>(t + 1), kZipfExponent);
        cdf[t] = total;
    }
    Rng rng(mix_seed(seed, 5000 + rung));
    std::vector<Arrival> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= duration_s) break;
        const double u = rng.uniform() * total;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        out.push_back({t, static_cast<std::size_t>(std::min<std::ptrdiff_t>(
                              it - cdf.begin(), static_cast<std::ptrdiff_t>(kTemplates - 1)))});
    }
    return out;
}

struct Rung {
    double rate = 0.0;
    std::vector<Sample> samples;
    std::vector<double> lag_ms;
    std::size_t backlog_mid = 0;
    std::size_t backlog_end = 0;
    std::size_t sent_second_half = 0;
    double p90_ms = 0.0;
    [[nodiscard]] bool backlog_grew() const {
        const double slack = std::max(8.0, 0.1 * static_cast<double>(sent_second_half));
        return static_cast<double>(backlog_end) - static_cast<double>(backlog_mid) > slack;
    }
    [[nodiscard]] bool sustained() const {
        return !samples.empty() && p90_ms <= kLatencyLimitMs && !backlog_grew();
    }
};

struct ReplayPhase {
    std::vector<Rung> rungs;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t failed = 0;
    serve::ServiceStats stats;
    /// The warm-up responses, one per template.
    std::vector<serve::PlanResponse> warm;

    [[nodiscard]] std::vector<Sample> latency_samples() const {
        std::vector<Sample> out;
        for (std::size_t r = 0; r < kLatencyRungs; ++r) {
            out.insert(out.end(), rungs[r].samples.begin(), rungs[r].samples.end());
        }
        return out;
    }
    [[nodiscard]] std::vector<Sample> all_samples() const {
        std::vector<Sample> out;
        for (const Rung& r : rungs) out.insert(out.end(), r.samples.begin(), r.samples.end());
        return out;
    }
};

struct InFlight {
    std::future<serve::PlanResponse> future;
    Sample sample;
    std::size_t template_index = 0;
};

/// The open-loop generator: one thread sends on schedule and collects
/// completions in between, so latency is measured from the due time.
class OpenLoop {
public:
    OpenLoop(serve::PlannerService& service, const std::vector<workload::Workload>& templates,
             const std::vector<serve::PlanResponse>& reference)
        : service_(service), templates_(templates), reference_(reference) {}

    Rung run(std::uint64_t seed, std::size_t rung_index, double rate, double duration_s) {
        Rung rung;
        rung.rate = rate;
        const std::vector<Arrival> schedule = rung_schedule(seed, rung_index, rate, duration_s);
        const auto start = Clock::now();
        const auto at = [&](double offset_s) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(offset_s));
        };
        bool mid_taken = false;
        for (const Arrival& a : schedule) {
            if (!mid_taken && a.offset_s >= duration_s / 2.0) {
                collect_until(rung, at(duration_s / 2.0));
                rung.backlog_mid = in_flight_.size();
                mid_taken = true;
            }
            const Clock::time_point due = at(a.offset_s);
            collect_until(rung, due);
            InFlight f;
            f.template_index = a.template_index;
            f.sample.request = next_id_;
            f.sample.due = due;
            f.sample.submitted = Clock::now();
            f.future =
                service_.submit(template_request(templates_, a.template_index, next_id_++));
            rung.lag_ms.push_back(ms_between(due, f.sample.submitted));
            if (mid_taken) ++rung.sent_second_half;
            in_flight_.push_back(std::move(f));
        }
        if (!mid_taken) {
            collect_until(rung, at(duration_s / 2.0));
            rung.backlog_mid = in_flight_.size();
        }
        collect_until(rung, at(duration_s));
        rung.backlog_end = in_flight_.size();
        while (!in_flight_.empty()) collect_until(rung, Clock::now() + std::chrono::seconds(1));
        std::vector<double> lat = latencies(rung.samples);
        rung.p90_ms = lat.empty() ? 0.0 : percentile(lat, 90.0);
        return rung;
    }

    [[nodiscard]] std::uint64_t failed() const { return failed_; }

private:
    /// Collect completions until `until`: block on the oldest request (most
    /// complete in order), then sweep the rest without blocking.
    void collect_until(Rung& rung, Clock::time_point until) {
        for (;;) {
            if (in_flight_.empty()) {
                std::this_thread::sleep_until(until);
                return;
            }
            const auto step = std::min(until, Clock::now() + std::chrono::microseconds(500));
            in_flight_.front().future.wait_until(step);
            for (auto it = in_flight_.begin(); it != in_flight_.end();) {
                if (it->future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
                    ++it;
                    continue;
                }
                it->sample.ready = Clock::now();
                const serve::PlanResponse resp = it->future.get();
                fill_from_response(it->sample, resp);
                const serve::PlanResponse& ref = reference_[it->template_index];
                if (!resp.ok() || !same_plan(resp.batch->plan, ref.batch->plan) ||
                    !same_evaluation(resp.batch->evaluation, ref.batch->evaluation)) {
                    std::cerr << "template_replay: request " << it->sample.request
                              << " does not match its template's direct solve\n";
                    ++failed_;
                }
                rung.samples.push_back(it->sample);
                it = in_flight_.erase(it);
            }
            if (Clock::now() >= until) return;
        }
    }

    serve::PlannerService& service_;
    const std::vector<workload::Workload>& templates_;
    const std::vector<serve::PlanResponse>& reference_;
    std::list<InFlight> in_flight_;
    std::uint64_t next_id_ = 1;
    std::uint64_t failed_ = 0;
};

/// Warm the service's snapshot cache with one request per template
/// (untimed), then run the ladder.
ReplayPhase run_replay_phase(serve::PlannerService& service,
                             const std::vector<workload::Workload>& templates,
                             const std::vector<serve::PlanResponse>& reference,
                             std::uint64_t seed, double seconds) {
    ReplayPhase phase;
    std::vector<std::future<serve::PlanResponse>> warm;
    for (std::size_t t = 0; t < kTemplates; ++t) {
        warm.push_back(service.submit(template_request(templates, t, 1'000'000 + t)));
    }
    for (std::size_t t = 0; t < kTemplates; ++t) {
        phase.warm.push_back(warm[t].get());
        const serve::PlanResponse& resp = phase.warm.back();
        const serve::PlanResponse& ref = reference[t];
        if (!resp.ok() || !same_plan(resp.batch->plan, ref.batch->plan) ||
            !same_evaluation(resp.batch->evaluation, ref.batch->evaluation)) {
            ++phase.failed;
        }
    }
    OpenLoop loop(service, templates, reference);
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < std::size(kLadder); ++r) {
        phase.rungs.push_back(loop.run(seed, r, kLadder[r], seconds * kRungShare[r]));
    }
    phase.wall_s = seconds_since(t0);
    phase.cpu_s = process_cpu_seconds() - cpu0;
    phase.failed += loop.failed();
    phase.stats = service.stats();
    return phase;
}

double sustained_rate(const ReplayPhase& phase) {
    double best = 0.0;
    for (const Rung& r : phase.rungs) {
        if (r.sustained()) best = std::max(best, r.rate);
    }
    return best;
}

}  // namespace

bool run_template_replay(const Args& args, Report& report) {
    SpanRecorder spans(args.trace);
    const serve::ServiceOptions options = template_options(false);
    SetupResult setup = run_setup(args, options, spans);
    const std::vector<workload::Workload> templates = make_templates(args.seed);
    report.note("threads", "service workers " + std::to_string(options.workers) +
                               " + dispatcher, 1 generator thread");
    std::ostringstream ladder;
    for (const double r : kLadder) ladder << r << " ";
    report.note("loop", "open, Poisson arrivals, ladder " + ladder.str() + "req/s, p90 limit " +
                            std::to_string(kLatencyLimitMs) + " ms");

    // Reference answers, computed at set-up on a separate snapshot so the
    // service's own cache starts cold.
    std::vector<serve::PlanResponse> reference;
    std::uint64_t failed = 0;
    std::uint64_t attempted = 0;
    {
        const serve::SnapshotPtr ref_snapshot = serve::make_snapshot(*setup.models);
        for (std::size_t t = 0; t < kTemplates; ++t) {
            reference.push_back(serve::PlannerService::solve_direct(
                *ref_snapshot, template_request(templates, t, t + 1), options));
            ++attempted;
            const serve::PlanResponse& ref = reference.back();
            if (!ref.ok() || !batch_plan_checks(*setup.models, templates[t], ref.batch->plan,
                                                ref.batch->evaluation)) {
                ++failed;
            }
        }
    }

    const double plain_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    const ReplayPhase plain =
        run_replay_phase(*setup.service, templates, reference, args.seed, plain_seconds);
    setup.service.reset();
    failed += plain.failed;
    attempted += kTemplates + plain.all_samples().size();

    LayerMetrics layers;
    if (args.trace) {
        serve::PlannerService service(serve::make_snapshot(*setup.models),
                                      template_options(true));
        const ReplayPhase traced =
            run_replay_phase(service, templates, reference, args.seed, args.seconds / 2.0);
        write_service_trace(service, args.out_dir + "/service-trace-template_replay.jsonl");
        const std::vector<Sample> traced_samples = traced.all_samples();
        record_service_spans(traced_samples, spans);
        failed += traced.failed;
        attempted += kTemplates + traced_samples.size();

        // Each template once more: its spec text through parse_spec, then
        // the decomposed pipeline with the replicas on a pool of nproc
        // workers, against the traced service's warm snapshot cache.
        SolveTally tally;
        core::EvalCache& cache = service.snapshot()->cache();
        ThreadPool pool(host_threads());
        for (std::size_t t = 0; t < kTemplates; ++t) {
            std::ostringstream text;
            workload::write_spec(templates[t], text);
            const std::uint64_t root = spans.open("direct", t + 1, 0);
            spans.time("workload.parse", t + 1, root, [&] {
                std::istringstream in(text.str());
                return workload::parse_spec(in);
            });
            const DecomposedPlan plan = decomposed_cast_plus_plus(
                *setup.models, templates[t], options.solver, &pool, host_threads(), cache, spans,
                t + 1, root, tally);
            spans.close(root);
            ++attempted;
            if (!same_plan(plan.plan, reference[t].batch->plan) ||
                !same_evaluation(plan.evaluation, reference[t].batch->evaluation)) {
                std::cerr << "template_replay: decomposed solve of template " << t
                          << " differs from solve_direct\n";
                ++failed;
            }
        }
        fill_setup_layers(setup, layers);
        layers.parse_ms = median_of(spans.self_ms_of("workload.parse"));
        tally.fill(spans, layers);
        PhaseResult serve_phase;
        serve_phase.samples = traced_samples;
        serve_phase.stats = traced.stats;
        fill_serve_layers(serve_phase, layers);
        std::vector<double> lag;
        for (const Rung& r : traced.rungs) lag.insert(lag.end(), r.lag_ms.begin(), r.lag_ms.end());
        if (!lag.empty()) layers.generator_lag_ms = {percentile(lag, 90.0), lag.size()};
        layers.coverage_ratio = {spans.coverage_ratio(), traced_samples.size()};
        layers.trace_overhead_pct =
            overhead_pct(plain.latency_samples(), traced.latency_samples());
    }
    report.attempts(attempted, failed);

    for (const Rung& r : plain.rungs) {
        std::ostringstream os;
        os << "sent " << r.samples.size() << ", p90 " << r.p90_ms << " ms, backlog "
           << r.backlog_mid << "->" << r.backlog_end << (r.sustained() ? ", sustained" : "");
        report.note("rung " + std::to_string(static_cast<int>(r.rate)) + "/s", os.str());
    }

    EndToEnd e2e;
    e2e.setup = &setup;
    e2e.latencies_ms = latencies(plain.latency_samples());
    const std::vector<Sample> all = plain.all_samples();
    e2e.ok_plans = ok_count(all);
    e2e.wall_s = plain.wall_s;
    e2e.cpu_s = plain.cpu_s;
    DeployTally deploys;
    const std::vector<std::size_t> deployed =
        seeded_subset(args.seed, kTemplates, kDeployedTemplates);
    for (std::size_t t = 0; t < kTemplates; ++t) {
        const serve::PlanResponse& resp = plain.warm[t];
        if (!resp.ok()) continue;
        add_batch_quality(e2e, *setup.models, templates[t], resp.batch->plan,
                          resp.batch->evaluation,
                          std::binary_search(deployed.begin(), deployed.end(), t), deploys);
    }
    add_end_to_end(report, e2e);
    std::vector<double> lag;
    for (const Rung& r : plain.rungs) lag.insert(lag.end(), r.lag_ms.begin(), r.lag_ms.end());
    report.add(MetricKind::kInfo, "sustained_rate_per_s", sustained_rate(plain), "1/s", "higher",
               plain.rungs.size());
    if (!lag.empty()) {
        report.add(MetricKind::kInfo, "generator_lag_p90_ms", percentile(lag, 90.0), "ms",
                   "lower", lag.size());
    }
    if (args.trace) {
        deploys.fill(layers);
        finish_trace(report, layers, spans, args);
    }
    return failed == 0 && e2e.plan_gains.size() == kTemplates;
}

}  // namespace castbench
