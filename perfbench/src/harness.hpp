// Shared plumbing of the repository benchmark driver (castbench).
//
// The driver calls only the public API of the cast_* libraries. Everything
// here is measurement machinery that lives outside the program under test:
// clocks and process counters, latency summaries, an in-memory span
// recorder for the traced run, exact-equality output checks, the set-up
// phase every workload shares, and the metric report printed at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/castpp.hpp"
#include "model/profiler.hpp"
#include "serve/service.hpp"

namespace castbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] double seconds_since(Clock::time_point t);

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process (ru_maxrss) in MiB.
[[nodiscard]] double peak_rss_mb();
/// Worker count every pool in the benchmark is sized from.
[[nodiscard]] std::size_t host_threads();
[[nodiscard]] std::string cpu_model();

/// Linear-interpolated percentile (q in [0, 100]) of an unsorted sample.
/// Requires a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// SplitMix64 finalizer: derives independent per-request seeds from the
/// workload seed, so request i's input never depends on how many requests
/// a run completed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// `count` distinct indices in [0, population), chosen by `seed`, sorted.
/// JSON string literal with quotes, backslashes and control characters
/// escaped.
[[nodiscard]] std::string json_string(const std::string& s);

[[nodiscard]] std::vector<std::size_t> seeded_subset(std::uint64_t seed, std::size_t population,
                                                     std::size_t count);

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    /// Directory for the traced run's span files and the set-up phase's
    /// model files (the driver script passes a path inside its build tree).
    std::string out_dir = ".";
};

// ---------------------------------------------------------------------------
// Spans (traced run only).
// ---------------------------------------------------------------------------

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = a root (request) span
    std::uint64_t request = 0;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
};

/// In-memory span store for the benchmark's own calls into each layer.
/// Single-writer: every span is recorded from the thread that made the
/// call it wraps, and the multi-threaded workloads record only from the
/// driver's main thread.
class SpanRecorder {
public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const { return enabled_; }
    /// Record a finished span; returns its id (0 when disabled).
    std::uint64_t add(std::string name, std::uint64_t request, std::uint64_t parent,
                      Clock::time_point start, Clock::time_point end);
    /// Open a span now (so children can name it as parent) and close it
    /// later with close(). Both are no-ops when disabled.
    std::uint64_t open(std::string name, std::uint64_t request, std::uint64_t parent);
    void close(std::uint64_t id);
    /// Time `fn` as a span and return its result.
    template <typename Fn>
    auto time(const std::string& name, std::uint64_t request, std::uint64_t parent, Fn&& fn) {
        const auto start = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            add(name, request, parent, start, Clock::now());
        } else {
            auto result = fn();
            add(name, request, parent, start, Clock::now());
            return result;
        }
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    /// Self time per span (duration minus the union of its children).
    [[nodiscard]] std::vector<double> self_ms() const;
    /// Sum over root spans of (child time / span time), as one ratio.
    [[nodiscard]] double coverage_ratio() const;
    /// Self time summed by span name, for the report.
    [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_name() const;
    /// Per-span self times of every span named `name`.
    [[nodiscard]] std::vector<double> self_ms_of(const std::string& name) const;
    /// Write every span as one JSON object per line.
    void write_jsonl(const std::string& path) const;

private:
    bool enabled_;
    std::uint64_t next_id_ = 1;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

/// Exact (bitwise for doubles) equality of every PlanEvaluation field.
[[nodiscard]] bool same_evaluation(const cast::core::PlanEvaluation& a,
                                   const cast::core::PlanEvaluation& b);
[[nodiscard]] bool same_plan(const cast::core::TieringPlan& a, const cast::core::TieringPlan& b);
[[nodiscard]] bool same_workflow_plan(const cast::core::WorkflowPlan& a,
                                      const cast::core::WorkflowPlan& b);

/// A batch or amend plan passes Deployer::validate_plan and re-evaluates to
/// exactly the evaluation the solver returned.
[[nodiscard]] bool batch_plan_checks(const cast::model::PerfModelSet& models,
                                     const cast::workload::Workload& workload,
                                     const cast::core::TieringPlan& plan,
                                     const cast::core::PlanEvaluation& returned);
/// A workflow plan passes Deployer::validate_workflow_plan.
[[nodiscard]] bool workflow_plan_checks(const cast::model::PerfModelSet& models,
                                        const cast::workload::Workflow& workflow,
                                        const cast::core::WorkflowPlan& plan);

// ---------------------------------------------------------------------------
// Set-up: profile the 400-core cluster, save and load the model set, and
// (service workloads) build the snapshot and start the service.
// ---------------------------------------------------------------------------

struct SetupResult {
    /// Median wall of the repeated set-ups (s).
    double setup_s = 0.0;
    std::vector<double> setup_samples_s;
    std::vector<double> profile_samples_s;
    std::vector<double> load_samples_ms;
    std::string model_path;
    std::shared_ptr<const cast::model::PerfModelSet> models;
    cast::serve::SnapshotPtr snapshot;
    std::unique_ptr<cast::serve::PlannerService> service;
};

/// A closed-loop phase runs for --seconds and in any case until it has
/// completed this many requests, so at least ten samples lie beyond the
/// 90th percentile it reports.
inline constexpr std::size_t kMinSamples = 100;

/// Number of set-ups a run performs; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Run the set-up kSetupRepeats times. When `service_options` is set each
/// repetition also builds a snapshot from the loaded models and starts a
/// PlannerService; the last repetition's service is returned running.
[[nodiscard]] SetupResult run_setup(const Args& args,
                                    const std::optional<cast::serve::ServiceOptions>& service_options,
                                    SpanRecorder& spans);

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

/// kEndToEnd and kLayer metrics are the ones BENCHMARK.json lists; the
/// result line carries the end-to-end set in a timed run and the per-layer
/// set in a traced run. kInfo metrics (those that apply to some workloads
/// only, or can read 0) appear in the report alone.
enum class MetricKind { kEndToEnd, kLayer, kInfo };

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string better;  ///< "lower" or "higher"
    std::size_t samples = 0;
    MetricKind kind = MetricKind::kEndToEnd;
};

class Report {
public:
    explicit Report(const Args& args) : args_(args) {}

    void add(MetricKind kind, std::string name, double value, std::string unit,
             std::string better, std::size_t samples);
    void note(std::string key, std::string value);
    /// Count attempted operations and how many failed (rejected, error, or
    /// a failed output check).
    void attempts(std::uint64_t n, std::uint64_t failed) {
        attempted_ += n;
        failed_ += failed;
    }
    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }

    /// Human-readable table on stderr, a report JSON line on stdout (every
    /// metric with unit, direction and sample count, plus the host
    /// fingerprint), then the result line as the last line of stdout.
    void print(bool correct) const;

private:
    Args args_;
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json's
/// end_to_end list). Latency is summarized as the median and the 90th
/// percentile with the sample count; runs are sized so that at least ten
/// samples lie beyond the 90th percentile.
struct EndToEnd {
    const SetupResult* setup = nullptr;
    std::vector<double> latencies_ms;
    std::uint64_t ok_plans = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    /// Plan quality over the fixed, seed-determined quality subset, each
    /// relative to the best single-tier plan for the same input (the
    /// paper's "vs. best non-tiered configuration"), modeled and deployed.
    std::vector<double> plan_gains;
    std::vector<double> deployed_gains;
    /// The same plans' absolute Eq. 2 utility, modeled and deployed. Its
    /// scale follows the input's size, so it is reported, not gated.
    std::vector<double> plan_utilities;
    std::vector<double> deployed_utilities;
};
void add_end_to_end(Report& report, const EndToEnd& e2e);

/// One per-layer figure and the number of observations behind it.
struct LayerValue {
    double value = 0.0;
    std::size_t samples = 0;
};
[[nodiscard]] LayerValue median_of(const std::vector<double>& values);

/// Every per-layer metric of BENCHMARK.json. A traced run reports all of
/// them; a layer the workload never calls reads 0 with 0 samples.
struct LayerMetrics {
    LayerValue profile_s, load_ms, deploy_jobs_per_s;
    LayerValue parse_ms, lint_ms, greedy_ms;
    LayerValue anneal_ms, anneal_iters_per_s, anneal_cpu_per_wall, exchange_accept_ratio;
    LayerValue cache_hit_ratio, cache_misses;
    LayerValue amend_ms, amend_shadow_ms, amend_neighborhood_jobs, amend_iterations,
        amend_escalation_ratio;
    LayerValue workflow_solve_ms, workflow_iters_per_s, workflow_greedy_ms;
    LayerValue queue_ms, solve_ms, overhead_ms;
    LayerValue coalesced_ratio, batch_size_mean, serve_cache_hit_ratio, rejected;
    LayerValue generator_lag_ms, coverage_ratio, trace_overhead_pct;
};

/// Set-up figures shared by every traced run (profile and load medians).
void fill_setup_layers(const SetupResult& setup, LayerMetrics& layers);

/// The traced run's closing steps: every per-layer metric, a report note
/// with each span name's total self time, and the span file.
void finish_trace(Report& report, const LayerMetrics& layers, const SpanRecorder& spans,
                  const Args& args);

/// Deploy wall and job count, for sim.deploy_jobs_per_s.
struct DeployTally {
    double wall_s = 0.0;
    std::size_t jobs = 0;
    void fill(LayerMetrics& layers) const;
};

/// Annealing-stage and memo-table totals of the batch solves the traced
/// run decomposed.
struct SolveTally {
    double anneal_wall_s = 0.0;
    double anneal_cpu_s = 0.0;
    double worker_wall_s = 0.0;  ///< anneal wall x workers the solve could use
    std::uint64_t iterations = 0;
    std::uint64_t exchange_attempts = 0;
    std::uint64_t exchange_accepts = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::size_t solves = 0;
    /// Fills anneal/greedy/lint figures from the tally and `spans`.
    void fill(const SpanRecorder& spans, LayerMetrics& layers) const;
};

/// The plan_cast_plus_plus pipeline, spelled out call by call through the
/// public API so each layer gets its own span: lint_workload gate,
/// PlanEvaluator, greedy_projected_plan, AnnealingSolver::solve. Returns
/// the same bits plan_cast_plus_plus(models, workload, options, pool,
/// &cache) would (the output checks compare them).
struct DecomposedPlan {
    cast::core::TieringPlan plan;
    cast::core::PlanEvaluation evaluation;
};
[[nodiscard]] DecomposedPlan decomposed_cast_plus_plus(
    const cast::model::PerfModelSet& models, const cast::workload::Workload& workload,
    const cast::core::CastOptions& options, cast::ThreadPool* pool, std::size_t workers,
    cast::core::EvalCache& cache, SpanRecorder& spans, std::uint64_t request,
    std::uint64_t parent, SolveTally& tally);

/// Add one batch plan to the quality figures: its modeled utility and its
/// gain over the best exact-fit single-tier plan; with `deploy`, also both
/// plans deployed on the simulator.
void add_batch_quality(EndToEnd& e2e, const cast::model::PerfModelSet& models,
                       const cast::workload::Workload& workload,
                       const cast::core::TieringPlan& plan,
                       const cast::core::PlanEvaluation& evaluation, bool deploy,
                       DeployTally& tally);

/// One workload: fills the report, returns whether every output check
/// passed.
using WorkloadFn = std::function<bool(const Args&, Report&)>;

bool run_fb100_cli(const Args& args, Report& report);
bool run_amend_stream(const Args& args, Report& report);
bool run_workflow_deadline(const Args& args, Report& report);
bool run_template_replay(const Args& args, Report& report);

}  // namespace castbench
