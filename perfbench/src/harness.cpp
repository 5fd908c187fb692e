#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/deployer.hpp"
#include "lint/analyzer.hpp"
#include "model/serialize.hpp"

namespace castbench {

using namespace cast;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::size_t host_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string model = line.substr(colon + 1);
                model.erase(0, model.find_first_not_of(' '));
                return model;
            }
        }
    }
    return "unknown";
}

double percentile(std::vector<double> values, double q) {
    CAST_EXPECTS(!values.empty());
    std::sort(values.begin(), values.end());
    const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double mean(const std::vector<double>& values) {
    CAST_EXPECTS(!values.empty());
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::size_t> seeded_subset(std::uint64_t seed, std::size_t population,
                                       std::size_t count) {
    CAST_EXPECTS(count <= population);
    std::vector<std::size_t> all(population);
    for (std::size_t i = 0; i < population; ++i) all[i] = i;
    // Partial Fisher-Yates over a SplitMix64 stream.
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t j = i + mix_seed(seed, i) % (population - i);
        std::swap(all[i], all[j]);
    }
    all.resize(count);
    std::sort(all.begin(), all.end());
    return all;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

std::uint64_t SpanRecorder::add(std::string name, std::uint64_t request, std::uint64_t parent,
                                Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return 0;
    const std::uint64_t id = next_id_++;
    spans_.push_back(Span{id, parent, request, std::move(name), start, end});
    return id;
}

std::uint64_t SpanRecorder::open(std::string name, std::uint64_t request,
                                 std::uint64_t parent) {
    const auto now = Clock::now();
    return add(std::move(name), request, parent, now, now);
}

void SpanRecorder::close(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end = Clock::now();
}

namespace {

/// Milliseconds of [start, end] covered by the union of `children`.
double covered_ms(Clock::time_point start, Clock::time_point end,
                  std::vector<std::pair<Clock::time_point, Clock::time_point>> children) {
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    Clock::time_point cursor = start;
    for (auto [s, e] : children) {
        s = std::max(s, cursor);
        e = std::min(e, end);
        if (e > s) {
            covered += ms_between(s, e);
            cursor = e;
        }
    }
    return covered;
}

std::unordered_map<std::uint64_t, std::vector<std::pair<Clock::time_point, Clock::time_point>>>
children_by_parent(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        out;
    for (const Span& s : spans) {
        if (s.parent != 0) out[s.parent].emplace_back(s.start, s.end);
    }
    return out;
}

}  // namespace

std::vector<double> SpanRecorder::self_ms() const {
    const auto children = children_by_parent(spans_);
    std::vector<double> out;
    out.reserve(spans_.size());
    for (const Span& s : spans_) {
        const auto it = children.find(s.id);
        const double covered =
            it == children.end() ? 0.0 : covered_ms(s.start, s.end, it->second);
        out.push_back(ms_between(s.start, s.end) - covered);
    }
    return out;
}

double SpanRecorder::coverage_ratio() const {
    const auto children = children_by_parent(spans_);
    double total = 0.0;
    double covered = 0.0;
    for (const Span& s : spans_) {
        if (s.name != "request") continue;
        total += ms_between(s.start, s.end);
        const auto it = children.find(s.id);
        if (it != children.end()) covered += covered_ms(s.start, s.end, it->second);
    }
    return total > 0.0 ? covered / total : 0.0;
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_ms_by_name() const {
    const std::vector<double> self = self_ms();
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto it = std::find_if(out.begin(), out.end(),
                               [&](const auto& p) { return p.first == spans_[i].name; });
        if (it == out.end()) {
            out.emplace_back(spans_[i].name, self[i]);
        } else {
            it->second += self[i];
        }
    }
    return out;
}

std::vector<double> SpanRecorder::self_ms_of(const std::string& name) const {
    const std::vector<double> self = self_ms();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name) out.push_back(self[i]);
    }
    return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write span file " + path);
    const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    out << std::setprecision(6) << std::fixed;
    for (const Span& s : spans_) {
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << ",\"name\":" << json_string(s.name) << ",\"start_ms\":" << ms_between(origin, s.start)
            << ",\"end_ms\":" << ms_between(origin, s.end) << "}\n";
    }
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

namespace {

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_decisions(const std::vector<core::PlacementDecision>& a,
                    const std::vector<core::PlacementDecision>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].tier != b[i].tier || !same_bits(a[i].overprovision, b[i].overprovision)) {
            return false;
        }
    }
    return true;
}

}  // namespace

bool same_evaluation(const core::PlanEvaluation& a, const core::PlanEvaluation& b) {
    if (a.feasible != b.feasible || a.infeasibility != b.infeasibility) return false;
    if (!same_bits(a.total_runtime.value(), b.total_runtime.value()) ||
        !same_bits(a.vm_cost.value(), b.vm_cost.value()) ||
        !same_bits(a.storage_cost.value(), b.storage_cost.value()) ||
        !same_bits(a.utility, b.utility)) {
        return false;
    }
    for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
        if (!same_bits(a.capacities.aggregate[t].value(), b.capacities.aggregate[t].value()) ||
            !same_bits(a.capacities.per_vm[t].value(), b.capacities.per_vm[t].value())) {
            return false;
        }
    }
    if (a.job_runtimes.size() != b.job_runtimes.size()) return false;
    for (std::size_t i = 0; i < a.job_runtimes.size(); ++i) {
        if (!same_bits(a.job_runtimes[i].value(), b.job_runtimes[i].value())) return false;
    }
    return true;
}

bool same_plan(const core::TieringPlan& a, const core::TieringPlan& b) {
    return same_decisions(a.decisions(), b.decisions());
}

bool same_workflow_plan(const core::WorkflowPlan& a, const core::WorkflowPlan& b) {
    return same_decisions(a.decisions, b.decisions);
}

bool batch_plan_checks(const model::PerfModelSet& models, const workload::Workload& workload,
                       const core::TieringPlan& plan, const core::PlanEvaluation& returned) {
    try {
        const core::PlanEvaluator evaluator(models, workload,
                                            core::EvalOptions{.reuse_aware = true});
        core::Deployer::validate_plan(evaluator, plan);
        return returned.feasible && same_evaluation(evaluator.evaluate(plan), returned);
    } catch (const std::exception&) {
        return false;
    }
}

bool workflow_plan_checks(const model::PerfModelSet& models, const workload::Workflow& workflow,
                          const core::WorkflowPlan& plan) {
    try {
        const core::WorkflowEvaluator evaluator(models, workflow);
        core::Deployer::validate_workflow_plan(evaluator, plan);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

SetupResult run_setup(const Args& args, const std::optional<serve::ServiceOptions>& service_options,
                      SpanRecorder& spans) {
    SetupResult out;
    out.model_path = args.out_dir + "/models-" + args.workload + ".txt";
    const auto cluster = cloud::ClusterSpec::paper_400_core();
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        // Release the previous repetition's service first: a real restart
        // never has two services alive.
        out.service.reset();
        out.snapshot.reset();
        const auto t0 = Clock::now();
        const std::uint64_t root = spans.open("setup", 0, 0);
        model::PerfModelSet profiled = spans.time("model.profile", 0, root, [&] {
            ThreadPool pool(host_threads());
            const model::Profiler profiler(cluster, cloud::StorageCatalog::google_cloud());
            return profiler.profile(&pool);
        });
        const auto t_profiled = Clock::now();
        spans.time("model.save", 0, root,
                   [&] { model::save_model_set_file(profiled, out.model_path); });
        const auto t_load = Clock::now();
        auto loaded = std::make_shared<const model::PerfModelSet>(
            spans.time("model.load", 0, root,
                       [&] { return model::load_model_set_file(out.model_path); }));
        const auto t_loaded = Clock::now();
        if (service_options) {
            out.snapshot = spans.time("serve.snapshot", 0, root,
                                      [&] { return serve::make_snapshot(*loaded); });
            out.service = spans.time("serve.start", 0, root, [&] {
                return std::make_unique<serve::PlannerService>(out.snapshot, *service_options);
            });
        }
        const auto t_ready = Clock::now();
        spans.close(root);
        out.setup_samples_s.push_back(std::chrono::duration<double>(t_ready - t0).count());
        out.profile_samples_s.push_back(std::chrono::duration<double>(t_profiled - t0).count());
        out.load_samples_ms.push_back(ms_between(t_load, t_loaded));
        out.models = std::move(loaded);
    }
    out.setup_s = median(out.setup_samples_s);
    return out;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

void Report::add(MetricKind kind, std::string name, double value, std::string unit,
                 std::string better, std::size_t samples) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), std::move(better),
                              samples, kind});
}

void Report::note(std::string key, std::string value) {
    notes_.emplace_back(std::move(key), std::move(value));
}

namespace {

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

const char* kind_name(MetricKind kind) {
    switch (kind) {
        case MetricKind::kEndToEnd: return "end_to_end";
        case MetricKind::kLayer: return "per_layer";
        case MetricKind::kInfo: return "report_only";
    }
    return "?";
}

}  // namespace

void Report::print(bool correct) const {
    std::cerr << "\ncastbench " << args_.workload << " seed=" << args_.seed
              << " seconds=" << args_.seconds << " trace=" << (args_.trace ? 1 : 0)
              << " host: nproc=" << host_threads() << " cpu=\"" << cpu_model() << "\"\n";
    for (const auto& [k, v] : notes_) std::cerr << "  " << k << ": " << v << "\n";
    std::cerr << "  " << std::left << std::setw(30) << "metric" << std::right << std::setw(16)
              << "value" << "  " << std::left << std::setw(8) << "unit" << std::setw(8)
              << "better" << std::right << std::setw(8) << "samples" << "  kind\n";
    for (const Metric& m : metrics_) {
        std::cerr << "  " << std::left << std::setw(30) << m.name << std::right << std::setw(16)
                  << std::setprecision(6) << m.value << "  " << std::left << std::setw(8)
                  << m.unit << std::setw(8) << m.better << std::right << std::setw(8)
                  << m.samples << "  " << kind_name(m.kind) << "\n";
    }
    std::cerr << "  attempted=" << attempted_ << " failed=" << failed_
              << " correct=" << (correct ? "true" : "false") << "\n";

    std::ostringstream report;
    report << "{\"report\":{\"workload\":" << json_string(args_.workload)
           << ",\"seed\":" << args_.seed << ",\"seconds\":" << json_number(args_.seconds)
           << ",\"trace\":" << (args_.trace ? 1 : 0) << ",\"host\":{\"nproc\":" << host_threads()
           << ",\"cpu_model\":" << json_string(cpu_model()) << "},\"notes\":{";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
        report << (i ? "," : "") << json_string(notes_[i].first) << ":"
               << json_string(notes_[i].second);
    }
    report << "},\"metrics\":[";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        report << (i ? "," : "") << "{\"name\":" << json_string(m.name)
               << ",\"value\":" << json_number(m.value) << ",\"unit\":" << json_string(m.unit)
               << ",\"better\":" << json_string(m.better) << ",\"samples\":" << m.samples
               << ",\"kind\":" << json_string(kind_name(m.kind)) << "}";
    }
    report << "]}}";
    std::cout << report.str() << "\n";

    const MetricKind wanted = args_.trace ? MetricKind::kLayer : MetricKind::kEndToEnd;
    std::ostringstream result;
    result << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted_
           << ",\"failed\":" << failed_ << ",\"metrics\":{";
    bool first = true;
    for (const Metric& m : metrics_) {
        if (m.kind != wanted) continue;
        result << (first ? "" : ",") << json_string(m.name) << ":{\"value\":"
               << json_number(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
        first = false;
    }
    result << "}}";
    std::cout << result.str() << std::endl;
}

void add_end_to_end(Report& report, const EndToEnd& e2e) {
    const auto add = [&](const char* name, double value, const char* unit, const char* better,
                         std::size_t samples) {
        report.add(MetricKind::kEndToEnd, name, value, unit, better, samples);
    };
    add("setup_s", e2e.setup->setup_s, "s", "lower", e2e.setup->setup_samples_s.size());
    add("latency_p50_ms", percentile(e2e.latencies_ms, 50.0), "ms", "lower",
        e2e.latencies_ms.size());
    add("latency_p90_ms", percentile(e2e.latencies_ms, 90.0), "ms", "lower",
        e2e.latencies_ms.size());
    add("plans_per_s", static_cast<double>(e2e.ok_plans) / e2e.wall_s, "1/s", "higher",
        e2e.ok_plans);
    add("cpu_ms_per_plan", e2e.cpu_s * 1000.0 / static_cast<double>(e2e.ok_plans), "ms", "lower",
        e2e.ok_plans);
    add("plan_gain", mean(e2e.plan_gains), "ratio", "higher", e2e.plan_gains.size());
    add("deployed_gain", mean(e2e.deployed_gains), "ratio", "higher", e2e.deployed_gains.size());
    add("peak_rss_mb", peak_rss_mb(), "MiB", "lower", 1);
    report.add(MetricKind::kInfo, "plan_utility", mean(e2e.plan_utilities), "1/min/usd",
               "higher", e2e.plan_utilities.size());
    report.add(MetricKind::kInfo, "deployed_utility", mean(e2e.deployed_utilities), "1/min/usd",
               "higher", e2e.deployed_utilities.size());
    report.add(MetricKind::kInfo, "failed_share",
               static_cast<double>(report.failed()) / static_cast<double>(report.attempted()),
               "ratio", "lower", report.attempted());
}

LayerValue median_of(const std::vector<double>& values) {
    if (values.empty()) return {};
    return {median(values), values.size()};
}

namespace {

struct LayerField {
    const char* name;
    const char* unit;
    const char* better;
    LayerValue LayerMetrics::*field;
};

// The one list of per-layer metric names; BENCHMARK.json's per_layer
// section mirrors it entry for entry.
constexpr LayerField kLayerFields[] = {
    {"model.profile_s", "s", "lower", &LayerMetrics::profile_s},
    {"model.load_ms", "ms", "lower", &LayerMetrics::load_ms},
    {"sim.deploy_jobs_per_s", "1/s", "higher", &LayerMetrics::deploy_jobs_per_s},
    {"workload.parse_ms", "ms", "lower", &LayerMetrics::parse_ms},
    {"lint.gate_ms", "ms", "lower", &LayerMetrics::lint_ms},
    {"core.greedy_ms", "ms", "lower", &LayerMetrics::greedy_ms},
    {"core.anneal_ms", "ms", "lower", &LayerMetrics::anneal_ms},
    {"core.anneal_iters_per_s", "1/s", "higher", &LayerMetrics::anneal_iters_per_s},
    {"core.anneal_cpu_per_wall", "ratio", "higher", &LayerMetrics::anneal_cpu_per_wall},
    {"core.exchange_accept_ratio", "ratio", "higher", &LayerMetrics::exchange_accept_ratio},
    {"core.cache_hit_ratio", "ratio", "higher", &LayerMetrics::cache_hit_ratio},
    {"core.cache_misses", "count", "lower", &LayerMetrics::cache_misses},
    {"core.amend_ms", "ms", "lower", &LayerMetrics::amend_ms},
    {"core.amend_shadow_ms", "ms", "lower", &LayerMetrics::amend_shadow_ms},
    {"core.amend_neighborhood_jobs", "count", "lower", &LayerMetrics::amend_neighborhood_jobs},
    {"core.amend_iterations", "count", "lower", &LayerMetrics::amend_iterations},
    {"core.amend_escalation_ratio", "ratio", "lower", &LayerMetrics::amend_escalation_ratio},
    {"core.workflow_solve_ms", "ms", "lower", &LayerMetrics::workflow_solve_ms},
    {"core.workflow_iters_per_s", "1/s", "higher", &LayerMetrics::workflow_iters_per_s},
    {"core.workflow_greedy_ms", "ms", "lower", &LayerMetrics::workflow_greedy_ms},
    {"serve.queue_ms", "ms", "lower", &LayerMetrics::queue_ms},
    {"serve.solve_ms", "ms", "lower", &LayerMetrics::solve_ms},
    {"serve.overhead_ms", "ms", "lower", &LayerMetrics::overhead_ms},
    {"serve.coalesced_ratio", "ratio", "higher", &LayerMetrics::coalesced_ratio},
    {"serve.batch_size_mean", "count", "higher", &LayerMetrics::batch_size_mean},
    {"serve.cache_hit_ratio", "ratio", "higher", &LayerMetrics::serve_cache_hit_ratio},
    {"serve.rejected", "count", "lower", &LayerMetrics::rejected},
    {"bench.generator_lag_ms", "ms", "lower", &LayerMetrics::generator_lag_ms},
    {"trace.coverage_ratio", "ratio", "higher", &LayerMetrics::coverage_ratio},
    {"obs.trace_overhead_pct", "%", "lower", &LayerMetrics::trace_overhead_pct},
};

void add_layer_metrics(Report& report, const LayerMetrics& layers) {
    for (const LayerField& f : kLayerFields) {
        const LayerValue& v = layers.*(f.field);
        report.add(MetricKind::kLayer, f.name, v.value, f.unit, f.better, v.samples);
    }
}

}  // namespace

void fill_setup_layers(const SetupResult& setup, LayerMetrics& layers) {
    layers.profile_s = median_of(setup.profile_samples_s);
    layers.load_ms = median_of(setup.load_samples_ms);
}

void finish_trace(Report& report, const LayerMetrics& layers, const SpanRecorder& spans,
                  const Args& args) {
    add_layer_metrics(report, layers);
    std::ostringstream self;
    self << std::setprecision(4);
    for (const auto& [name, ms] : spans.self_ms_by_name()) self << name << "=" << ms << " ";
    report.note("self_ms_by_span", self.str());
    spans.write_jsonl(args.out_dir + "/spans-" + args.workload + ".jsonl");
}

void DeployTally::fill(LayerMetrics& layers) const {
    if (jobs == 0 || wall_s <= 0.0) return;
    layers.deploy_jobs_per_s = {static_cast<double>(jobs) / wall_s, jobs};
}

void SolveTally::fill(const SpanRecorder& spans, LayerMetrics& layers) const {
    layers.lint_ms = median_of(spans.self_ms_of("lint.gate"));
    layers.greedy_ms = median_of(spans.self_ms_of("core.greedy"));
    layers.anneal_ms = median_of(spans.self_ms_of("core.anneal"));
    if (solves == 0 || anneal_wall_s <= 0.0) return;
    layers.anneal_iters_per_s = {static_cast<double>(iterations) / anneal_wall_s, solves};
    layers.anneal_cpu_per_wall = {anneal_cpu_s / worker_wall_s, solves};
    if (exchange_attempts > 0) {
        layers.exchange_accept_ratio = {
            static_cast<double>(exchange_accepts) / static_cast<double>(exchange_attempts),
            solves};
    }
    const std::uint64_t lookups = cache_hits + cache_misses;
    if (lookups > 0) {
        layers.cache_hit_ratio = {
            static_cast<double>(cache_hits) / static_cast<double>(lookups), solves};
    }
    layers.cache_misses = {static_cast<double>(cache_misses) / static_cast<double>(solves),
                           solves};
}

DecomposedPlan decomposed_cast_plus_plus(const model::PerfModelSet& models,
                                         const workload::Workload& workload,
                                         const core::CastOptions& options, ThreadPool* pool,
                                         std::size_t workers, core::EvalCache& cache,
                                         SpanRecorder& spans, std::uint64_t request,
                                         std::uint64_t parent, SolveTally& tally) {
    const core::EvalCacheStats before = cache.stats();
    spans.time("lint.gate", request, parent, [&] {
        lint::LintContext ctx;
        ctx.models = &models;
        ctx.reuse_aware = true;
        lint::enforce(lint::lint_workload(workload, ctx));
    });
    const core::PlanEvaluator evaluator = spans.time("core.evaluator", request, parent, [&] {
        return core::PlanEvaluator(models, workload, core::EvalOptions{.reuse_aware = true});
    });
    const core::TieringPlan initial = spans.time("core.greedy", request, parent, [&] {
        return core::greedy_projected_plan(evaluator, options.greedy_init, true, &cache);
    });
    core::AnnealingOptions annealing = options.annealing;
    annealing.group_moves = true;
    const core::AnnealingSolver solver(evaluator, annealing);
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    core::AnnealingResult result = solver.solve(initial, pool, &cache);
    const auto t1 = Clock::now();
    const double cpu1 = process_cpu_seconds();
    spans.add("core.anneal", request, parent, t0, t1);

    const double wall = std::chrono::duration<double>(t1 - t0).count();
    tally.anneal_wall_s += wall;
    tally.anneal_cpu_s += cpu1 - cpu0;
    tally.worker_wall_s += wall * static_cast<double>(pool == nullptr ? 1 : workers);
    tally.iterations += static_cast<std::uint64_t>(result.iterations);
    tally.exchange_attempts += result.tempering.total_attempts();
    tally.exchange_accepts += result.tempering.total_accepts();
    const core::EvalCacheStats after = cache.stats();
    tally.cache_hits += after.hits - before.hits;
    tally.cache_misses += after.misses - before.misses;
    ++tally.solves;
    return DecomposedPlan{std::move(result.plan), std::move(result.evaluation)};
}

void add_batch_quality(EndToEnd& e2e, const model::PerfModelSet& models,
                       const workload::Workload& workload, const core::TieringPlan& plan,
                       const core::PlanEvaluation& evaluation, bool deploy,
                       DeployTally& tally) {
    const core::PlanEvaluator evaluator(models, workload, core::EvalOptions{.reuse_aware = true});
    // The best exact-fit single-tier plan by modeled utility among those the
    // deployer accepts (Fig. 7's non-tiered configurations).
    std::optional<core::TieringPlan> baseline;
    double baseline_utility = 0.0;
    for (const cloud::StorageTier tier : cloud::kAllTiers) {
        core::TieringPlan uniform = core::TieringPlan::uniform(workload.size(), tier);
        const core::PlanEvaluation eval = evaluator.evaluate(uniform);
        if (!eval.feasible || eval.utility <= baseline_utility) continue;
        try {
            core::Deployer::validate_plan(evaluator, uniform);
        } catch (const ValidationError&) {
            continue;
        }
        baseline_utility = eval.utility;
        baseline = std::move(uniform);
    }
    CAST_EXPECTS_MSG(baseline.has_value(), "no feasible single-tier plan");
    e2e.plan_utilities.push_back(evaluation.utility);
    e2e.plan_gains.push_back(evaluation.utility / baseline_utility);
    if (!deploy) return;
    const core::Deployer deployer;
    const auto t0 = Clock::now();
    const double planned = deployer.deploy(evaluator, plan).utility;
    const double single_tier = deployer.deploy(evaluator, *baseline).utility;
    tally.wall_s += seconds_since(t0);
    tally.jobs += 2 * workload.size();
    e2e.deployed_utilities.push_back(planned);
    e2e.deployed_gains.push_back(planned / single_tier);
}

}  // namespace castbench
