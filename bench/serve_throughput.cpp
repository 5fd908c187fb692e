// Closed/open-loop throughput of the cast::serve planning service, vs the
// one-shot pipeline it replaces. Writes BENCH_serve_throughput.json.
//
// The serial baseline is the true per-request cost of today's CLI flow:
// every request re-loads the profiled model set from disk and builds a
// fresh EvalCache before solving (exactly what one cast_plan invocation
// does). The service keeps one immutable Snapshot warm and shares its
// snapshot-scoped cache across requests, so request N+1 reuses every REG
// runtime request N computed. Requests replay a small set of popular
// workload templates — the serving scenario the snapshot cache is built
// for.
//
// Measured per configuration (1/2/8 workers x closed/open loop):
// sustained plans/sec, p50/p95/p99 end-to-end latency, and the shared
// cache's hit rate. A final budgeted configuration sets a per-request
// max_wall_ms with an iteration count that could not finish in time, and
// checks p99 solve latency respects the budget within 10%.
//
// Determinism is asserted, not assumed: every unbudgeted service response
// must carry exactly the utility the cold baseline computed for the same
// request (the cache is bit-transparent and solvers are deterministic).
//
// Usage: serve_throughput [--smoke] [--threads N]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "model/serialize.hpp"
#include "serve/service.hpp"
#include "workload/job.hpp"

namespace {
using namespace cast;
using workload::AppKind;

/// Popular workload templates over one pool of quantized job shapes (sizes
/// snap to a few values, as production job mixes do). Templates overlap in
/// shapes, so the snapshot cache amortizes both within and across them.
std::vector<workload::Workload> make_templates() {
    const std::vector<std::pair<AppKind, double>> shapes = {
        {AppKind::kSort, 15.0},   {AppKind::kSort, 30.0},  {AppKind::kGrep, 30.0},
        {AppKind::kGrep, 60.0},   {AppKind::kKMeans, 8.0}, {AppKind::kKMeans, 15.0},
        {AppKind::kJoin, 15.0},   {AppKind::kJoin, 30.0},  {AppKind::kSort, 60.0},
        {AppKind::kGrep, 120.0},  {AppKind::kKMeans, 30.0}, {AppKind::kJoin, 60.0},
    };
    // Each template draws 8 of the 12 shapes, offset per template.
    std::vector<workload::Workload> templates;
    for (int t = 0; t < 6; ++t) {
        std::vector<workload::JobSpec> jobs;
        for (int j = 0; j < 8; ++j) {
            const auto& [app, gb] = shapes[(t * 2 + j) % shapes.size()];
            jobs.push_back(bench::make_job(j + 1, app, gb));
        }
        templates.emplace_back(std::move(jobs));
    }
    return templates;
}

std::vector<serve::PlanRequest> make_requests(const std::vector<workload::Workload>& templates,
                                              int count) {
    std::vector<serve::PlanRequest> requests;
    for (int i = 0; i < count; ++i) {
        serve::PlanRequest req;
        req.id = static_cast<std::uint64_t>(i + 1);
        req.kind = serve::RequestKind::kBatch;
        // Zipf-flavoured popularity: the two hottest templates take half
        // the traffic, the tail shares the rest.
        static constexpr std::size_t kSchedule[] = {0, 1, 0, 2, 1, 3, 0, 4, 1, 5, 2, 1};
        req.workload = templates[kSchedule[i % std::size(kSchedule)] % templates.size()];
        requests.push_back(std::move(req));
    }
    return requests;
}

struct RunStats {
    std::string name;
    std::size_t workers = 0;
    double wall_s = 0.0;
    double plans_per_sec = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double cache_hit_rate = 0.0;
    unsigned long long coalesced = 0;

    [[nodiscard]] std::string json() const {
        bench::JsonObject o;
        o.add("config", name)
            .add("workers", static_cast<unsigned long long>(workers))
            .add("wall_s", wall_s, 4)
            .add("plans_per_sec", plans_per_sec, 2);
        // percentile() of an empty sample is NaN — omit rather than emit a
        // fake 0.0 (and NaN is not a valid JSON token anyway).
        if (std::isfinite(p50_ms)) o.add("p50_ms", p50_ms, 3);
        if (std::isfinite(p95_ms)) o.add("p95_ms", p95_ms, 3);
        if (std::isfinite(p99_ms)) o.add("p99_ms", p99_ms, 3);
        o.add("cache_hit_rate", cache_hit_rate, 4)
            .add("coalesced", coalesced);
        return o.inline_str();
    }
};

RunStats finish_stats(std::string name, std::size_t workers, double wall_s,
                      std::vector<double> latencies_ms, double hit_rate) {
    RunStats s;
    s.name = std::move(name);
    s.workers = workers;
    s.wall_s = wall_s;
    s.plans_per_sec = wall_s > 0.0 ? static_cast<double>(latencies_ms.size()) / wall_s : 0.0;
    s.p50_ms = bench::percentile(latencies_ms, 50.0);
    s.p95_ms = bench::percentile(latencies_ms, 95.0);
    s.p99_ms = bench::percentile(latencies_ms, 99.0);
    s.cache_hit_rate = hit_rate;
    return s;
}

/// Utility of a response, for the bit-identity cross-check.
double utility_of(const serve::PlanResponse& resp) {
    return resp.batch ? resp.batch->evaluation.utility : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const int request_count = args.smoke ? 12 : 60;
    const int iter_max = args.smoke ? 300 : 2000;
    const double budget_ms = args.smoke ? 30.0 : 50.0;

    std::cerr << "serve_throughput: planning service vs one-shot pipeline ("
              << request_count << " requests, " << (args.smoke ? "smoke" : "full")
              << " run)\n";

    // --- One-time offline profiling, persisted the way a deployment would.
    const auto cluster = cloud::ClusterSpec::paper_400_core();
    model::ProfilerOptions popts;
    popts.runs_per_point = 1;
    model::Profiler profiler(cluster, cloud::StorageCatalog::google_cloud(), popts);
    model::PerfModelSet profiled = [&] {
        ThreadPool pool;
        return profiler.profile(&pool);
    }();
    const std::string model_path = "serve_throughput_models.tmp";
    model::save_model_set_file(profiled, model_path);
    std::cerr << "[profiled " << cluster.worker_count << "x " << cluster.worker.name
              << ", model set saved]\n";

    const std::vector<workload::Workload> templates = make_templates();
    const std::vector<serve::PlanRequest> requests = make_requests(templates, request_count);

    serve::ServiceOptions sopts;
    sopts.queue_capacity = requests.size() + 8;
    // Deep dispatches give the coalescer more duplicates to fold under
    // open-loop load; closed-loop runs never see a batch deeper than 1.
    sopts.max_batch = 32;
    sopts.solver.annealing.iter_max = iter_max;
    sopts.solver.annealing.chains = 2;
    // Tracing stays ON for every service run (the metrics registry is
    // always on): the numbers this bench commits (and bench_gate compares)
    // are for the observed service, so the observability overhead is itself
    // under the perf gate, and the bit-identity check below proves
    // observation never perturbs the plans.
    sopts.obs.trace_capacity = 64;

    // --- Cold serial baseline: the one-shot pipeline, once per request.
    std::vector<double> base_lat;
    std::map<std::uint64_t, double> expected_utility;
    const auto base_t0 = std::chrono::steady_clock::now();
    for (const serve::PlanRequest& req : requests) {
        const auto t0 = std::chrono::steady_clock::now();
        const serve::Snapshot cold(model::load_model_set_file(model_path));
        const serve::PlanResponse resp = serve::PlannerService::solve_direct(cold, req, sopts);
        base_lat.push_back(bench::seconds_since(t0) * 1000.0);
        expected_utility[req.id] = utility_of(resp);
    }
    const double base_wall = bench::seconds_since(base_t0);
    const RunStats baseline =
        finish_stats("serial_cold_baseline", 1, base_wall, base_lat, 0.0);
    std::cerr << "cold baseline: " << fmt(baseline.plans_per_sec, 1) << " plans/s, p50 "
              << fmt(baseline.p50_ms, 1) << " ms\n";

    // --- Warm serial reference: one snapshot, direct solves back to back.
    // Separates the cache's contribution from the model-reload savings.
    std::vector<double> warm_lat;
    const serve::SnapshotPtr warm_snap =
        serve::make_snapshot(model::load_model_set_file(model_path));
    const auto warm_t0 = std::chrono::steady_clock::now();
    for (const serve::PlanRequest& req : requests) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)serve::PlannerService::solve_direct(*warm_snap, req, sopts);
        warm_lat.push_back(bench::seconds_since(t0) * 1000.0);
    }
    const RunStats warm_serial = finish_stats("serial_warm_snapshot", 1,
                                              bench::seconds_since(warm_t0), warm_lat,
                                              warm_snap->cache().stats().hit_rate());
    std::cerr << "warm serial:   " << fmt(warm_serial.plans_per_sec, 1)
              << " plans/s, cache hit rate " << fmt(warm_serial.cache_hit_rate, 3) << "\n";

    // --- Service configurations: workers x loop discipline. Every config
    // starts from a fresh (cold) snapshot so runs are independent.
    std::vector<RunStats> runs;
    std::string metrics_snapshot;
    bool identical = true;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        for (const bool open_loop : {false, true}) {
            serve::ServiceOptions opts = sopts;
            opts.workers = workers;
            serve::PlannerService service(
                serve::make_snapshot(model::load_model_set_file(model_path)), opts);
            std::vector<double> lat;
            const auto t0 = std::chrono::steady_clock::now();
            if (open_loop) {
                std::vector<std::future<serve::PlanResponse>> futures;
                futures.reserve(requests.size());
                for (const serve::PlanRequest& req : requests) {
                    futures.push_back(service.submit(req));
                }
                for (auto& f : futures) {
                    const serve::PlanResponse resp = f.get();
                    lat.push_back(resp.queue_ms + resp.solve_ms);
                    identical &= resp.ok() &&
                                 utility_of(resp) == expected_utility.at(resp.id);
                }
            } else {
                for (const serve::PlanRequest& req : requests) {
                    const auto r0 = std::chrono::steady_clock::now();
                    const serve::PlanResponse resp = service.submit(req).get();
                    lat.push_back(bench::seconds_since(r0) * 1000.0);
                    identical &= resp.ok() &&
                                 utility_of(resp) == expected_utility.at(resp.id);
                }
            }
            const double wall = bench::seconds_since(t0);
            const std::string name = (open_loop ? "service_open_" : "service_closed_") +
                                     std::to_string(workers) + "w";
            const serve::ServiceStats stats = service.stats();
            // Keep the freshest registry export; the last config (8-worker
            // open loop) wins and becomes the committed CI artifact.
            metrics_snapshot = service.metrics().json();
            runs.push_back(finish_stats(name, workers, wall, lat, stats.cache.hit_rate()));
            runs.back().coalesced = stats.coalesced;
            std::cerr << name << ": " << fmt(runs.back().plans_per_sec, 1)
                      << " plans/s, p99 " << fmt(runs.back().p99_ms, 1)
                      << " ms, hit rate " << fmt(runs.back().cache_hit_rate, 3)
                      << ", coalesced " << stats.coalesced << "\n";
        }
    }

    // --- Budgeted configuration: iteration counts that cannot finish in
    // max_wall_ms, so the wall budget is what bounds latency. Workers are
    // capped at the host's cores: the budget bounds a solve's wall time
    // while it holds a core, and oversubscribed workers would add scheduler
    // wait between deadline polls that no in-solve clock can mask.
    serve::ServiceOptions bopts = sopts;
    bopts.workers = std::max(1u, std::min(8u, std::thread::hardware_concurrency()));
    bopts.solver.annealing.iter_max = 2'000'000;
    bopts.default_max_wall_ms = budget_ms;
    std::vector<double> budget_solve_ms;
    bool budget_flagged = true;
    {
        serve::PlannerService service(
            serve::make_snapshot(model::load_model_set_file(model_path)), bopts);
        std::vector<std::future<serve::PlanResponse>> futures;
        for (const serve::PlanRequest& req : requests) {
            futures.push_back(service.submit(req));
        }
        for (auto& f : futures) {
            const serve::PlanResponse resp = f.get();
            budget_solve_ms.push_back(resp.solve_ms);
            budget_flagged &= resp.ok() && resp.budget_exhausted();
        }
    }
    const double budget_p99 = bench::percentile(budget_solve_ms, 99.0);
    const bool budget_respected = budget_p99 <= budget_ms * 1.10;
    std::cerr << "budgeted (" << fmt(budget_ms, 0) << " ms): p99 solve "
              << fmt(budget_p99, 1) << " ms, all flagged budget_exhausted: "
              << (budget_flagged ? "yes" : "no") << "\n";

    const double service_8w_open = runs.back().plans_per_sec;
    const double speedup = baseline.plans_per_sec > 0.0
                               ? service_8w_open / baseline.plans_per_sec
                               : 0.0;
    std::cerr << "speedup (8-worker open loop vs cold serial): " << fmt(speedup, 2)
              << "x, bit-identical: " << (identical ? "yes" : "NO") << "\n";

    std::string runs_json = "[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i > 0) runs_json += ", ";
        runs_json += runs[i].json();
    }
    runs_json += "]";

    bench::JsonObject json;
    json.add("bench", "serve_throughput")
        .add("mode", args.smoke ? "smoke" : "full")
        .add("requests", request_count)
        .add("templates", static_cast<unsigned long long>(templates.size()))
        .add("iter_max", iter_max)
        .add("host_cores", std::thread::hardware_concurrency())
        .add_raw("serial_cold_baseline", baseline.json())
        .add_raw("serial_warm_snapshot", warm_serial.json())
        .add_raw("service_runs", runs_json)
        .add("speedup_8w_open_vs_cold", speedup, 2)
        .add("bit_identical_utilities", identical)
        .add("budget_ms", budget_ms, 1);
    if (std::isfinite(budget_p99)) json.add("budget_p99_solve_ms", budget_p99, 3);
    json.add("budget_respected_within_10pct", budget_respected)
        .add("budget_all_flagged_exhausted", budget_flagged);
    bench::write_bench_json("BENCH_serve_throughput.json", json);

    // Live-registry export from the last service run: the CI artifact that
    // shows what an operator would scrape (counters, queue/cache gauges,
    // per-priority latency histograms) — one line of JSON.
    {
        const std::string metrics_path = "BENCH_serve_throughput_metrics.json";
        std::ofstream mout(metrics_path);
        mout << metrics_snapshot << "\n";
        mout.flush();
        if (!mout) {
            std::cerr << "FAIL: cannot write '" << metrics_path << "'\n";
            return 1;
        }
    }
    std::remove(model_path.c_str());

    if (!identical) {
        std::cerr << "FAIL: service responses diverge from the cold baseline\n";
        return 1;
    }
    if (!budget_respected) {
        std::cerr << "FAIL: budgeted p99 " << fmt(budget_p99, 1) << " ms exceeds "
                  << fmt(budget_ms * 1.10, 1) << " ms\n";
        return 1;
    }
    // Smoke checks contracts only; the full run must clear the 3x bar.
    if (!args.smoke && speedup < 3.0) {
        std::cerr << "FAIL: speedup " << fmt(speedup, 2) << "x below the 3x target\n";
        return 1;
    }
    return 0;
}
