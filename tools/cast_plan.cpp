// cast_plan — command-line storage tiering planner.
//
// The operational entry point a tenant would actually use:
//
//   cast_plan tiers   [--catalog NAME]
//       Print the storage catalog (Table 1).
//
//   cast_plan profile --workers N [--catalog NAME] [--out FILE]
//       Run offline profiling for an N-worker cluster and save the model
//       set (expensive step; do it once per cluster shape).
//
//   cast_plan plan --models FILE --spec FILE [--reuse-aware] [--deploy]
//       Plan a batch workload spec; print the placement, capacities and
//       modeled cost/utility; optionally deploy on the simulator.
//
//   cast_plan workflow --models FILE --spec FILE [--deploy]
//       Plan a workflow spec under its deadline (CAST++ Eq. 8-10).
//
//   cast_plan synth --seed N [--out FILE]
//       Emit the paper's 100-job Facebook-derived workload as an editable
//       spec file.
//
//   cast_plan serve --models FILE --requests FILE [--workers N]
//                   [--governor] [--latency-target-ms X] [--fault-intensity I]
//                   [--metrics] [--metrics-out FILE] [--trace [N]]
//       Replay a request file through the long-lived PlannerService
//       (snapshot cache, batching, coalescing) and print per-request
//       results plus service/cache statistics. --governor enables the
//       overload governor (degradation ladder, deadline admission, retry +
//       circuit breakers); --fault-intensity injects the seeded serve-layer
//       fault profile at intensity I in [0, 1] for resilience drills.
//       The service always keeps its metrics registry; --metrics prints it
//       (counters, gauges, latency histograms) after the replay and
//       --metrics-out also writes the one-line JSON to a file. --trace
//       turns on the per-request span ring and dumps the timeline.
//
// Every command also accepts `--threads N` to pin thread-pool sizes
// (profiling, solver chains, service workers).
//
// Exit codes: 0 success, 1 usage error, 2 runtime/validation error.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/castpp.hpp"
#include "core/deployer.hpp"
#include "core/report.hpp"
#include "model/serialize.hpp"
#include "serve/request_spec.hpp"
#include "serve/service.hpp"
#include "workload/facebook.hpp"
#include "workload/spec_parser.hpp"

namespace {

using namespace cast;

struct Args {
    std::string command;
    std::map<std::string, std::string> options;
    std::vector<std::string> flags;

    [[nodiscard]] std::string get(const std::string& key, const std::string& def = "") const {
        const auto it = options.find(key);
        return it == options.end() ? def : it->second;
    }
    [[nodiscard]] bool has_flag(const std::string& f) const {
        return std::find(flags.begin(), flags.end(), f) != flags.end();
    }
};

int usage() {
    std::cerr
        << "usage:\n"
           "  cast_plan tiers    [--catalog google-cloud|aws-like]\n"
           "  cast_plan profile  --workers N [--catalog NAME] [--out FILE]\n"
           "  cast_plan plan     --models FILE --spec FILE [--reuse-aware] [--deploy]\n"
           "  cast_plan workflow --models FILE --spec FILE [--deploy]\n"
           "  cast_plan synth    [--seed N] [--out FILE]\n"
           "  cast_plan serve    --models FILE --requests FILE [--workers N]\n"
           "                     [--queue N] [--batch N] [--budget-ms X]\n"
           "                     [--governor] [--latency-target-ms X]\n"
           "                     [--fault-intensity I] [--fault-seed N]\n"
           "                     [--metrics] [--metrics-out FILE] [--trace [N]]\n"
           "                     (--metrics prints the registry, --metrics-out saves it)\n"
           "(all commands accept --threads N to pin thread-pool sizes)\n";
    return 1;
}

/// The serve table's label for a request kind.
const char* kind_name(serve::RequestKind kind) {
    switch (kind) {
        case serve::RequestKind::kBatch: return "batch";
        case serve::RequestKind::kWorkflow: return "workflow";
        case serve::RequestKind::kAmend: return "amend";
    }
    return "unknown";
}

/// Memo-table summary: how much of the evaluation work the cache absorbed.
void print_cache_stats(const core::EvalCacheStats& cache, std::ostream& os) {
    const std::uint64_t lookups = cache.hits + cache.misses;
    os << "cache:  " << cache.hits << "/" << lookups << " hits";
    if (lookups > 0) {
        os << " (" << fmt(100.0 * static_cast<double>(cache.hits) /
                              static_cast<double>(lookups),
                          1)
           << "%)";
    }
    os << ", L1 " << cache.l1_hits << ", shared " << cache.shared_hits << ", inserts "
       << cache.inserts << ", generation bumps " << cache.generation_bumps << "\n";
}

/// Search-effort and memo-table summary shared by plan/workflow output:
/// how hard the solver worked and how much the cache saved.
void print_solver_stats(int iterations, int best_chain, const core::EvalCacheStats& cache,
                        bool budget_exhausted, std::ostream& os) {
    os << "search: " << iterations << " annealing iterations, best chain " << best_chain;
    if (budget_exhausted) os << "  [budget exhausted: best-so-far plan]";
    os << "\n";
    print_cache_stats(cache, os);
}

Args parse_args(int argc, char** argv) {
    Args args;
    if (argc < 2) return args;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0) {
            throw ValidationError("unexpected argument: " + token);
        }
        token.erase(0, 2);
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
            args.options[token] = argv[++i];
        } else {
            args.flags.push_back(token);
        }
    }
    return args;
}

int cmd_tiers(const Args& args) {
    const auto catalog = cloud::StorageCatalog::by_name(args.get("catalog", "google-cloud"));
    std::cout << "catalog: " << catalog.name() << "\n";
    TextTable t({"tier", "description", "persistent", "$/GB/month", "max GB/VM",
                 "MB/s @500GB/VM"});
    for (cloud::StorageTier tier : cloud::kAllTiers) {
        const auto& svc = catalog.service(tier);
        const auto max = svc.max_capacity_per_vm();
        t.add_row({std::string(cloud::tier_name(tier)), svc.description(),
                   svc.persistent() ? "yes" : "no", fmt(svc.price_per_gb_month().value(), 3),
                   max ? fmt(max->value(), 0) : "unlimited",
                   fmt(svc.performance(svc.provision(GigaBytes{500.0})).read_bw.value(), 0)});
    }
    t.print(std::cout);
    return 0;
}

int cmd_profile(const Args& args) {
    const std::string workers = args.get("workers");
    if (workers.empty()) {
        std::cerr << "profile: --workers is required\n";
        return 1;
    }
    cloud::ClusterSpec cluster = cloud::ClusterSpec::paper_single_node();
    cluster.worker_count = std::stoi(workers);
    const auto catalog = cloud::StorageCatalog::by_name(args.get("catalog", "google-cloud"));
    std::cout << "profiling " << cluster.worker_count << " x " << cluster.worker.name
              << " against catalog '" << catalog.name() << "'...\n";
    ThreadPool pool;
    const auto models = model::Profiler(cluster, catalog).profile(&pool);
    const std::string out = args.get("out", "cast-models.txt");
    model::save_model_set_file(models, out);
    std::cout << "model set written to " << out << "\n";
    return 0;
}

int cmd_plan(const Args& args) {
    const std::string models_path = args.get("models");
    const std::string spec_path = args.get("spec");
    if (models_path.empty() || spec_path.empty()) {
        std::cerr << "plan: --models and --spec are required\n";
        return 1;
    }
    const auto models = model::load_model_set_file(models_path);
    const auto spec = workload::parse_spec_file(spec_path);
    if (spec.is_workflow()) {
        std::cerr << "plan: spec is a workflow; use 'cast_plan workflow'\n";
        return 1;
    }
    const auto& w = *spec.workload;
    const bool reuse_aware = args.has_flag("reuse-aware");

    core::CastOptions opts;
    const std::string budget = args.get("budget-ms");
    if (!budget.empty()) opts.annealing.max_wall_ms = std::stod(budget);
    const std::string seed = args.get("seed");
    if (!seed.empty()) opts.annealing.seed = std::stoull(seed);

    ThreadPool pool;
    const core::CastResult result = reuse_aware
                                        ? core::plan_cast_plus_plus(models, w, opts, &pool)
                                        : core::plan_cast(models, w, opts, &pool);
    core::PlanEvaluator evaluator(models, w, core::EvalOptions{.reuse_aware = reuse_aware});
    std::cout << (reuse_aware ? "CAST++" : "CAST") << " ";
    if (args.has_flag("deploy")) {
        const auto dep = core::Deployer().deploy(evaluator, result.plan);
        core::write_deployment_report(evaluator, result.plan, result.evaluation, dep,
                                      std::cout);
    } else {
        core::write_plan_report(evaluator, result.plan, result.evaluation, std::cout,
                                result.lint_notes);
    }
    print_solver_stats(result.iterations, result.best_chain, result.cache_stats,
                       result.budget_exhausted, std::cout);
    return 0;
}

int cmd_workflow(const Args& args) {
    const std::string models_path = args.get("models");
    const std::string spec_path = args.get("spec");
    if (models_path.empty() || spec_path.empty()) {
        std::cerr << "workflow: --models and --spec are required\n";
        return 1;
    }
    const auto models = model::load_model_set_file(models_path);
    const auto spec = workload::parse_spec_file(spec_path);
    if (!spec.is_workflow()) {
        std::cerr << "workflow: spec is a batch workload; use 'cast_plan plan'\n";
        return 1;
    }
    const auto& wf = *spec.workflow;
    ThreadPool pool;
    core::WorkflowEvaluator evaluator(models, wf);
    const auto solved = core::WorkflowSolver(evaluator).solve(&pool);
    std::cout << "CAST++ workflow plan for '" << wf.name() << "' (deadline "
              << fmt(wf.deadline().minutes(), 1) << " min):\n";
    TextTable t({"job", "tier", "capacity factor"});
    for (std::size_t i = 0; i < wf.size(); ++i) {
        t.add_row({wf.jobs()[i].name,
                   std::string(cloud::tier_name(solved.plan.decisions[i].tier)),
                   fmt(solved.plan.decisions[i].overprovision, 2)});
    }
    t.print(std::cout);
    std::cout << "modeled: runtime " << fmt(solved.evaluation.total_runtime.minutes(), 1)
              << " min, cost $" << fmt(solved.evaluation.total_cost().value(), 2)
              << (solved.evaluation.meets_deadline ? "  [meets deadline]"
                                                   : "  [deadline infeasible]")
              << "\n";
    print_solver_stats(solved.iterations, solved.best_chain, solved.cache_stats,
                       solved.budget_exhausted, std::cout);
    if (args.has_flag("deploy")) {
        const auto dep = core::Deployer().deploy_workflow(evaluator, solved.plan);
        std::cout << "deployed: runtime " << fmt(dep.total_runtime.minutes(), 1)
                  << " min, cost $" << fmt(dep.total_cost().value(), 2) << ", deadline "
                  << (dep.met_deadline ? "MET" : "MISSED") << "\n";
    }
    return 0;
}

int cmd_synth(const Args& args) {
    const std::uint64_t seed = std::stoull(args.get("seed", "42"));
    const auto w = workload::synthesize_facebook_workload(seed);
    const std::string out = args.get("out");
    if (out.empty()) {
        workload::write_spec(w, std::cout);
    } else {
        std::ofstream file(out);
        if (!file) throw ValidationError("cannot open " + out);
        workload::write_spec(w, file);
        std::cout << w.size() << "-job workload spec written to " << out << "\n";
    }
    return 0;
}

int cmd_serve(const Args& args) {
    const std::string models_path = args.get("models");
    const std::string requests_path = args.get("requests");
    if (models_path.empty() || requests_path.empty()) {
        std::cerr << "serve: --models and --requests are required\n";
        return 1;
    }
    serve::ServiceOptions opts;
    const std::string workers = args.get("workers");
    if (!workers.empty()) opts.workers = std::stoul(workers);
    const std::string queue = args.get("queue");
    if (!queue.empty()) opts.queue_capacity = std::stoul(queue);
    const std::string batch = args.get("batch");
    if (!batch.empty()) opts.max_batch = std::stoul(batch);
    const std::string budget = args.get("budget-ms");
    if (!budget.empty()) opts.default_max_wall_ms = std::stod(budget);

    // Overload governor: off by default (bit-identical to the plain
    // service); --latency-target-ms implies it since the target is its
    // only input a replay run would want to tune.
    const std::string latency_target = args.get("latency-target-ms");
    if (args.has_flag("governor") || !latency_target.empty()) {
        opts.governor.enabled = true;
        if (!latency_target.empty()) {
            opts.governor.latency_target_ms = std::stod(latency_target);
        }
    }
    const std::string intensity = args.get("fault-intensity");
    if (!intensity.empty()) {
        const std::string fault_seed = args.get("fault-seed", "1");
        opts.faults = serve::ServeFaultProfile::scaled(std::stod(intensity),
                                                       std::stoull(fault_seed));
    }

    // Observability: the registry is always on; --metrics prints it (tables
    // + one-line JSON after the replay, --metrics-out FILE for scraping).
    // --trace ring-buffers per-request spans (bare flag keeps the last 256,
    // `--trace N` sizes the ring) and prints the span timeline.
    const bool want_metrics = args.has_flag("metrics") || !args.get("metrics-out").empty();
    const std::string trace_n = args.get("trace");
    if (args.has_flag("trace")) {
        opts.obs.trace_capacity = 256;
    } else if (!trace_n.empty()) {
        opts.obs.trace_capacity = std::stoul(trace_n);
    }

    auto requests = serve::load_requests(requests_path);
    if (requests.empty()) {
        std::cerr << "serve: " << requests_path << " contains no requests\n";
        return 1;
    }
    const auto snapshot = serve::make_snapshot(model::load_model_set_file(models_path));
    serve::PlannerService service(snapshot, opts);
    std::cout << "serving " << requests.size() << " requests over " << opts.workers
              << " workers (snapshot epoch " << snapshot->epoch() << ")\n";

    // Open loop: everything is queued up front, so the dispatcher sees deep
    // batches and coalescing/caching get a fair chance to kick in.
    std::vector<std::future<serve::PlanResponse>> futures;
    futures.reserve(requests.size());
    for (serve::PlanRequest& request : requests) {
        futures.push_back(service.submit(std::move(request)));
    }

    TextTable t({"id", "kind", "status", "level", "utility / cost", "queue ms",
                 "solve ms", "notes"});
    int failures = 0;
    for (auto& future : futures) {
        const serve::PlanResponse resp = future.get();
        std::string outcome = "-";
        if (resp.batch) outcome = fmt(resp.batch->evaluation.utility, 3);
        if (resp.workflow) {
            outcome = "$";
            outcome += fmt(resp.workflow->evaluation.total_cost().value(), 2);
        }
        std::string status;
        switch (resp.status) {
            case serve::ResponseStatus::kOk: status = "ok"; break;
            case serve::ResponseStatus::kRejected: status = "rejected"; break;
            case serve::ResponseStatus::kError: status = "error"; break;
        }
        std::string notes;
        if (resp.coalesced) notes += "coalesced ";
        if (resp.budget_exhausted()) notes += "budget-exhausted ";
        if (resp.attempts > 1) {
            notes += "attempts=" + std::to_string(resp.attempts) + " ";
        }
        if (!resp.error.empty()) notes += resp.error;
        if (!resp.ok()) ++failures;
        t.add_row({std::to_string(resp.id), kind_name(resp.kind), status,
                   serve::degradation_level_name(resp.degradation_level), outcome,
                   fmt(resp.queue_ms, 2), fmt(resp.solve_ms, 2), notes});
    }
    t.print(std::cout);

    const serve::ServiceStats stats = service.stats();
    std::cout << "service: " << stats.completed << " completed, " << stats.rejected
              << " rejected, " << stats.errors << " errors, " << stats.coalesced
              << " coalesced across " << stats.batches << " dispatches\n";
    if (opts.governor.enabled) {
        std::cout << "governor: full " << stats.served_full << ", trimmed "
                  << stats.served_trimmed << ", greedy " << stats.served_greedy
                  << ", shed " << stats.governor_shed << " overload + "
                  << stats.deadline_shed << " deadline; retries "
                  << stats.solve_retries << ", breaker fast-fails "
                  << stats.breaker_fastfail << " (trips " << stats.breaker_trips
                  << "), ewma solve " << fmt(stats.ewma_solve_ms, 2) << " ms\n";
    }
    if (stats.faults.any()) {
        std::cout << "faults: " << stats.faults.stalls << " stalls ("
                  << fmt(stats.faults.stall_ms, 1) << " ms), "
                  << stats.faults.injected_exceptions << " injected exceptions\n";
    }
    print_cache_stats(stats.cache, std::cout);

    if (want_metrics) {
        std::cout << "\nmetrics (live registry):\n";
        service.metrics().write_table(std::cout);
        std::cout << "metrics-json: " << service.metrics().json() << "\n";
        const std::string metrics_out = args.get("metrics-out");
        if (!metrics_out.empty()) {
            std::ofstream out(metrics_out);
            out << service.metrics().json() << "\n";
            out.flush();
            if (!out) {
                std::cerr << "serve: cannot write metrics to " << metrics_out << "\n";
                return 2;
            }
            std::cout << "[metrics written to " << metrics_out << "]\n";
        }
    }
    if (service.trace_ring().enabled()) {
        const auto total = service.trace_ring().total_pushed();
        std::cout << "\ntrace (" << service.trace_ring().size() << " of " << total
                  << " spans buffered):\n";
        service.trace_ring().write_table(std::cout);
    }
    return failures == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args args = parse_args(argc, argv);
        // Applied before any ThreadPool exists: default_workers() reads it.
        const std::string threads = args.get("threads");
        if (!threads.empty()) ::setenv("CAST_THREADS", threads.c_str(), 1);
        if (args.command == "tiers") return cmd_tiers(args);
        if (args.command == "profile") return cmd_profile(args);
        if (args.command == "plan") return cmd_plan(args);
        if (args.command == "workflow") return cmd_workflow(args);
        if (args.command == "synth") return cmd_synth(args);
        if (args.command == "serve") return cmd_serve(args);
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "cast_plan: " << e.what() << "\n";
        return 2;
    }
}
