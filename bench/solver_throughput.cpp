// Annealing-solver throughput on the 100-job Facebook workload the paper
// evaluates with (§5.1.1). Two rows, both through AnnealingSolver::solve:
//
//   soa_incremental_evaluation   one chain (a one-rung ladder) from one
//                                start plan: the SoA evaluation core's
//                                single-threaded iteration rate
//   tempering_solve              the default six-replica exchange ladder
//                                over the diverse start plans, on the pool
//
// Output: a JSON document written to BENCH_solver_throughput.json in the
// working directory and echoed to stdout — iterations/sec for each row,
// the memo-table hit rates and the exchange statistics. Progress goes to
// stderr.
//
// Usage: solver_throughput [--smoke] [--threads N]
// `--smoke` shrinks the iteration counts so the CTest smoke target finishes
// in seconds; the committed BENCH_solver_throughput.json comes from a full
// run.
#include <iostream>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "core/annealing.hpp"
#include "core/eval_cache.hpp"
#include "workload/facebook.hpp"

namespace {
using namespace cast;
using cloud::StorageTier;

struct ChainTiming {
    int iterations = 0;
    double seconds = 0.0;
    core::EvalCacheStats cache;

    [[nodiscard]] double iters_per_sec() const {
        return seconds > 0.0 ? iterations / seconds : 0.0;
    }
};

ChainTiming time_chain(const core::AnnealingSolver& solver, const core::TieringPlan& init) {
    core::EvalCache cache;
    const auto start = std::chrono::steady_clock::now();
    const core::AnnealingResult result = solver.solve(init, nullptr, &cache);
    ChainTiming t;
    t.iterations = result.iterations;
    t.seconds = bench::seconds_since(start);
    t.cache = cache.stats();
    return t;
}

// Min-of-N merge. The trajectory is deterministic, so every repeat produces
// the same utility and (with a fresh cache each repeat) the same hit/miss
// counts — only the wall clock varies, and keeping the fastest repeat
// strips the scheduler noise.
void take_min(ChainTiming& best, const ChainTiming& t) {
    if (best.iterations == 0 || t.seconds < best.seconds) best = t;
}

std::string timing_json(const ChainTiming& t) {
    bench::JsonObject json;
    json.add("iterations", t.iterations)
        .add("seconds", t.seconds, 4)
        .add("iters_per_sec", t.iters_per_sec(), 1)
        .add("cache_hits", static_cast<unsigned long long>(t.cache.hits))
        .add("cache_misses", static_cast<unsigned long long>(t.cache.misses))
        .add("cache_hit_rate", t.cache.hit_rate(), 4);
    return json.inline_str();
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const int chain_iters = args.smoke ? 500 : 20000;
    const int solve_iters = args.smoke ? 300 : 8000;

    std::cerr << "solver_throughput: annealing iterations/sec, single chain and tempering "
                 "ladder (Facebook workload, "
              << (args.smoke ? "smoke" : "full") << " run)\n";

    const auto cluster = cloud::ClusterSpec::paper_400_core();
    model::ProfilerOptions popts;
    popts.runs_per_point = 1;
    model::Profiler profiler(cluster, cloud::StorageCatalog::google_cloud(), popts);
    ThreadPool pool;
    const model::PerfModelSet models = profiler.profile(&pool);
    std::cerr << "[profiled " << cluster.worker_count << "x " << cluster.worker.name
              << "]\n";

    const workload::Workload workload = workload::synthesize_facebook_workload(42);
    core::PlanEvaluator evaluator(models, workload);
    const core::TieringPlan init =
        core::TieringPlan::uniform(workload.size(), StorageTier::kPersistentSsd);

    // --- Single chain from one start: the SoA core's iteration rate.
    core::AnnealingOptions chain_opts;
    chain_opts.iter_max = chain_iters;
    chain_opts.chains = 1;
    chain_opts.diverse_starts = false;
    chain_opts.seed = 99;
    const core::AnnealingSolver chain_solver(evaluator, chain_opts);

    // Warm-up pass (page in splines, size the allocator), then best-of-5
    // timed runs in full mode.
    const int repeats = args.smoke ? 1 : 5;
    (void)time_chain(chain_solver, init);
    ChainTiming soa;
    for (int rep = 0; rep < repeats; ++rep) take_min(soa, time_chain(chain_solver, init));
    std::cerr << "single chain: " << fmt(soa.iters_per_sec(), 0) << " it/s, hit rate "
              << fmt(soa.cache.hit_rate(), 3) << "\n";

    // --- The default tempering ladder on the pool, sharing one cache.
    core::AnnealingOptions temper_opts;
    temper_opts.iter_max = solve_iters;
    temper_opts.chains = 6;
    temper_opts.seed = 7;
    const core::AnnealingSolver temper_solver(evaluator, temper_opts);
    core::EvalCache temper_cache;
    const auto temper_start = std::chrono::steady_clock::now();
    const core::AnnealingResult temper_result =
        temper_solver.solve(init, &pool, &temper_cache);
    const double temper_seconds = bench::seconds_since(temper_start);
    std::cerr << "tempering solve: " << temper_result.iterations << " iterations in "
              << fmt(temper_seconds, 2) << " s, "
              << static_cast<unsigned long long>(temper_result.tempering.total_accepts())
              << "/"
              << static_cast<unsigned long long>(temper_result.tempering.total_attempts())
              << " exchanges accepted, utility " << fmt(temper_result.evaluation.utility, 4)
              << "\n";

    bench::JsonObject tempering;
    tempering.add("chains", temper_opts.chains)
        .add("iterations", temper_result.iterations)
        .add("seconds", temper_seconds, 4)
        .add("iters_per_sec", temper_result.iterations / temper_seconds, 1)
        .add("best_chain", temper_result.best_chain)
        .add("rounds", temper_result.tempering.rounds)
        .add("exchanges_attempted",
             static_cast<unsigned long long>(temper_result.tempering.total_attempts()))
        .add("exchanges_accepted",
             static_cast<unsigned long long>(temper_result.tempering.total_accepts()))
        .add("utility", temper_result.evaluation.utility, 6)
        .add("cache_hit_rate", temper_result.cache_stats.hit_rate(), 4);

    bench::JsonObject json;
    json.add("benchmark", "solver_throughput")
        .add("workload", "facebook_100_jobs")
        .add("cluster",
             std::to_string(cluster.worker_count) + "x " + cluster.worker.name)
        .add("mode", args.smoke ? "smoke" : "full")
        .add("host_cores", std::thread::hardware_concurrency())
        .add_raw("soa_incremental_evaluation", timing_json(soa))
        .add_raw("tempering_solve", tempering.inline_str());
    bench::write_bench_json("BENCH_solver_throughput.json", json);
    return 0;
}
