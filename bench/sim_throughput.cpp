// Batch-simulation throughput bench: the same batch run serially (each
// thread reuses its simulation arena) and fanned over the work-stealing
// pool. Writes BENCH_sim_throughput.json.
//
// Determinism is asserted, not assumed: the serial and pooled runs must
// produce bit-identical makespans (exact double equality) before any
// number is reported. host_cores is recorded so a single-core CI host's
// ~1x parallel factor is legible next to a multi-core host's scaling.
//
// Usage: sim_throughput [--smoke] [--threads N]
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/batch.hpp"

namespace {
using namespace cast;
using cloud::StorageTier;
using workload::AppKind;

/// A mixed batch shaped like the experiment drivers' workloads: every
/// (app, tier, capacity, seed) combination the sweeps touch.
std::vector<sim::BatchConfig> make_batch(int repeats) {
    const std::vector<std::pair<AppKind, double>> jobs = {
        {AppKind::kSort, 25.0}, {AppKind::kGrep, 60.0}, {AppKind::kKMeans, 12.0}};
    const std::vector<StorageTier> tiers = {StorageTier::kPersistentSsd,
                                            StorageTier::kPersistentHdd,
                                            StorageTier::kEphemeralSsd};
    std::vector<sim::BatchConfig> configs;
    int id = 1;
    for (int rep = 0; rep < repeats; ++rep) {
        for (const auto& [app, gb] : jobs) {
            for (StorageTier tier : tiers) {
                const workload::JobSpec job = bench::make_job(id++, app, gb);
                sim::TierCapacities caps;
                caps.set(tier, GigaBytes{300.0 + 100.0 * (rep % 8)});
                if (tier == StorageTier::kObjectStore) {
                    caps.set(StorageTier::kPersistentSsd, GigaBytes{300.0});
                }
                configs.push_back(sim::BatchConfig{
                    sim::JobPlacement::on_tier(job, tier), caps,
                    sim::SimOptions{.seed = 42 + static_cast<std::uint64_t>(rep),
                                    .jitter_sigma = 0.06}});
            }
        }
    }
    return configs;
}

bool identical(const std::vector<sim::BatchOutcome>& a,
               const std::vector<sim::BatchOutcome>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].failed != b[i].failed) return false;
        if (a[i].result.makespan.value() != b[i].result.makespan.value()) return false;
        if (a[i].result.phases.total().value() != b[i].result.phases.total().value()) {
            return false;
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    // Full mode needs enough jobs that each timed mode runs ~1 s — per-job
    // cost is ~0.3 ms, so timing noise swamps anything much smaller.
    const int repeats = args.smoke ? 1 : 300;

    const auto cluster = cloud::ClusterSpec::paper_10_node();
    const auto catalog = cloud::StorageCatalog::google_cloud();
    const sim::BatchRunner runner(cluster, catalog);
    const std::vector<sim::BatchConfig> configs = make_batch(repeats);
    const auto n = static_cast<double>(configs.size());
    std::cerr << "sim_throughput: " << configs.size() << " configs"
              << (args.smoke ? " (smoke)" : "") << "\n";

    // Warm-up: fault in code paths and page in the catalog before timing.
    (void)runner.run({configs.front()});

    // 1. Serial.
    auto t0 = std::chrono::steady_clock::now();
    const auto serial = runner.run(configs);
    const double serial_s = bench::seconds_since(t0);

    // 2. Fanned over the work-stealing pool.
    ThreadPool pool;
    t0 = std::chrono::steady_clock::now();
    const auto pooled = runner.run(configs, &pool);
    const double pooled_s = bench::seconds_since(t0);

    if (!identical(serial, pooled)) {
        std::cerr << "FAIL: batch outcomes differ across modes\n";
        return 1;
    }

    const double parallel_speedup = serial_s / pooled_s;
    const unsigned host_cores = std::thread::hardware_concurrency();

    std::cerr << "serial:              " << fmt(serial_s, 2) << " s ("
              << fmt(n / serial_s, 1) << " jobs/s)\n"
              << "pooled (" << pool.worker_count() << " workers): " << fmt(pooled_s, 2)
              << " s (" << fmt(n / pooled_s, 1) << " jobs/s, " << fmt(parallel_speedup, 2)
              << "x)\n"
              << "determinism: serial and pooled outcomes bit-identical\n";

    bench::JsonObject json;
    json.add("bench", "sim_throughput")
        .add("smoke", args.smoke)
        .add("configs", static_cast<unsigned long long>(configs.size()))
        .add("host_cores", host_cores)
        .add("pool_workers", static_cast<unsigned long long>(pool.worker_count()))
        .add("serial_reuse_s", serial_s, 4)
        .add("pooled_s", pooled_s, 4)
        .add("jobs_per_s_serial_reuse", n / serial_s, 2)
        .add("jobs_per_s_pooled", n / pooled_s, 2)
        .add("parallel_speedup", parallel_speedup, 3)
        .add("deterministic_across_modes", true);
    bench::write_bench_json("BENCH_sim_throughput.json", json);
    return 0;
}
