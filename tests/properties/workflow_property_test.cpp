// Parameterized property tests over workflow DAG utilities and the
// workflow evaluator, across random DAG shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "common/rng.hpp"
#include "core/castpp.hpp"
#include "core/eval_cache.hpp"
#include "lint/checks.hpp"
#include "test_support.hpp"
#include "workload/workflow.hpp"

namespace cast::workload {
namespace {

JobSpec wf_job(int id, AppKind app, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return JobSpec{.id = id,
                   .name = "wfp-" + std::to_string(id),
                   .app = app,
                   .input = GigaBytes{gb},
                   .map_tasks = maps,
                   .reduce_tasks = std::max(1, maps / 4),
                   .reuse_group = std::nullopt};
}

/// Random DAG: edges only from lower to higher ids (acyclic by
/// construction), with tunable density.
Workflow random_dag(std::uint64_t seed, int n, double edge_prob) {
    Rng rng(seed);
    std::vector<JobSpec> jobs;
    std::vector<WorkflowEdge> edges;
    for (int i = 1; i <= n; ++i) {
        jobs.push_back(wf_job(i, kAllApps[rng.below(kAllApps.size())],
                              rng.uniform(10.0, 100.0)));
    }
    for (int u = 1; u <= n; ++u) {
        for (int v = u + 1; v <= n; ++v) {
            if (rng.uniform() < edge_prob) edges.push_back({u, v});
        }
    }
    return Workflow("dag-" + std::to_string(seed), std::move(jobs), std::move(edges),
                    Seconds{1e6});
}

class DagSweep : public ::testing::TestWithParam<std::uint64_t> {
protected:
    Workflow wf = random_dag(GetParam(), 4 + static_cast<int>(GetParam() % 7), 0.35);
};

TEST_P(DagSweep, TopologicalOrderIsAValidLinearization) {
    const auto order = wf.topological_order();
    ASSERT_EQ(order.size(), wf.size());
    std::vector<std::size_t> position(wf.size());
    for (std::size_t k = 0; k < order.size(); ++k) position[order[k]] = k;
    for (const auto& e : wf.edges()) {
        EXPECT_LT(position[wf.index_of(e.from_job)], position[wf.index_of(e.to_job)]);
    }
}

TEST_P(DagSweep, DfsVisitsEveryJobExactlyOnce) {
    auto order = wf.dfs_order();
    ASSERT_EQ(order.size(), wf.size());
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST_P(DagSweep, PredecessorsAndSuccessorsAreDuals) {
    for (std::size_t u = 0; u < wf.size(); ++u) {
        for (std::size_t v : wf.successors(u)) {
            const auto preds = wf.predecessors(v);
            EXPECT_NE(std::find(preds.begin(), preds.end(), u), preds.end());
        }
    }
}

TEST_P(DagSweep, RootsHaveNoPredecessors) {
    const auto roots = wf.roots();
    EXPECT_FALSE(roots.empty());
    for (std::size_t r : roots) EXPECT_TRUE(wf.predecessors(r).empty());
}

TEST_P(DagSweep, EvaluatorRuntimeDecomposes) {
    core::WorkflowEvaluator eval(cast::testing::small_models(), wf);
    const auto plan =
        core::WorkflowPlan::uniform(wf.size(), cloud::StorageTier::kPersistentSsd);
    const auto e = eval.evaluate(plan);
    ASSERT_TRUE(e.feasible);
    double sum = 0.0;
    for (const auto& t : e.job_runtimes) sum += t.value();
    for (const auto& t : e.transfer_times) sum += t.value();
    EXPECT_NEAR(e.total_runtime.value(), sum, 1e-6);
}

TEST_P(DagSweep, UniformPlanHasNoTransfers) {
    core::WorkflowEvaluator eval(cast::testing::small_models(), wf);
    const auto e = eval.evaluate(
        core::WorkflowPlan::uniform(wf.size(), cloud::StorageTier::kPersistentHdd));
    ASSERT_TRUE(e.feasible);
    for (const auto& t : e.transfer_times) EXPECT_DOUBLE_EQ(t.value(), 0.0);
}

TEST_P(DagSweep, SplittingOneJobOnlyAddsTransfersOnItsEdges) {
    core::WorkflowEvaluator eval(cast::testing::small_models(), wf);
    auto plan = core::WorkflowPlan::uniform(wf.size(), cloud::StorageTier::kPersistentSsd);
    const std::size_t moved = wf.size() / 2;
    plan.decisions[moved] = {cloud::StorageTier::kPersistentHdd, 1.0};
    const auto e = eval.evaluate(plan);
    ASSERT_TRUE(e.feasible);
    for (std::size_t k = 0; k < wf.edges().size(); ++k) {
        const auto& edge = wf.edges()[k];
        const bool touches = wf.index_of(edge.from_job) == moved ||
                             wf.index_of(edge.to_job) == moved;
        if (!touches) {
            EXPECT_DOUBLE_EQ(e.transfer_times[k].value(), 0.0);
        } else if (wf.jobs()[wf.index_of(edge.from_job)].output().value() > 0.0) {
            EXPECT_GT(e.transfer_times[k].value(), 0.0);
        }
    }
}

TEST_P(DagSweep, CompiledTopologyMatchesWorkflowQueries) {
    const core::WorkflowEvaluator eval(cast::testing::small_models(), wf);
    const core::WorkflowTopology& topo = eval.topology();
    EXPECT_EQ(topo.topological_order, wf.topological_order());
    EXPECT_EQ(topo.dfs_order, wf.dfs_order());
    ASSERT_EQ(topo.predecessors.size(), wf.size());
    for (std::size_t i = 0; i < wf.size(); ++i) {
        EXPECT_EQ(topo.predecessors[i], wf.predecessors(i));
        EXPECT_EQ(topo.is_root[i] != 0, wf.predecessors(i).empty());
        EXPECT_EQ(topo.is_terminal[i] != 0, wf.successors(i).empty());
    }
    ASSERT_EQ(topo.edges.size(), wf.edges().size());
    for (std::size_t k = 0; k < wf.edges().size(); ++k) {
        EXPECT_EQ(topo.edges[k].first, wf.index_of(wf.edges()[k].from_job));
        EXPECT_EQ(topo.edges[k].second, wf.index_of(wf.edges()[k].to_job));
    }
    EXPECT_FALSE(topo.any_pinned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagSweep,
                         ::testing::Values(2u, 9u, 16u, 25u, 36u, 49u, 64u, 81u));

// --- Differential: compiled topology vs per-call derivation.
//
// reference_evaluate transcribes WorkflowEvaluator::evaluate as it stood
// before the DAG was compiled: every call re-derives predecessors,
// successors, the topological order and edge indices from the Workflow,
// and every edge endpoint derives its tier bandwidth afresh. It exists only
// here, as the oracle the compiled evaluator must match bit for bit.

using cloud::StorageTier;
using cloud::tier_index;

GigaBytes reference_requirement(const Workflow& wf, const core::WorkflowPlan& plan,
                                std::size_t job_idx) {
    const auto& job = wf.jobs()[job_idx];
    const StorageTier tier = plan.decisions[job_idx].tier;
    const auto preds = wf.predecessors(job_idx);
    bool input_resident = !preds.empty();
    for (std::size_t p : preds) {
        if (plan.decisions[p].tier != tier) input_resident = false;
    }
    GigaBytes req = job.intermediate() + job.output();
    if (!input_resident) req += job.input;
    return req;
}

Seconds reference_transfer(const model::PerfModelSet& models, GigaBytes volume,
                           StorageTier from, GigaBytes from_per_vm, StorageTier to,
                           GigaBytes to_per_vm) {
    if (volume.value() <= 0.0 || from == to) return Seconds{0.0};
    const auto& catalog = models.catalog();
    const int nvm = models.cluster().worker_count;
    auto side_bw = [&](StorageTier t, GigaBytes per_vm, bool reading) {
        const auto& svc = catalog.service(t);
        if (t == StorageTier::kObjectStore) {
            return reading ? svc.cluster_read_bw(per_vm, nvm).value()
                           : svc.cluster_write_bw(per_vm, nvm).value();
        }
        const auto perf = svc.performance(svc.provision(per_vm));
        return (reading ? perf.read_bw.value() : perf.write_bw.value()) * nvm;
    };
    const double cluster_mbps =
        std::min(side_bw(from, from_per_vm, true), side_bw(to, to_per_vm, false));
    return Seconds{volume.megabytes() / cluster_mbps};
}

core::WorkflowEvaluation reference_evaluate(const model::PerfModelSet& models,
                                            const Workflow& wf,
                                            const core::WorkflowPlan& plan,
                                            core::EvalCache* cache) {
    core::WorkflowEvaluation eval;
    {
        std::vector<lint::Finding> violations;
        lint::check_tier_pins(wf.jobs(), plan.decisions, violations);
        if (!violations.empty()) {
            eval.infeasibility = violations.front().message;
            return eval;
        }
    }
    const int nvm = models.cluster().worker_count;
    bool any_on_object_store = false;
    GigaBytes max_object_store_inter{0.0};
    for (std::size_t i = 0; i < wf.size(); ++i) {
        const auto& d = plan.decisions[i];
        const auto& job = wf.jobs()[i];
        const GigaBytes ci{reference_requirement(wf, plan, i).value() * d.overprovision};
        eval.capacities.aggregate[tier_index(d.tier)] += ci;
        if (d.tier == StorageTier::kEphemeralSsd) {
            GigaBytes backing = job.output();
            if (wf.predecessors(i).empty()) backing += job.input;
            eval.capacities.aggregate[tier_index(StorageTier::kObjectStore)] += backing;
        }
        if (d.tier == StorageTier::kObjectStore) {
            any_on_object_store = true;
            if (job.intermediate() > max_object_store_inter) {
                max_object_store_inter = job.intermediate();
            }
        }
    }
    if (any_on_object_store) {
        auto& pers = eval.capacities.aggregate[tier_index(StorageTier::kPersistentSsd)];
        const GigaBytes floor{
            cloud::object_store_intermediate_volume(max_object_store_inter, nvm).value() *
            nvm};
        if (pers < floor) pers = floor;
    }
    try {
        for (StorageTier t : cloud::kAllTiers) {
            const GigaBytes agg = eval.capacities.aggregate[tier_index(t)];
            if (agg.value() <= 0.0) continue;
            if (t == StorageTier::kObjectStore) {
                eval.capacities.per_vm[tier_index(t)] = GigaBytes{agg.value() / nvm};
                continue;
            }
            const auto& service = models.catalog().service(t);
            const GigaBytes per_vm = service.provision(GigaBytes{agg.value() / nvm});
            eval.capacities.per_vm[tier_index(t)] = per_vm;
            eval.capacities.aggregate[tier_index(t)] = GigaBytes{per_vm.value() * nvm};
        }
    } catch (const ValidationError& e) {
        eval.infeasibility = e.what();
        return eval;
    }
    Seconds total{0.0};
    eval.job_runtimes.assign(wf.size(), Seconds{0.0});
    for (std::size_t i : wf.topological_order()) {
        const auto& d = plan.decisions[i];
        model::StagingLegs legs{false, false};
        if (d.tier == StorageTier::kEphemeralSsd) {
            legs.download_input = wf.predecessors(i).empty();
            legs.upload_output = wf.successors(i).empty();
        }
        const GigaBytes per_vm = eval.capacities.per_vm[tier_index(d.tier)];
        const Seconds t = cache != nullptr
                              ? cache->job_runtime(models, wf.jobs()[i], d.tier, per_vm, legs)
                              : models.job_runtime(wf.jobs()[i], d.tier, per_vm, legs);
        eval.job_runtimes[i] = t;
        total += t;
    }
    for (const auto& edge : wf.edges()) {
        const std::size_t u = wf.index_of(edge.from_job);
        const std::size_t v = wf.index_of(edge.to_job);
        const StorageTier su = plan.decisions[u].tier;
        const StorageTier sv = plan.decisions[v].tier;
        const Seconds t = reference_transfer(models, wf.jobs()[u].output(), su,
                                             eval.capacities.per_vm[tier_index(su)], sv,
                                             eval.capacities.per_vm[tier_index(sv)]);
        eval.transfer_times.push_back(t);
        total += t;
    }
    eval.total_runtime = total;
    const auto [vm, store] = core::eq5_eq6_costs(models, total, eval.capacities);
    eval.vm_cost = vm;
    eval.storage_cost = store;
    eval.meets_deadline = total <= wf.deadline();
    eval.feasible = true;
    return eval;
}

void expect_identical(const core::WorkflowEvaluation& got,
                      const core::WorkflowEvaluation& want) {
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.infeasibility, want.infeasibility);
    EXPECT_EQ(got.total_runtime.value(), want.total_runtime.value());
    EXPECT_EQ(got.vm_cost.value(), want.vm_cost.value());
    EXPECT_EQ(got.storage_cost.value(), want.storage_cost.value());
    EXPECT_EQ(got.meets_deadline, want.meets_deadline);
    for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
        EXPECT_EQ(got.capacities.aggregate[t].value(), want.capacities.aggregate[t].value());
        EXPECT_EQ(got.capacities.per_vm[t].value(), want.capacities.per_vm[t].value());
    }
    ASSERT_EQ(got.job_runtimes.size(), want.job_runtimes.size());
    for (std::size_t i = 0; i < got.job_runtimes.size(); ++i) {
        EXPECT_EQ(got.job_runtimes[i].value(), want.job_runtimes[i].value()) << "job " << i;
    }
    ASSERT_EQ(got.transfer_times.size(), want.transfer_times.size());
    for (std::size_t k = 0; k < got.transfer_times.size(); ++k) {
        EXPECT_EQ(got.transfer_times[k].value(), want.transfer_times[k].value())
            << "edge " << k;
    }
}

// Random DAGs with random pins and deadlines, evaluated under random
// tiers and over-provision factors (large ones overflow provisioning and
// exercise the infeasible path): the compiled evaluator must reproduce the
// oracle field for field, with and without a memo table.
TEST(WorkflowEvaluatorDifferential, CompiledTopologyMatchesPerCallOracle) {
    const model::PerfModelSet& models = cast::testing::small_models();
    constexpr std::array<double, 6> kFactors = {1.0, 1.25, 2.0, 4.0, 16.0, 400.0};
    int feasible = 0;
    int pinned_infeasible = 0;
    int provisioning_infeasible = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed * 7919);
        const Workflow dag =
            random_dag(seed, 2 + static_cast<int>(rng.below(8)), rng.uniform(0.1, 0.7));
        // Shuffle the declaration order: random_dag's edges run from lower
        // to higher ids, so without it the topological order would always
        // be the index order.
        std::vector<JobSpec> jobs = dag.jobs();
        for (std::size_t i = jobs.size(); i > 1; --i) {
            std::swap(jobs[i - 1], jobs[rng.below(i)]);
        }
        for (auto& job : jobs) {
            if (rng.uniform() < 0.2) {
                job.pinned_tier = cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
            }
        }
        const Workflow wf(dag.name(), std::move(jobs), dag.edges(),
                          Seconds{rng.uniform(600.0, 40000.0)});
        const core::WorkflowEvaluator compiled(models, wf);
        core::EvalCache compiled_cache;
        core::EvalCache oracle_cache;
        for (int p = 0; p < 30; ++p) {
            core::WorkflowPlan plan;
            for (std::size_t i = 0; i < wf.size(); ++i) {
                plan.decisions.push_back(
                    {cloud::kAllTiers[rng.below(cloud::kAllTiers.size())],
                     kFactors[rng.below(kFactors.size())]});
            }
            SCOPED_TRACE("seed " + std::to_string(seed) + " plan " + std::to_string(p));
            const core::WorkflowEvaluation want = reference_evaluate(models, wf, plan, nullptr);
            expect_identical(compiled.evaluate(plan), want);
            expect_identical(compiled.evaluate(plan, &compiled_cache),
                             reference_evaluate(models, wf, plan, &oracle_cache));
            if (want.feasible) {
                ++feasible;
            } else if (want.infeasibility.find("pinned") != std::string::npos) {
                ++pinned_infeasible;
            } else {
                ++provisioning_infeasible;
            }
        }
    }
    // The sweep must reach every outcome, or it would not test much.
    EXPECT_GT(feasible, 0);
    EXPECT_GT(pinned_infeasible, 0);
    EXPECT_GT(provisioning_infeasible, 0);
}

}  // namespace
}  // namespace cast::workload
