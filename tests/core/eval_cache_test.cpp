#include "core/eval_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/annealing.hpp"
#include "core/castpp.hpp"
#include "core/soa_eval.hpp"
#include "test_support.hpp"
#include "workload/facebook.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using workload::AppKind;

workload::JobSpec mk_job(int id, AppKind app, double gb,
                         std::optional<int> group = std::nullopt) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4),
                             .reuse_group = group};
}

workload::Workload mixed_workload() {
    return workload::Workload(
        {mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0),
         mk_job(3, AppKind::kGrep, 480.0), mk_job(4, AppKind::kKMeans, 200.0),
         mk_job(5, AppKind::kSort, 160.0), mk_job(6, AppKind::kGrep, 280.0)});
}

// ---------------------------------------------------------------------------
// Memo-table unit behavior.
// ---------------------------------------------------------------------------

TEST(EvalCache, MemoizedLookupReturnsIdenticalBits) {
    const auto& models = testing::small_models();
    const auto job = mk_job(1, AppKind::kSort, 100.0);
    const auto legs = model::StagingLegs::for_tier(StorageTier::kPersistentSsd);
    EvalCache cache;
    const Seconds direct =
        models.job_runtime(job, StorageTier::kPersistentSsd, GigaBytes{120.0}, legs);
    const Seconds a =
        cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{120.0}, legs);
    const Seconds b =
        cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{120.0}, legs);
    EXPECT_EQ(a.value(), direct.value());
    EXPECT_EQ(b.value(), direct.value());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, DistinguishesCapacityTierAndLegs) {
    const auto& models = testing::small_models();
    const auto job = mk_job(1, AppKind::kGrep, 80.0);
    EvalCache cache;
    const model::StagingLegs none{false, false};
    const model::StagingLegs both{true, true};
    (void)cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{100.0}, none);
    (void)cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{200.0}, none);
    (void)cache.job_runtime(models, job, StorageTier::kPersistentHdd, GigaBytes{100.0}, none);
    (void)cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{100.0}, both);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(EvalCache, ObjectStoreCapacityCanonicalized) {
    // The profiled objStore models scale with the conventional intermediate
    // volume, never with provisioned capacity, so every capacity maps to
    // one cache entry.
    const auto& models = testing::small_models();
    ASSERT_TRUE(models.tier_model(AppKind::kSort, StorageTier::kObjectStore)
                    .scales_with_intermediate_volume);
    const auto job = mk_job(1, AppKind::kSort, 60.0);
    const model::StagingLegs legs{false, false};
    EvalCache cache;
    const Seconds a =
        cache.job_runtime(models, job, StorageTier::kObjectStore, GigaBytes{10.0}, legs);
    const Seconds b =
        cache.job_runtime(models, job, StorageTier::kObjectStore, GigaBytes{700.0}, legs);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, ClearResetsEntriesAndStats) {
    const auto& models = testing::small_models();
    EvalCache cache;
    (void)cache.job_runtime(models, mk_job(1, AppKind::kJoin, 50.0),
                            StorageTier::kPersistentSsd, GigaBytes{64.0},
                            model::StagingLegs{false, false});
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().lookups(), 0u);
    EXPECT_EQ(cache.stats().hit_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// Golden equivalence: delta + memoized evaluation == full evaluation, bit
// for bit, across a long randomized neighbor walk on the paper workload.
// ---------------------------------------------------------------------------

void expect_bit_identical(const PlanEvaluation& delta, const PlanEvaluation& full,
                          int step) {
    ASSERT_EQ(delta.feasible, full.feasible) << "step " << step;
    ASSERT_EQ(delta.infeasibility, full.infeasibility) << "step " << step;
    if (!full.feasible) return;
    ASSERT_EQ(delta.total_runtime.value(), full.total_runtime.value()) << "step " << step;
    ASSERT_EQ(delta.vm_cost.value(), full.vm_cost.value()) << "step " << step;
    ASSERT_EQ(delta.storage_cost.value(), full.storage_cost.value()) << "step " << step;
    ASSERT_EQ(delta.utility, full.utility) << "step " << step;
    ASSERT_EQ(delta.job_runtimes.size(), full.job_runtimes.size());
    for (std::size_t i = 0; i < full.job_runtimes.size(); ++i) {
        ASSERT_EQ(delta.job_runtimes[i].value(), full.job_runtimes[i].value())
            << "step " << step << " job " << i;
    }
    for (StorageTier t : cloud::kAllTiers) {
        ASSERT_EQ(delta.capacities.aggregate_of(t).value(),
                  full.capacities.aggregate_of(t).value())
            << "step " << step;
        ASSERT_EQ(delta.capacities.per_vm_of(t).value(), full.capacities.per_vm_of(t).value())
            << "step " << step;
    }
}

/// Test-local neighbor generator for the golden walk: one move unit to a
/// new tier or over-provisioning factor, or (one draw in ten) every unit
/// running one application class moved to one tier — the multi-job
/// changed sets the delta path must handle too. Tier pins are honored so
/// the walk keeps moving. Appends every decision that differs to
/// `changed` (cleared first), which is the evaluate_delta contract.
TieringPlan random_neighbor(Rng& rng, const TieringPlan& curr,
                            const std::vector<MoveUnit>& units,
                            std::vector<std::size_t>& changed) {
    static const std::vector<double> kFactors = AnnealingOptions{}.overprov_choices;
    changed.clear();
    TieringPlan next = curr;
    const auto set = [&](std::size_t j, PlacementDecision d) {
        const PlacementDecision& old = curr.decision(j);
        if (d.tier == old.tier && d.overprovision == old.overprovision) return;
        next.set_decision(j, d);
        changed.push_back(j);
    };
    if (rng.uniform() < 0.1) {
        const AppKind app = workload::kAllApps[rng.below(workload::kAllApps.size())];
        const StorageTier t = cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
        for (const MoveUnit& unit : units) {
            if ((unit.app_mask & (1u << workload::app_index(app))) == 0 ||
                (unit.allowed_tiers & (1u << cloud::tier_index(t))) == 0) {
                continue;
            }
            for (std::size_t j : unit.jobs) {
                set(j, PlacementDecision{t, curr.decision(j).overprovision});
            }
        }
    } else {
        const MoveUnit& unit = units[rng.below(units.size())];
        PlacementDecision d = curr.decision(unit.jobs.front());
        const StorageTier t = cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
        if (rng.uniform() < 0.7 && (unit.allowed_tiers & (1u << cloud::tier_index(t))) != 0) {
            d.tier = t;
        } else {
            d.overprovision = kFactors[rng.below(kFactors.size())];
        }
        for (std::size_t j : unit.jobs) set(j, d);
    }
    return next;
}

void golden_walk(bool reuse_aware) {
    const workload::Workload w = workload::synthesize_facebook_workload(7);
    PlanEvaluator eval(testing::small_models(), w, EvalOptions{.reuse_aware = reuse_aware});
    AnnealingOptions opts;
    opts.group_moves = reuse_aware;
    const auto units = AnnealingSolver(eval, opts).move_units();

    EvalCache cache;
    TieringPlan curr = TieringPlan::uniform(w.size(), StorageTier::kPersistentSsd);
    PlanEvaluation curr_eval = eval.evaluate(curr, &cache);
    ASSERT_TRUE(curr_eval.feasible);

    Rng rng(99);
    std::vector<std::size_t> changed;
    int accepted = 0;
    for (int step = 0; step < 1200; ++step) {
        const TieringPlan next = random_neighbor(rng, curr, units, changed);
        const PlanEvaluation delta_eval = eval.evaluate_delta(curr_eval, next, changed, &cache);
        const PlanEvaluation full_eval = eval.evaluate(next);  // fresh, uncached
        expect_bit_identical(delta_eval, full_eval, step);
        if (delta_eval.feasible) {
            curr = next;
            curr_eval = delta_eval;
            ++accepted;
        }
    }
    // The walk must actually move, and memoization must actually bite.
    EXPECT_GT(accepted, 100);
    EXPECT_GT(cache.stats().hit_rate(), 0.5);
}

TEST(EvalCacheGolden, DeltaMatchesFullEvaluationReuseOblivious) { golden_walk(false); }

TEST(EvalCacheGolden, DeltaMatchesFullEvaluationReuseAware) { golden_walk(true); }

TEST(EvalCacheGolden, SharedCacheAcrossParallelChainsMatchesSerial) {
    // Eight chains hammering one memo table through the ThreadPool must be
    // both race-free (the TSAN lane runs this test) and bit-identical to
    // the serial solve.
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 800;
    opts.chains = 8;
    opts.seed = 23;
    AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    ThreadPool pool(4);
    EvalCache cache;
    const auto parallel = solver.solve(init, &pool, &cache);
    const auto serial = solver.solve(init, nullptr);
    EXPECT_EQ(parallel.evaluation.utility, serial.evaluation.utility);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    EXPECT_EQ(parallel.accepted_moves, serial.accepted_moves);
    EXPECT_EQ(parallel.best_chain, serial.best_chain);
    for (std::size_t i = 0; i < parallel.plan.size(); ++i) {
        EXPECT_EQ(parallel.plan.decision(i).tier, serial.plan.decision(i).tier);
        EXPECT_EQ(parallel.plan.decision(i).overprovision,
                  serial.plan.decision(i).overprovision);
    }
    EXPECT_GT(parallel.cache_stats.lookups(), 0u);
    EXPECT_GT(parallel.cache_stats.hit_rate(), 0.5);
}

// ---------------------------------------------------------------------------
// Move-generator regressions (pins + per-unit app membership), driven on the
// SoA state the annealing loop proposes into.
// ---------------------------------------------------------------------------

/// A SoA state seeded from `plan`, with the evaluator it belongs to.
struct SoaWalk {
    SoaEvaluator soa;
    SoaState state;

    SoaWalk(const PlanEvaluator& eval, const TieringPlan& plan) : soa(eval) {
        soa.init(state, plan, eval.evaluate(plan));
    }

    [[nodiscard]] const std::vector<PlacementDecision>& decisions() const {
        return state.mirror;
    }

    /// Evaluate the staged proposal; commit it when feasible, else revert.
    void settle(const std::vector<std::size_t>& changed) {
        if (!changed.empty() && soa.evaluate_candidate(state, changed, nullptr)) {
            soa.commit(state);
        } else {
            soa.revert(state);
        }
    }
};

TEST(AnnealingMoves, AppMoveRelocatesUnitsByMembership) {
    // Reuse group whose FIRST member is Grep but which contains a Sort job:
    // a Sort batch move must relocate the whole group (a generator that
    // classified the unit by its front job would never move it), while
    // the solo Grep job stays put.
    const workload::Workload w({mk_job(1, AppKind::kGrep, 30.0, 1),
                                mk_job(2, AppKind::kSort, 30.0, 1),
                                mk_job(3, AppKind::kGrep, 20.0)});
    PlanEvaluator eval(testing::small_models(), w, EvalOptions{.reuse_aware = true});
    AnnealingOptions opts;
    opts.group_moves = true;
    opts.app_move_probability = 1.0;
    opts.tier_move_probability = 0.0;
    AnnealingSolver solver(eval, opts);
    const auto units = solver.move_units();

    SoaWalk walk(eval, TieringPlan::uniform(3, StorageTier::kPersistentSsd));
    Rng rng(5);
    std::vector<std::size_t> changed;
    bool group_moved_alone = false;
    for (int i = 0; i < 400; ++i) {
        solver.propose_neighbor(rng, walk.soa, walk.state, units, changed);
        // Eq. 7 must hold structurally on every proposal.
        EXPECT_EQ(walk.decisions()[0].tier, walk.decisions()[1].tier);
        std::vector<std::size_t> sorted = changed;
        std::sort(sorted.begin(), sorted.end());
        if (sorted == std::vector<std::size_t>{0, 1}) group_moved_alone = true;
        walk.soa.revert(walk.state);  // every proposal starts from the uniform plan
    }
    // Only a Sort draw moves the group without the solo Grep job; seeing it
    // proves membership is per-unit, not front-job.
    EXPECT_TRUE(group_moved_alone);
}

TEST(AnnealingMoves, AppMoveRespectsTierPins) {
    workload::JobSpec pinned = mk_job(1, AppKind::kSort, 40.0);
    pinned.pinned_tier = StorageTier::kPersistentSsd;
    const workload::Workload w({pinned, mk_job(2, AppKind::kSort, 50.0),
                                mk_job(3, AppKind::kGrep, 30.0)});
    PlanEvaluator eval(testing::small_models(), w);
    AnnealingOptions opts;
    opts.app_move_probability = 1.0;
    opts.tier_move_probability = 0.0;
    AnnealingSolver solver(eval, opts);
    const auto units = solver.move_units();

    SoaWalk walk(eval, TieringPlan::uniform(3, StorageTier::kPersistentSsd));
    Rng rng(11);
    std::vector<std::size_t> changed;
    bool unpinned_sort_moved = false;
    for (int i = 0; i < 400; ++i) {
        const StorageTier before = walk.decisions()[1].tier;
        solver.propose_neighbor(rng, walk.soa, walk.state, units, changed);
        EXPECT_EQ(walk.decisions()[0].tier, StorageTier::kPersistentSsd)
            << "pinned job moved on proposal " << i;
        if (walk.decisions()[1].tier != before) unpinned_sort_moved = true;
        walk.settle(changed);  // keep walking
    }
    // The pin must constrain only its own job, not its whole app class.
    EXPECT_TRUE(unpinned_sort_moved);
}

TEST(AnnealingMoves, TierMoveDegradesToFactorMoveWhenFullyPinned) {
    workload::JobSpec pinned = mk_job(1, AppKind::kKMeans, 35.0);
    pinned.pinned_tier = StorageTier::kPersistentHdd;
    const workload::Workload w({pinned});
    PlanEvaluator eval(testing::small_models(), w);
    AnnealingOptions opts;
    opts.app_move_probability = 0.0;
    opts.tier_move_probability = 1.0;
    AnnealingSolver solver(eval, opts);
    const auto units = solver.move_units();

    SoaWalk walk(eval, TieringPlan::uniform(1, StorageTier::kPersistentHdd));
    Rng rng(3);
    std::vector<std::size_t> changed;
    bool factor_changed = false;
    for (int i = 0; i < 100; ++i) {
        const double before = walk.decisions()[0].overprovision;
        solver.propose_neighbor(rng, walk.soa, walk.state, units, changed);
        EXPECT_EQ(walk.decisions()[0].tier, StorageTier::kPersistentHdd);
        if (walk.decisions()[0].overprovision != before) factor_changed = true;
        walk.settle(changed);
    }
    EXPECT_TRUE(factor_changed);
}

TEST(AnnealingMoves, FullyPinnedChainProposesNoInfeasibleNeighbors) {
    // With every job pinned, a pin-blind generator keeps proposing
    // pin-violating tier moves that evaluation then rejects; the generator
    // never wastes an iteration on one, on any replica.
    std::vector<workload::JobSpec> jobs;
    for (int i = 1; i <= 4; ++i) {
        workload::JobSpec j = mk_job(i, AppKind::kGrep, 20.0 + i);
        j.pinned_tier = StorageTier::kPersistentSsd;
        jobs.push_back(std::move(j));
    }
    PlanEvaluator eval(testing::small_models(), workload::Workload(jobs));
    AnnealingOptions opts;
    opts.iter_max = 2000;
    opts.seed = 9;
    AnnealingSolver solver(eval, opts);
    const auto result = solver.solve(TieringPlan::uniform(4, StorageTier::kPersistentSsd));
    EXPECT_EQ(result.infeasible_neighbors, 0);
    EXPECT_EQ(result.iterations, opts.chains * opts.iter_max);
    EXPECT_TRUE(result.evaluation.feasible);
}

TEST(AnnealingMoves, ChangedListMatchesActualPlanDiff) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingSolver solver(eval, AnnealingOptions{});
    const auto units = solver.move_units();
    SoaWalk walk(eval, TieringPlan::uniform(6, StorageTier::kPersistentSsd));
    Rng rng(31);
    std::vector<std::size_t> changed;
    for (int i = 0; i < 500; ++i) {
        const std::vector<PlacementDecision> before = walk.decisions();
        solver.propose_neighbor(rng, walk.soa, walk.state, units, changed);
        std::vector<std::size_t> diff;
        for (std::size_t j = 0; j < before.size(); ++j) {
            if (before[j].tier != walk.decisions()[j].tier ||
                before[j].overprovision != walk.decisions()[j].overprovision) {
                diff.push_back(j);
            }
        }
        std::vector<std::size_t> sorted = changed;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, diff) << "proposal " << i;
        walk.settle(changed);
    }
}

// ---------------------------------------------------------------------------
// Search-effort counters.
// ---------------------------------------------------------------------------

TEST(AnnealingCounters, SolveAggregatesAcrossChains) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 1000;
    opts.chains = 3;
    opts.seed = 17;
    AnnealingSolver solver(eval, opts);
    const auto result = solver.solve(TieringPlan::uniform(6, StorageTier::kPersistentSsd));

    // iterations: every replica runs iter_max neighbors, and the solve
    // total is the sum of the per-replica counts.
    int replica_sum = 0;
    for (const int n : result.tempering.replica_iterations) replica_sum += n;
    ASSERT_EQ(result.tempering.replica_iterations.size(), 3u);
    EXPECT_EQ(result.iterations, replica_sum);
    EXPECT_EQ(result.iterations, opts.chains * opts.iter_max);
    EXPECT_GE(result.best_chain, 0);
    EXPECT_LT(result.best_chain, 3);
    EXPECT_GT(result.accepted_moves, 0);
    EXPECT_LE(result.accepted_moves + result.infeasible_neighbors, result.iterations);
    EXPECT_GT(result.cache_stats.lookups(), 0u);
}

TEST(WorkflowCounters, SolveAggregatesAcrossChains) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 300;
    opts.chains = 2;
    WorkflowSolver solver(eval, opts);
    const auto result = solver.solve();
    EXPECT_EQ(result.iterations, 2 * opts.iter_max);
    EXPECT_GE(result.best_chain, -1);  // -1 = uniform fallback won
    EXPECT_LT(result.best_chain, 2);
    EXPECT_GT(result.cache_stats.lookups(), 0u);
    EXPECT_GT(result.cache_stats.hit_rate(), 0.0);
}

}  // namespace
}  // namespace cast::core
