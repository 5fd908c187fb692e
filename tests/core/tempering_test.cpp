// Replica-exchange tempering: schedule arithmetic, the one-rung ladder a
// single chain runs on, and the headline determinism claim — a tempered
// solve is bit-identical (exact double equality, not tolerance) at ANY
// worker count, because every (replica, round) segment draws from a seed
// that is a pure function of its coordinates and exchanges happen only at
// round barriers on the calling thread.
#include "core/tempering.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/annealing.hpp"
#include "core/castpp.hpp"
#include "core/eval_cache.hpp"
#include "test_support.hpp"
#include "workload/workflow.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using workload::AppKind;

workload::JobSpec mk_job(int id, AppKind app, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4)};
}

workload::Workload mixed_workload() {
    return workload::Workload(
        {mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0),
         mk_job(3, AppKind::kGrep, 480.0), mk_job(4, AppKind::kKMeans, 200.0),
         mk_job(5, AppKind::kSort, 160.0), mk_job(6, AppKind::kGrep, 280.0)});
}

void expect_same_plan(const TieringPlan& a, const TieringPlan& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.decisions()[i].tier, b.decisions()[i].tier) << "job " << i;
        EXPECT_EQ(a.decisions()[i].overprovision, b.decisions()[i].overprovision)
            << "job " << i;
    }
}

// ---------------------------------------------------------------------------
// Schedule arithmetic.
// ---------------------------------------------------------------------------

TEST(TemperingSchedule, RoundBoundariesClampToIterMax) {
    static_assert(kExchangeStride == 256);
    const TemperingSchedule sched(1000, 4);
    EXPECT_EQ(sched.rounds(), 4);
    EXPECT_EQ(sched.replicas(), 4);
    EXPECT_EQ(sched.round_begin(0), 0);
    EXPECT_EQ(sched.round_end(0), 256);
    EXPECT_EQ(sched.round_begin(3), 768);
    EXPECT_EQ(sched.round_end(3), 1000);  // short last round

    const TemperingSchedule exact(1024, 2);
    EXPECT_EQ(exact.rounds(), 4);
    EXPECT_EQ(exact.round_end(3), 1024);

    const TemperingSchedule tiny(10, 2);
    EXPECT_EQ(tiny.rounds(), 1);
    EXPECT_EQ(tiny.round_end(0), 10);
}

TEST(TemperingSchedule, PairSweepAlternates) {
    // Even rounds sweep (0,1)(2,3)..., odd rounds (1,2)(3,4)... so a state
    // can traverse the whole ladder over consecutive rounds.
    EXPECT_EQ(TemperingSchedule::first_pair(0), 0);
    EXPECT_EQ(TemperingSchedule::first_pair(1), 1);
    EXPECT_EQ(TemperingSchedule::first_pair(2), 0);
    EXPECT_EQ(TemperingSchedule::first_pair(3), 1);
}

TEST(TemperingSchedule, SegmentSeedsArePureAndDistinct) {
    // Purity: the seed depends on nothing but (solve seed, replica, round).
    EXPECT_EQ(TemperingSchedule::segment_seed(1, 2, 3),
              TemperingSchedule::segment_seed(1, 2, 3));
    // Distinctness across each coordinate and against the exchange stream.
    const std::uint64_t base = TemperingSchedule::segment_seed(1, 2, 3);
    EXPECT_NE(base, TemperingSchedule::segment_seed(2, 2, 3));
    EXPECT_NE(base, TemperingSchedule::segment_seed(1, 3, 3));
    EXPECT_NE(base, TemperingSchedule::segment_seed(1, 2, 4));
    EXPECT_NE(base, TemperingSchedule::exchange_seed(1, 3));
    EXPECT_EQ(TemperingSchedule::exchange_seed(7, 0),
              TemperingSchedule::exchange_seed(7, 0));
    EXPECT_NE(TemperingSchedule::exchange_seed(7, 0),
              TemperingSchedule::exchange_seed(7, 1));
}

TEST(TemperingSchedule, ExchangeAcceptMatchesMetropolisRule) {
    // The hot replica found the lower energy (e_cold > e_hot): log_ratio
    // = Δβ·ΔE > 0, the swap is free whatever the draw.
    EXPECT_TRUE(exchange_accept(2.0, 1.0, 0.5, 0.0, 0.999));
    EXPECT_TRUE(exchange_accept(2.0, 1.0, 0.0, 0.0, 0.999));  // tie: log_ratio == 0
    // Cold is better by 1 energy unit with Δβ = 1 → p = e^-1 ≈ 0.368:
    // the caller's uniform decides.
    EXPECT_TRUE(exchange_accept(2.0, 1.0, -1.0, 0.0, 0.36));
    EXPECT_FALSE(exchange_accept(2.0, 1.0, -1.0, 0.0, 0.38));
    EXPECT_FALSE(exchange_accept(2.0, 1.0, -2.0, 0.0, 0.20));  // p = e^-2
}

// ---------------------------------------------------------------------------
// One chain is a one-rung ladder: the same rounds and per-segment seeds, no
// exchanges, and the same worker-count independence.
// ---------------------------------------------------------------------------

TEST(OneRungLadder, BatchSolveRunsOneReplicaWithoutExchanges) {
    const PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 1000;  // not a multiple of the stride: short last round
    opts.chains = 1;
    opts.seed = 3;
    const AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);

    const auto serial = solver.solve(init);
    ASSERT_TRUE(serial.evaluation.feasible);
    EXPECT_EQ(serial.tempering.replicas, 1);
    EXPECT_EQ(serial.tempering.rounds, 4);  // ceil(1000 / 256)
    EXPECT_EQ(serial.tempering.total_attempts(), 0u);
    EXPECT_TRUE(serial.tempering.exchange_attempts.empty());
    EXPECT_EQ(serial.tempering.replica_iterations, std::vector<int>{opts.iter_max});
    EXPECT_EQ(serial.iterations, opts.iter_max);
    EXPECT_EQ(serial.best_chain, 0);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(workers);
        const auto pooled = solver.solve(init, &pool);
        EXPECT_EQ(pooled.evaluation.utility, serial.evaluation.utility)
            << workers << " workers";
        EXPECT_EQ(pooled.evaluation.total_runtime.value(),
                  serial.evaluation.total_runtime.value());
        EXPECT_EQ(pooled.accepted_moves, serial.accepted_moves);
        EXPECT_EQ(pooled.infeasible_neighbors, serial.infeasible_neighbors);
        EXPECT_EQ(pooled.tempering.rounds, serial.tempering.rounds);
        expect_same_plan(pooled.plan, serial.plan);
    }
}

TEST(OneRungLadder, WorkflowSolveRunsOneReplicaWithoutExchanges) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    const WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 600;
    opts.chains = 1;
    opts.seed = 4;
    const WorkflowSolver solver(eval, opts);

    const auto serial = solver.solve();
    ASSERT_TRUE(serial.evaluation.feasible);
    EXPECT_EQ(serial.tempering.replicas, 1);
    EXPECT_EQ(serial.tempering.rounds, 3);  // ceil(600 / 256)
    EXPECT_EQ(serial.tempering.total_attempts(), 0u);
    EXPECT_TRUE(serial.tempering.exchange_attempts.empty());
    EXPECT_EQ(serial.iterations, opts.iter_max);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(workers);
        const auto pooled = solver.solve(&pool);
        EXPECT_EQ(pooled.evaluation.total_cost().value(),
                  serial.evaluation.total_cost().value())
            << workers << " workers";
        EXPECT_EQ(pooled.evaluation.total_runtime.value(),
                  serial.evaluation.total_runtime.value());
        EXPECT_EQ(pooled.best_chain, serial.best_chain);
        EXPECT_EQ(pooled.iterations, serial.iterations);
        ASSERT_EQ(pooled.plan.decisions.size(), serial.plan.decisions.size());
        for (std::size_t i = 0; i < serial.plan.decisions.size(); ++i) {
            EXPECT_EQ(pooled.plan.decisions[i].tier, serial.plan.decisions[i].tier);
            EXPECT_EQ(pooled.plan.decisions[i].overprovision,
                      serial.plan.decisions[i].overprovision);
        }
    }
}

// ---------------------------------------------------------------------------
// Worker-count determinism: the headline claim.
// ---------------------------------------------------------------------------

TEST(TemperingDeterminism, BatchSolveBitIdenticalAcross128Workers) {
    const PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 1200;
    opts.chains = 4;
    opts.seed = 5;
    const AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);

    const auto serial = solver.solve(init);
    ASSERT_TRUE(serial.evaluation.feasible);
    ASSERT_EQ(serial.tempering.replicas, 4);
    EXPECT_GT(serial.tempering.rounds, 0);
    EXPECT_GT(serial.tempering.total_attempts(), 0u);
    EXPECT_EQ(serial.iterations, opts.chains * opts.iter_max);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(workers);
        const auto pooled = solver.solve(init, &pool);
        EXPECT_EQ(pooled.evaluation.utility, serial.evaluation.utility)
            << workers << " workers";
        EXPECT_EQ(pooled.evaluation.total_runtime.value(),
                  serial.evaluation.total_runtime.value());
        EXPECT_EQ(pooled.evaluation.vm_cost.value(), serial.evaluation.vm_cost.value());
        EXPECT_EQ(pooled.evaluation.storage_cost.value(),
                  serial.evaluation.storage_cost.value());
        EXPECT_EQ(pooled.best_chain, serial.best_chain);
        EXPECT_EQ(pooled.accepted_moves, serial.accepted_moves);
        EXPECT_EQ(pooled.infeasible_neighbors, serial.infeasible_neighbors);
        EXPECT_EQ(pooled.tempering.rounds, serial.tempering.rounds);
        EXPECT_EQ(pooled.tempering.exchange_attempts, serial.tempering.exchange_attempts);
        EXPECT_EQ(pooled.tempering.exchange_accepts, serial.tempering.exchange_accepts);
        EXPECT_EQ(pooled.tempering.replica_iterations, serial.tempering.replica_iterations);
        expect_same_plan(pooled.plan, serial.plan);
    }
}

TEST(TemperingDeterminism, WorkflowSolveBitIdenticalAcrossWorkerCounts) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    const WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 400;
    opts.chains = 3;
    opts.seed = 9;
    const WorkflowSolver solver(eval, opts);

    const auto serial = solver.solve();
    ASSERT_TRUE(serial.evaluation.feasible);
    ASSERT_EQ(serial.tempering.replicas, 3);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(workers);
        const auto pooled = solver.solve(&pool);
        EXPECT_EQ(pooled.evaluation.total_cost().value(),
                  serial.evaluation.total_cost().value())
            << workers << " workers";
        EXPECT_EQ(pooled.evaluation.total_runtime.value(),
                  serial.evaluation.total_runtime.value());
        EXPECT_EQ(pooled.best_chain, serial.best_chain);
        EXPECT_EQ(pooled.iterations, serial.iterations);
        EXPECT_EQ(pooled.tempering.exchange_attempts, serial.tempering.exchange_attempts);
        EXPECT_EQ(pooled.tempering.exchange_accepts, serial.tempering.exchange_accepts);
        ASSERT_EQ(pooled.plan.decisions.size(), serial.plan.decisions.size());
        for (std::size_t i = 0; i < serial.plan.decisions.size(); ++i) {
            EXPECT_EQ(pooled.plan.decisions[i].tier, serial.plan.decisions[i].tier);
            EXPECT_EQ(pooled.plan.decisions[i].overprovision,
                      serial.plan.decisions[i].overprovision);
        }
    }
}

TEST(TemperingDeterminism, TemperedSolveNeverLosesToItsStart) {
    // The explicit best-start floor in solve(): whatever the
    // exchanges do, the answer can only improve on the best start plan.
    const PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 600;
    opts.chains = 4;
    const AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    const auto base = eval.evaluate(init);
    ASSERT_TRUE(base.feasible);
    const auto result = solver.solve(init);
    EXPECT_GE(result.evaluation.utility, base.utility);
}

// ---------------------------------------------------------------------------
// Replica hammer: many replicas racing on ONE shared EvalCache. The cache
// is value-deterministic, so contention may only change hit/miss counts —
// never the answer. Run under the TSan lane this is the data-race probe
// for the tempering hot path.
// ---------------------------------------------------------------------------

TEST(TemperingHammer, SharedCacheRacesNeverChangeTheAnswer) {
    const PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 500;
    opts.chains = 8;
    opts.seed = 31;
    const AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);

    EvalCache shared;
    ThreadPool pool(8);
    const auto first = solver.solve(init, &pool, &shared);
    ASSERT_TRUE(first.evaluation.feasible);
    for (int repeat = 0; repeat < 3; ++repeat) {
        const auto again = solver.solve(init, &pool, &shared);
        EXPECT_EQ(again.evaluation.utility, first.evaluation.utility) << repeat;
        EXPECT_EQ(again.accepted_moves, first.accepted_moves) << repeat;
        EXPECT_EQ(again.tempering.exchange_accepts, first.tempering.exchange_accepts);
        expect_same_plan(again.plan, first.plan);
    }
}

}  // namespace
}  // namespace cast::core
