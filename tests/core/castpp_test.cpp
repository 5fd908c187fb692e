#include "core/castpp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

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

CastOptions fast_cast_options() {
    CastOptions o;
    o.annealing.iter_max = 2500;
    o.annealing.chains = 2;
    o.annealing.seed = 23;
    return o;
}

TEST(CastFacade, PlanIsFeasibleAndBeatsUniform) {
    const workload::Workload w(
        {mk_job(1, AppKind::kSort, 40.0), mk_job(2, AppKind::kJoin, 30.0),
         mk_job(3, AppKind::kGrep, 60.0), mk_job(4, AppKind::kKMeans, 25.0)});
    const auto result = plan_cast(testing::small_models(), w, fast_cast_options());
    ASSERT_TRUE(result.evaluation.feasible);
    PlanEvaluator eval(testing::small_models(), w);
    for (StorageTier t : cloud::kAllTiers) {
        const auto uniform = eval.evaluate(TieringPlan::uniform(w.size(), t));
        if (!uniform.feasible) continue;
        EXPECT_GE(result.evaluation.utility, uniform.utility - 1e-12)
            << "CAST lost to uniform " << cloud::tier_name(t);
    }
}

TEST(CastFacade, PlusPlusRespectsReuseGroups) {
    const workload::Workload w(
        {mk_job(1, AppKind::kGrep, 40.0, 1), mk_job(2, AppKind::kGrep, 40.0, 1),
         mk_job(3, AppKind::kGrep, 40.0, 1), mk_job(4, AppKind::kSort, 30.0),
         mk_job(5, AppKind::kKMeans, 25.0)});
    const auto result = plan_cast_plus_plus(testing::small_models(), w, fast_cast_options());
    ASSERT_TRUE(result.evaluation.feasible);
    EXPECT_TRUE(result.plan.respects_reuse_groups(w));
}

TEST(CastFacade, SolverHonorsTierPin) {
    // Unpinned, this 1800 GB KMeans lands on persHDD (see greedy tests);
    // the pin must override the utility-optimal choice.
    auto pinned = mk_job(1, AppKind::kKMeans, 1800.0);
    pinned.pinned_tier = StorageTier::kPersistentSsd;
    const workload::Workload w({pinned, mk_job(2, AppKind::kSort, 40.0)});
    const auto result = plan_cast(testing::small_models(), w, fast_cast_options());
    ASSERT_TRUE(result.evaluation.feasible);
    EXPECT_EQ(result.plan.decision(0).tier, StorageTier::kPersistentSsd);
    EXPECT_EQ(result.greedy_initial.decision(0).tier, StorageTier::kPersistentSsd);
}

TEST(CastFacade, PinnedMemberAnchorsWholeReuseGroup) {
    auto a = mk_job(1, AppKind::kGrep, 40.0, 1);
    auto b = mk_job(2, AppKind::kGrep, 40.0, 1);
    b.pinned_tier = StorageTier::kObjectStore;
    const workload::Workload w({a, b, mk_job(3, AppKind::kSort, 30.0)});
    const auto result = plan_cast_plus_plus(testing::small_models(), w, fast_cast_options());
    ASSERT_TRUE(result.evaluation.feasible);
    EXPECT_EQ(result.plan.decision(0).tier, StorageTier::kObjectStore);
    EXPECT_EQ(result.plan.decision(1).tier, StorageTier::kObjectStore);
}

TEST(CastFacade, ConflictingGroupPinsRejectedWithClearError) {
    auto a = mk_job(1, AppKind::kGrep, 40.0, 1);
    auto b = mk_job(2, AppKind::kGrep, 40.0, 1);
    a.pinned_tier = StorageTier::kPersistentSsd;
    b.pinned_tier = StorageTier::kObjectStore;
    const workload::Workload w({a, b});
    try {
        (void)plan_cast_plus_plus(testing::small_models(), w, fast_cast_options());
        FAIL() << "expected ValidationError";
    } catch (const ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find("reuse group"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("j1"), std::string::npos);
    }
}

TEST(CastFacade, PlusPlusBeatsCastOnReuseHeavyWorkload) {
    // With substantial sharing, reuse awareness must not lose (§5.1.3).
    std::vector<workload::JobSpec> jobs;
    int id = 1;
    for (int g = 1; g <= 3; ++g) {
        for (int k = 0; k < 3; ++k) {
            jobs.push_back(mk_job(id, AppKind::kGrep, 50.0, g));
            ++id;
        }
    }
    jobs.push_back(mk_job(id++, AppKind::kKMeans, 30.0));
    const workload::Workload w(jobs);
    const auto base = plan_cast(testing::small_models(), w, fast_cast_options());
    const auto pp = plan_cast_plus_plus(testing::small_models(), w, fast_cast_options());
    // Evaluate both with the reuse-aware evaluator (what the deployment
    // actually pays) — CAST++ must win or tie.
    PlanEvaluator aware(testing::small_models(), w, EvalOptions{.reuse_aware = true});
    TieringPlan base_projected = base.plan;
    for (const auto& [group, members] : w.reuse_groups()) {
        const auto lead = base_projected.decision(members.front());
        for (std::size_t m : members) base_projected.set_decision(m, lead);
    }
    const double u_base = aware.evaluate(base_projected).utility;
    EXPECT_GE(pp.evaluation.utility, u_base - 1e-9);
}

// --- Workflow evaluation.

class WorkflowEvalTest : public ::testing::Test {
protected:
    workload::Workflow wf = workload::make_search_log_workflow(Seconds{8000.0});
    WorkflowEvaluator eval{testing::small_models(), wf};
};

TEST_F(WorkflowEvalTest, UniformPlanEvaluates) {
    const auto e = eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kPersistentSsd));
    ASSERT_TRUE(e.feasible);
    EXPECT_GT(e.total_runtime.value(), 0.0);
    EXPECT_EQ(e.job_runtimes.size(), 4u);
    EXPECT_EQ(e.transfer_times.size(), 3u);
    // Same tier everywhere: no cross-tier transfers.
    for (const auto& t : e.transfer_times) EXPECT_DOUBLE_EQ(t.value(), 0.0);
}

TEST_F(WorkflowEvalTest, PinViolationIsInfeasible) {
    std::vector<workload::JobSpec> jobs = wf.jobs();
    jobs[0].pinned_tier = StorageTier::kPersistentSsd;
    workload::Workflow pinned("pinned", std::move(jobs),
                              {wf.edges().begin(), wf.edges().end()}, wf.deadline());
    WorkflowEvaluator pinned_eval{testing::small_models(), pinned};
    const auto e = pinned_eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kEphemeralSsd));
    EXPECT_FALSE(e.feasible);
    EXPECT_NE(e.infeasibility.find("pinned"), std::string::npos);
}

TEST_F(WorkflowEvalTest, CrossTierEdgesPayTransfers) {
    WorkflowPlan plan = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    plan.decisions[wf.index_of(3)] = {StorageTier::kEphemeralSsd, 1.0};  // Sort moves
    const auto e = eval.evaluate(plan);
    ASSERT_TRUE(e.feasible);
    double transfers = 0.0;
    for (const auto& t : e.transfer_times) transfers += t.value();
    EXPECT_GT(transfers, 0.0);
}

TEST_F(WorkflowEvalTest, Eq10InputCountedOnlyWhenNotResident) {
    WorkflowPlan same = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    // Join (job 4) has predecessors Sort and Pagerank on the same tier:
    // its input is resident.
    const GigaBytes with_resident = eval.job_requirement(same, wf.index_of(4));
    WorkflowPlan split = same;
    split.decisions[wf.index_of(3)] = {StorageTier::kPersistentHdd, 1.0};
    const GigaBytes without = eval.job_requirement(split, wf.index_of(4));
    EXPECT_NEAR(without.value() - with_resident.value(),
                wf.jobs()[wf.index_of(4)].input.value(), 1e-9);
}

TEST_F(WorkflowEvalTest, RootJobsAlwaysProvisionInput) {
    const WorkflowPlan plan = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    const std::size_t grep = wf.index_of(1);
    EXPECT_GE(eval.job_requirement(plan, grep).value(), wf.jobs()[grep].input.value());
}

TEST_F(WorkflowEvalTest, DeadlineFlagTracksDeadline) {
    const workload::Workflow tight = workload::make_search_log_workflow(Seconds{1.0});
    WorkflowEvaluator tight_eval(testing::small_models(), tight);
    const auto e = tight_eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kPersistentSsd));
    ASSERT_TRUE(e.feasible);
    EXPECT_FALSE(e.meets_deadline);
    const workload::Workflow loose = workload::make_search_log_workflow(Seconds{1e7});
    WorkflowEvaluator loose_eval(testing::small_models(), loose);
    EXPECT_TRUE(loose_eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kPersistentSsd))
                    .meets_deadline);
}

TEST_F(WorkflowEvalTest, TransferTimeSymmetricInVolumeAndBandwidth) {
    const Seconds t1 = eval.transfer_time(GigaBytes{10.0}, StorageTier::kPersistentSsd,
                                          GigaBytes{500.0}, StorageTier::kPersistentHdd,
                                          GigaBytes{500.0});
    const Seconds t2 = eval.transfer_time(GigaBytes{20.0}, StorageTier::kPersistentSsd,
                                          GigaBytes{500.0}, StorageTier::kPersistentHdd,
                                          GigaBytes{500.0});
    EXPECT_NEAR(t2.value(), 2.0 * t1.value(), 1e-9);
    EXPECT_DOUBLE_EQ(eval.transfer_time(GigaBytes{10.0}, StorageTier::kPersistentSsd,
                                        GigaBytes{500.0}, StorageTier::kPersistentSsd,
                                        GigaBytes{500.0})
                         .value(),
                     0.0);
}

// --- Workflow solver.

TEST(WorkflowSolver, MeetsGenerousDeadlineAtLowCost) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{50000.0});
    WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 2000;
    opts.chains = 2;
    WorkflowSolver solver(eval, opts);
    const auto result = solver.solve();
    ASSERT_TRUE(result.evaluation.feasible);
    EXPECT_TRUE(result.evaluation.meets_deadline);
    // With a generous deadline the solver should find something at most as
    // expensive as all-persSSD.
    const auto ssd = eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kPersistentSsd));
    EXPECT_LE(result.evaluation.total_cost().value(), ssd.total_cost().value() + 1e-9);
}

TEST(WorkflowSolver, PrefersDeadlineOverCost) {
    // With a deadline only fast tiers can meet, the solver must not pick
    // the cheapest (slow) configuration.
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{50000.0});
    WorkflowEvaluator loose(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 2000;
    opts.chains = 2;
    const auto relaxed = WorkflowSolver(loose, opts).solve();
    ASSERT_TRUE(relaxed.evaluation.meets_deadline);

    // Tighten the deadline to just above the best runtime the relaxed
    // solver found; re-solve and require the deadline still holds.
    const double tight_deadline = relaxed.evaluation.total_runtime.value() * 1.5;
    const workload::Workflow wf_tight =
        workload::make_search_log_workflow(Seconds{tight_deadline});
    WorkflowEvaluator tight(testing::small_models(), wf_tight);
    const auto strict = WorkflowSolver(tight, opts).solve();
    EXPECT_TRUE(strict.evaluation.meets_deadline);
    EXPECT_GE(strict.evaluation.total_cost().value(),
              relaxed.evaluation.total_cost().value() - 1e-6);
}

TEST(WorkflowSolver, DeterministicChain) {
    const workload::Workflow wf = workload::make_search_log_workflow();
    WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 800;
    opts.chains = 1;
    opts.seed = 42;
    WorkflowSolver solver(eval, opts);
    const auto a = solver.solve();
    const auto b = solver.solve();
    auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    EXPECT_EQ(bits(a.evaluation.total_cost().value()), bits(b.evaluation.total_cost().value()));
    ASSERT_EQ(a.plan.decisions.size(), b.plan.decisions.size());
    for (std::size_t i = 0; i < a.plan.decisions.size(); ++i) {
        EXPECT_EQ(a.plan.decisions[i].tier, b.plan.decisions[i].tier);
        EXPECT_EQ(bits(a.plan.decisions[i].overprovision),
                  bits(b.plan.decisions[i].overprovision));
    }
}

// --- Reuse scenarios (Fig. 3 economics).

TEST(ReuseScenario, RepeatRunsSkipDownloadOnEphemeral) {
    const auto job = mk_job(1, AppKind::kGrep, 40.0);
    const auto r = evaluate_reuse_scenario(testing::small_models(), job,
                                           StorageTier::kEphemeralSsd,
                                           workload::ReusePattern::one_hour());
    EXPECT_GT(r.first_run.value(), r.repeat_run.value());
}

TEST(ReuseScenario, PersistentTiersRunsIdentical) {
    const auto job = mk_job(1, AppKind::kGrep, 40.0);
    const auto r = evaluate_reuse_scenario(testing::small_models(), job,
                                           StorageTier::kPersistentSsd,
                                           workload::ReusePattern::one_hour());
    EXPECT_DOUBLE_EQ(r.first_run.value(), r.repeat_run.value());
}

TEST(ReuseScenario, TotalRuntimeComposition) {
    const auto job = mk_job(1, AppKind::kSort, 30.0);
    const auto pattern = workload::ReusePattern{5, Seconds::from_hours(2.0)};
    const auto r = evaluate_reuse_scenario(testing::small_models(), job,
                                           StorageTier::kPersistentHdd, pattern);
    EXPECT_NEAR(r.total_runtime.value(),
                r.first_run.value() + 4 * r.repeat_run.value(), 1e-9);
}

TEST(ReuseScenario, LongLifetimeInflatesEphemeralCost) {
    // §3.2: holding ephSSD data means holding the VMs; a week of that
    // dwarfs everything.
    const auto job = mk_job(1, AppKind::kGrep, 40.0);
    const auto week = evaluate_reuse_scenario(testing::small_models(), job,
                                              StorageTier::kEphemeralSsd,
                                              workload::ReusePattern::one_week());
    const auto hour = evaluate_reuse_scenario(testing::small_models(), job,
                                              StorageTier::kEphemeralSsd,
                                              workload::ReusePattern::one_hour());
    EXPECT_GT(week.vm_cost.value(), 20.0 * hour.vm_cost.value());
    EXPECT_LT(week.utility, hour.utility);
}

TEST(ReuseScenario, PersistentVmCostOnlyDuringRuns) {
    const auto job = mk_job(1, AppKind::kGrep, 40.0);
    const auto week = evaluate_reuse_scenario(testing::small_models(), job,
                                              StorageTier::kObjectStore,
                                              workload::ReusePattern::one_week());
    const auto& cluster = testing::small_models().cluster();
    EXPECT_NEAR(week.vm_cost.value(),
                cluster.price_per_minute().value() * week.total_runtime.minutes(), 1e-9);
}

}  // namespace
}  // namespace cast::core
