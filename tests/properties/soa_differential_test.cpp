// Differential property test: the struct-of-arrays annealing core against
// the PlanEvaluator::evaluate oracle.
//
// The SoA core is the only evaluator the annealing search runs on, so its
// equivalence contract (exactly evaluate's floating-point operations, in
// evaluate's order) is checked here directly, with exact == on every
// field:
//   * along a seeded SoA walk, every feasible candidate and every
//     committed state equals the oracle's evaluation of the same plan, and
//     the core and the oracle agree on feasibility. The walk mixes the
//     solver's move generator with raw single-job moves that ignore pins
//     and reuse groups, so the core's constraint checks are exercised too;
//   * every solve result's evaluation equals the oracle's evaluation of
//     the returned plan.
// Workloads are seeded random mixes of 5-200 jobs with reuse groups and
// random tier pins, evaluated reuse-aware and reuse-oblivious, solved on a
// one-rung and a three-rung ladder.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/annealing.hpp"
#include "core/soa_eval.hpp"
#include "test_support.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using workload::AppKind;

/// `jobs` jobs; roughly every fifth job starts a reuse group of two or
/// three members (shared app and input size, as lint rule L004 demands),
/// and roughly one job or group in five carries a tier pin, shared by the
/// whole group (lint rule L005).
workload::Workload random_workload(std::uint64_t seed, std::size_t jobs) {
    Rng rng(seed);
    std::vector<workload::JobSpec> specs;
    int group = 0;
    for (std::size_t i = 0; i < jobs;) {
        const AppKind app = workload::kAllApps[rng.below(workload::kAllApps.size())];
        const double gb = rng.uniform(5.0, 120.0);
        const bool grouped = rng.uniform() < 0.2;
        const std::size_t members = grouped ? 2 + rng.below(2) : 1;
        std::optional<StorageTier> pin;
        if (rng.uniform() < 0.2) pin = cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
        if (grouped) ++group;
        for (std::size_t m = 0; m < members && i < jobs; ++m, ++i) {
            const int maps = std::max(1, static_cast<int>(gb / 0.128));
            workload::JobSpec spec{.id = static_cast<int>(i) + 1,
                                   .name = "diff-" + std::to_string(i),
                                   .app = app,
                                   .input = GigaBytes{gb},
                                   .map_tasks = maps,
                                   .reduce_tasks = std::max(1, maps / 4),
                                   .reuse_group = grouped ? std::optional<int>(group)
                                                          : std::nullopt};
            spec.pinned_tier = pin;
            specs.push_back(std::move(spec));
        }
    }
    return workload::Workload(std::move(specs));
}

/// Every job on its pinned tier, the rest on persSSD: feasible by
/// construction for the sizes above, and Eq. 7-consistent because group
/// members share their pin.
TieringPlan pin_respecting_plan(const workload::Workload& w) {
    std::vector<PlacementDecision> decisions;
    for (const auto& job : w.jobs()) {
        decisions.push_back(
            PlacementDecision{job.pinned_tier.value_or(StorageTier::kPersistentSsd), 1.0});
    }
    return TieringPlan(std::move(decisions));
}

void expect_equal(const PlanEvaluation& got, const PlanEvaluation& oracle,
                  const std::string& where) {
    ASSERT_EQ(got.feasible, oracle.feasible) << where;
    if (!oracle.feasible) return;
    EXPECT_EQ(got.utility, oracle.utility) << where;
    EXPECT_EQ(got.total_runtime.value(), oracle.total_runtime.value()) << where;
    EXPECT_EQ(got.vm_cost.value(), oracle.vm_cost.value()) << where;
    EXPECT_EQ(got.storage_cost.value(), oracle.storage_cost.value()) << where;
    ASSERT_EQ(got.job_runtimes.size(), oracle.job_runtimes.size()) << where;
    for (std::size_t i = 0; i < oracle.job_runtimes.size(); ++i) {
        EXPECT_EQ(got.job_runtimes[i].value(), oracle.job_runtimes[i].value())
            << where << " job " << i;
    }
    for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
        EXPECT_EQ(got.capacities.aggregate[t].value(), oracle.capacities.aggregate[t].value())
            << where << " tier " << t;
        EXPECT_EQ(got.capacities.per_vm[t].value(), oracle.capacities.per_vm[t].value())
            << where << " tier " << t;
    }
}

/// The state's committed plan and evaluation (or, with `candidate`, the
/// staged candidate's) in the oracle's boundary types.
PlanEvaluation soa_evaluation(const SoaState& s, bool candidate) {
    PlanEvaluation e;
    e.feasible = true;
    e.utility = candidate ? s.cand_utility : s.utility;
    e.total_runtime = Seconds{candidate ? s.cand_total : s.total_runtime};
    e.vm_cost = Dollars{candidate ? s.cand_vm : s.vm_cost};
    e.storage_cost = Dollars{candidate ? s.cand_storage : s.storage_cost};
    e.capacities = candidate ? s.cand_caps : s.caps;
    for (const double t : s.runtime) e.job_runtimes.push_back(Seconds{t});
    return e;
}

// (workload seed, job count)
using Case = std::tuple<std::uint64_t, std::size_t>;

class SoaDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(SoaDifferential, WalkMatchesOracleAtEveryCommittedState) {
    const auto [seed, jobs] = GetParam();
    const workload::Workload w = random_workload(seed, jobs);
    const std::vector<double> factors = AnnealingOptions{}.overprov_choices;
    // (reuse-aware evaluation, group moves): a reuse-aware walk without
    // group moves splits reuse groups, which the core must reject.
    for (const auto& [reuse_aware, group_moves] :
         {std::pair{false, false}, std::pair{true, true}, std::pair{true, false}}) {
        SCOPED_TRACE(std::string(reuse_aware ? "reuse-aware" : "reuse-oblivious") +
                     (group_moves ? ", group moves" : ", job moves"));
        const PlanEvaluator eval(testing::small_models(), w,
                                 EvalOptions{.reuse_aware = reuse_aware});
        AnnealingOptions opts;
        opts.group_moves = group_moves;
        const AnnealingSolver solver(eval, opts);
        const auto units = solver.move_units();
        const SoaEvaluator soa(eval);
        SoaState state;
        const TieringPlan start = pin_respecting_plan(w);
        const PlanEvaluation start_eval = eval.evaluate(start);
        ASSERT_TRUE(start_eval.feasible) << start_eval.infeasibility;
        soa.init(state, start, start_eval);

        EvalCache cache;
        Rng rng(seed * 7919 + jobs);
        std::vector<std::size_t> changed;
        int commits = 0;
        int rejects = 0;
        for (int step = 0; step < 300; ++step) {
            const std::string where = "step " + std::to_string(step);
            if (step % 4 == 3) {
                // Raw move: any job to any tier and factor, pins ignored.
                const std::size_t j = rng.below(w.size());
                const auto tier = static_cast<std::uint8_t>(rng.below(cloud::kTierCount));
                const double k = factors[rng.below(factors.size())];
                changed.clear();
                if (tier != state.tier[j] || k != state.overprov[j]) {
                    soa.set_decision(state, j, tier, k);
                    changed.push_back(j);
                }
            } else {
                solver.propose_neighbor(rng, soa, state, units, changed);
            }
            if (changed.empty()) continue;
            const PlanEvaluation oracle = eval.evaluate(TieringPlan{state.mirror});
            if (!soa.evaluate_candidate(state, changed, &cache)) {
                EXPECT_FALSE(oracle.feasible) << where << ": SoA rejected a feasible plan";
                ++rejects;
                soa.revert(state);
                continue;
            }
            expect_equal(soa_evaluation(state, /*candidate=*/true), oracle, where);
            if (state.cand_utility > state.best_utility) soa.save_best(state);
            // Accept every feasible move: the walk's job is to visit many
            // committed states, not to optimize.
            soa.commit(state);
            ++commits;
            expect_equal(soa_evaluation(state, /*candidate=*/false),
                         eval.evaluate(TieringPlan{state.mirror}), where + " committed");
        }
        EXPECT_GT(commits, 30);
        EXPECT_GT(rejects, 0);
        expect_equal(soa.best_evaluation(state), eval.evaluate(soa.best_plan(state)), "best");
    }
}

TEST_P(SoaDifferential, SolveResultEqualsOracleEvaluation) {
    const auto [seed, jobs] = GetParam();
    const workload::Workload w = random_workload(seed, jobs);
    for (const bool reuse_aware : {false, true}) {
        const PlanEvaluator eval(testing::small_models(), w,
                                 EvalOptions{.reuse_aware = reuse_aware});
        for (const int chains : {1, 3}) {
            SCOPED_TRACE(std::string(reuse_aware ? "reuse-aware" : "reuse-oblivious") +
                         ", chains " + std::to_string(chains));
            AnnealingOptions opts;
            opts.iter_max = 600;  // three exchange rounds
            opts.chains = chains;
            opts.seed = seed;
            opts.group_moves = reuse_aware;
            const AnnealingResult result =
                AnnealingSolver(eval, opts).solve(pin_respecting_plan(w));
            ASSERT_TRUE(result.evaluation.feasible);
            EXPECT_EQ(result.iterations, chains * opts.iter_max);
            expect_equal(result.evaluation, eval.evaluate(result.plan), "solve");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SeededWorkloads, SoaDifferential,
                         ::testing::Values(Case{1, 5}, Case{2, 9}, Case{3, 24}, Case{4, 57},
                                           Case{5, 110}, Case{6, 200}));

}  // namespace
}  // namespace cast::core
