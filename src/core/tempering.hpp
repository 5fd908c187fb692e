// Deterministic replica-exchange (parallel tempering): the one search
// loop behind both annealing solvers.
//
// Independent annealing chains waste parallel hardware: every chain pays
// the full cool-down, and the cold ones get stuck in the first decent
// basin they find. Replica exchange runs N replicas on a temperature
// ladder and periodically swaps the *states* of adjacent rungs, so a plan
// discovered by a hot, exploratory replica can migrate down the ladder
// and be refined by the cold ones — strictly better use of the same
// iteration budget. A single chain is simply a one-rung ladder: the same
// rounds and per-segment seeds, no exchanges.
//
// The schedule here is built for bit-reproducibility at any worker count:
//
//   * Replicas advance in lock-step rounds of kExchangeStride iterations.
//     Within a round no replica reads another's state, so the pool may
//     run them in any order on any number of workers.
//   * Each (replica, round) segment draws from a fresh Rng whose seed is
//     a pure function of (solve seed, replica, round) — a replica's
//     trajectory does not depend on how many iterations some worker
//     happened to run before picking it up.
//   * Exchanges happen on the calling thread at the round barrier, with
//     their own per-round seed, sweeping even pairs on even rounds and
//     odd pairs on odd rounds (the standard alternation, so information
//     can traverse the whole ladder).
//
// The only shared mutable structure during a round is the EvalCache,
// which is value-deterministic: a lookup returns the same runtime whether
// it hits or misses, so racing replicas can never change each other's
// trajectories — only the hit/miss statistics.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace cast::core {

/// Geometric rung spacing: replica r starts its cooling at
/// initial_temperature · kLadderRatio^r, so the ladder spans exploration
/// (hot) to refinement (cold) with roughly constant exchange rates.
inline constexpr double kLadderRatio = 1.6;

/// Iterations between exchange barriers. Coarse enough that barrier
/// synchronization vanishes against ~µs evaluations, fine enough that
/// good states traverse the whole ladder many times per solve.
inline constexpr int kExchangeStride = 256;

/// Round boundaries and per-segment seed derivation for one tempered
/// solve. Pure arithmetic; holds no replica state.
class TemperingSchedule {
public:
    TemperingSchedule(int iter_max, int replicas) : iter_max_(iter_max), replicas_(replicas) {
        CAST_EXPECTS(iter_max_ >= 1);
        CAST_EXPECTS(replicas_ >= 1);
        rounds_ = (iter_max_ + kExchangeStride - 1) / kExchangeStride;
    }

    [[nodiscard]] int rounds() const { return rounds_; }
    [[nodiscard]] int replicas() const { return replicas_; }

    /// Global iteration range [begin, end) of `round`; the last round is
    /// short when kExchangeStride does not divide iter_max.
    [[nodiscard]] int round_begin(int round) const { return round * kExchangeStride; }
    [[nodiscard]] int round_end(int round) const {
        const int end = (round + 1) * kExchangeStride;
        return end < iter_max_ ? end : iter_max_;
    }

    /// First rung index of the adjacent-pair sweep after `round`: even
    /// rounds swap (0,1)(2,3)..., odd rounds (1,2)(3,4)... so states can
    /// walk the full ladder over consecutive rounds.
    [[nodiscard]] static int first_pair(int round) { return round % 2; }

    /// Seed of the Rng driving replica `replica` during `round`. Chained
    /// SplitMix64 so nearby (replica, round) pairs land far apart; a pure
    /// function of its inputs, which is the whole determinism argument.
    [[nodiscard]] static std::uint64_t segment_seed(std::uint64_t solve_seed,
                                                    std::uint64_t replica,
                                                    std::uint64_t round) {
        SplitMix64 sm(solve_seed ^ 0x7459aa63d82effc5ULL);
        const std::uint64_t a = sm.next();
        SplitMix64 sm2(a + 0x9e3779b97f4a7c15ULL * (replica + 1));
        const std::uint64_t b = sm2.next();
        SplitMix64 sm3(b + 0xd1b54a32d192ed03ULL * (round + 1));
        return sm3.next();
    }

    /// Seed of the Rng consuming the exchange-acceptance draws after
    /// `round`. Distinct stream from every segment seed by construction
    /// (different salt), so exchange draws never alias move draws.
    [[nodiscard]] static std::uint64_t exchange_seed(std::uint64_t solve_seed,
                                                     std::uint64_t round) {
        SplitMix64 sm(solve_seed ^ 0xb5297a4d3f84d5a3ULL);
        const std::uint64_t a = sm.next();
        SplitMix64 sm2(a + 0xd1b54a32d192ed03ULL * (round + 1));
        return sm2.next();
    }

private:
    int iter_max_;
    int replicas_;
    int rounds_;
};

/// Standard replica-exchange Metropolis rule on dimensionless energies
/// (here E = -utility/u_scale, matching the annealing accept rule's
/// normalization): swap with probability min(1, exp(Δβ·ΔE)) where
/// Δβ = β_cold - β_hot and ΔE = E_cold - E_hot. `u` is the caller's
/// uniform draw — it is ALWAYS consumed (the caller draws before calling)
/// so the exchange stream stays aligned whatever the outcome.
[[nodiscard]] inline bool exchange_accept(double beta_cold, double beta_hot, double e_cold,
                                          double e_hot, double u) {
    const double log_ratio = (beta_cold - beta_hot) * (e_cold - e_hot);
    return log_ratio >= 0.0 || u < std::exp(log_ratio);
}

/// Per-solve replica-exchange statistics, exported through result structs
/// and the serve-layer MetricsRegistry ("solver.tempering.*").
struct TemperingStats {
    /// 0 when no search ran (greedy-only answers); a one-chain solve is a
    /// one-rung ladder and reports 1.
    int replicas = 0;
    /// Rounds actually executed (== schedule rounds unless the wall
    /// budget stopped the solve early).
    int rounds = 0;
    /// Per-rung exchange counters: entry r covers swaps attempted/accepted
    /// between rungs r and r+1 (replicas - 1 entries).
    std::vector<std::uint64_t> exchange_attempts;
    std::vector<std::uint64_t> exchange_accepts;
    /// Iterations each replica actually ran (budget exhaustion can stop
    /// replicas mid-ladder).
    std::vector<int> replica_iterations;

    [[nodiscard]] bool enabled() const { return replicas > 0; }
    [[nodiscard]] std::uint64_t total_attempts() const {
        std::uint64_t n = 0;
        for (std::uint64_t a : exchange_attempts) n += a;
        return n;
    }
    [[nodiscard]] std::uint64_t total_accepts() const {
        std::uint64_t n = 0;
        for (std::uint64_t a : exchange_accepts) n += a;
        return n;
    }
};

/// What run_replica_exchange needs from one replica's search state.
/// run_replica_exchange owns `temperature` (it sets the ladder and reads
/// β = 1/T at the barriers); everything else is the solver's.
template <typename Chain>
concept ReplicaChain = requires(Chain& chain, const Chain& cchain, Rng& rng, int iter) {
    { chain.temperature } -> std::same_as<double&>;
    /// Advance global iterations [begin, end), drawing only from `rng`.
    chain.run_span(rng, iter, iter);
    /// Dimensionless energy of the current state (lower is better).
    { cchain.energy() } -> std::convertible_to<double>;
    /// Exchange current states (not bests or counters) with another rung.
    chain.swap_current(chain);
    { cchain.iterations() } -> std::convertible_to<int>;
    /// True once the wall budget or a cancellation stopped this replica.
    { cchain.budget_exhausted() } -> std::convertible_to<bool>;
};

/// Run one tempered solve over `replicas` (already seeded with their start
/// states): set the ladder temperatures, advance every replica round by
/// round — on `pool` when given — stop after the first round in which any
/// replica ran out of budget, and sweep adjacent-rung exchanges at every
/// barrier. The result is a pure function of the replicas' start states,
/// iter_max, initial_temperature and seed, at any worker count.
template <ReplicaChain Chain>
[[nodiscard]] TemperingStats run_replica_exchange(std::vector<Chain>& replicas, int iter_max,
                                                  double initial_temperature,
                                                  std::uint64_t seed, ThreadPool* pool) {
    const std::size_t n = replicas.size();
    CAST_EXPECTS(n >= 1);
    for (std::size_t r = 0; r < n; ++r) {
        replicas[r].temperature =
            initial_temperature * std::pow(kLadderRatio, static_cast<double>(r));
    }
    const TemperingSchedule sched(iter_max, static_cast<int>(n));
    TemperingStats stats;
    stats.replicas = static_cast<int>(n);
    stats.exchange_attempts.assign(n - 1, 0);
    stats.exchange_accepts.assign(n - 1, 0);
    stats.replica_iterations.assign(n, 0);

    for (int round = 0; round < sched.rounds(); ++round) {
        // Within a round replicas are fully independent (per-segment Rng,
        // private state, value-deterministic shared cache), so the pool
        // may execute them in any order on any number of workers without
        // changing a single draw.
        auto run_one = [&](std::size_t r) {
            Rng rng(
                TemperingSchedule::segment_seed(seed, r, static_cast<std::uint64_t>(round)));
            replicas[r].run_span(rng, sched.round_begin(round), sched.round_end(round));
        };
        if (pool != nullptr && n > 1) {
            pool->parallel_for(n, run_one, 1);
        } else {
            for (std::size_t r = 0; r < n; ++r) run_one(r);
        }
        ++stats.rounds;
        bool out_of_budget = false;
        for (const Chain& c : replicas) out_of_budget = out_of_budget || c.budget_exhausted();
        if (out_of_budget) break;
        if (round + 1 < sched.rounds() && n > 1) {
            // The draw is consumed before deciding so the exchange stream
            // stays aligned whatever the outcomes.
            Rng ex(TemperingSchedule::exchange_seed(seed, static_cast<std::uint64_t>(round)));
            for (auto p = static_cast<std::size_t>(TemperingSchedule::first_pair(round));
                 p + 1 < n; p += 2) {
                const double u = ex.uniform();
                ++stats.exchange_attempts[p];
                if (exchange_accept(1.0 / replicas[p].temperature,
                                    1.0 / replicas[p + 1].temperature, replicas[p].energy(),
                                    replicas[p + 1].energy(), u)) {
                    replicas[p].swap_current(replicas[p + 1]);
                    ++stats.exchange_accepts[p];
                }
            }
        }
    }
    for (std::size_t r = 0; r < n; ++r) stats.replica_iterations[r] = replicas[r].iterations();
    return stats;
}

}  // namespace cast::core
