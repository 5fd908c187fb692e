#include "core/castpp.hpp"

#include <array>
#include <cmath>

#include "lint/analyzer.hpp"
#include "lint/checks.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;
}  // namespace

// ---------------------------------------------------------------------------
// Facades.
// ---------------------------------------------------------------------------

namespace {

/// Pre-solve lint shared by every batch facade: errors (unplaceable reuse
/// groups, unmodeled apps, a broken catalog) reject before any search
/// spends time; warnings ride along into the result for reports.
lint::Report lint_gate(const model::PerfModelSet& models, const workload::Workload& workload,
                       bool reuse_aware) {
    lint::LintContext lint_ctx;
    lint_ctx.models = &models;
    lint_ctx.reuse_aware = reuse_aware;
    lint::Report pre = lint::lint_workload(workload, lint_ctx);
    lint::enforce(pre);
    return pre;
}

CastResult plan_with(const model::PerfModelSet& models, const workload::Workload& workload,
                     const CastOptions& options, bool reuse_aware, ThreadPool* pool,
                     EvalCache* cache) {
    // A wall budget covers the WHOLE facade, not just annealing: greedy
    // initialization runs on this clock too, and the annealing stage gets
    // only what remains (serving p99 targets would otherwise quietly slip
    // by the greedy time).
    const auto entry = std::chrono::steady_clock::now();
    lint::Report pre = lint_gate(models, workload, reuse_aware);

    PlanEvaluator evaluator(models, workload, EvalOptions{.reuse_aware = reuse_aware});

    // One memo table for the whole pipeline: runtimes computed during the
    // greedy sweep (keyed on job content, not workload index) are reused by
    // every annealing chain. A caller-supplied cache (the serve layer's
    // snapshot-scoped table) replaces the per-call one, so the memo also
    // survives across requests.
    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;

    TieringPlan initial =
        greedy_projected_plan(evaluator, options.greedy_init, reuse_aware, cache);

    AnnealingOptions annealing = options.annealing;
    annealing.group_moves = reuse_aware;
    if (annealing.max_wall_ms > 0.0) {
        const double spent =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                      entry)
                .count();
        // Keep the budget armed even when greedy ate all of it: a tiny
        // positive remainder makes every chain bail at its first poll and
        // return its evaluated (feasible) start plan, flagged exhausted.
        annealing.max_wall_ms = std::max(annealing.max_wall_ms - spent, 1e-3);
    }
    AnnealingSolver solver(evaluator, annealing);
    AnnealingResult result = solver.solve(initial, pool, cache);
    CastResult out;
    out.plan = std::move(result.plan);
    out.evaluation = std::move(result.evaluation);
    out.greedy_initial = std::move(initial);
    out.iterations = result.iterations;
    out.best_chain = result.best_chain;
    out.cache_stats = result.cache_stats;
    out.budget_exhausted = result.budget_exhausted;
    out.tempering = std::move(result.tempering);
    for (const lint::Finding* f : pre.at(lint::Severity::kWarning)) {
        out.lint_notes.push_back(f->format());
    }
    return out;
}

}  // namespace

CastResult plan_cast(const model::PerfModelSet& models, const workload::Workload& workload,
                     const CastOptions& options, ThreadPool* pool, EvalCache* cache) {
    return plan_with(models, workload, options, /*reuse_aware=*/false, pool, cache);
}

CastResult plan_cast_plus_plus(const model::PerfModelSet& models,
                               const workload::Workload& workload, const CastOptions& options,
                               ThreadPool* pool, EvalCache* cache) {
    return plan_with(models, workload, options, /*reuse_aware=*/true, pool, cache);
}

CastResult plan_cast_greedy(const model::PerfModelSet& models,
                            const workload::Workload& workload, const CastOptions& options,
                            bool reuse_aware, EvalCache* cache) {
    lint::Report pre = lint_gate(models, workload, reuse_aware);
    PlanEvaluator evaluator(models, workload, EvalOptions{.reuse_aware = reuse_aware});

    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;

    CastResult out;
    out.plan = greedy_projected_plan(evaluator, options.greedy_init, reuse_aware, cache);
    out.evaluation = evaluator.evaluate(out.plan, cache);
    out.greedy_initial = out.plan;
    out.cache_stats = cache->stats();
    for (const lint::Finding* f : pre.at(lint::Severity::kWarning)) {
        out.lint_notes.push_back(f->format());
    }
    return out;
}

/// Greedy ignores reuse groups, so every group is aligned on its leader's
/// tier to make the plan Eq. 7-feasible; a pinned member dictates the whole
/// group's tier (members pinned apart were rejected by lint rule L005).
TieringPlan greedy_projected_plan(const PlanEvaluator& evaluator, const GreedyOptions& options,
                                  bool reuse_aware, EvalCache* cache) {
    const workload::Workload& workload = evaluator.workload();
    GreedySolver greedy(evaluator);
    TieringPlan initial = greedy.solve(options, cache);
    if (reuse_aware) {
        for (const auto& [group, members] : workload.reuse_groups()) {
            PlacementDecision lead = initial.decision(members.front());
            for (std::size_t m : members) {
                if (workload.job(m).pinned_tier) lead.tier = *workload.job(m).pinned_tier;
            }
            for (std::size_t m : members) initial.set_decision(m, lead);
        }
    }
    return initial;
}

// ---------------------------------------------------------------------------
// Workflow evaluation.
// ---------------------------------------------------------------------------

WorkflowTopology::WorkflowTopology(const workload::Workflow& workflow)
    : predecessors(workflow.size()),
      is_root(workflow.size(), 1),
      is_terminal(workflow.size(), 1),
      topological_order(workflow.topological_order()),
      dfs_order(workflow.dfs_order()) {
    edges.reserve(workflow.edges().size());
    for (const auto& e : workflow.edges()) {
        const std::size_t u = workflow.index_of(e.from_job);
        const std::size_t v = workflow.index_of(e.to_job);
        edges.emplace_back(u, v);
        predecessors[v].push_back(u);
        is_root[v] = 0;
        is_terminal[u] = 0;
    }
    for (const auto& job : workflow.jobs()) {
        any_pinned = any_pinned || job.pinned_tier.has_value();
    }
}

WorkflowEvaluator::WorkflowEvaluator(const model::PerfModelSet& models,
                                     workload::Workflow workflow, EvalOptions options)
    : models_(&models), workflow_(std::move(workflow)), options_(options) {
    workflow_.validate();
    topology_ = WorkflowTopology(workflow_);
}

GigaBytes WorkflowEvaluator::job_requirement(const WorkflowPlan& plan,
                                             std::size_t job_idx) const {
    // Eq. 10: a job provisions its intermediate and output, plus its input
    // unless the input is already resident — i.e. every predecessor whose
    // output feeds it lives on the same tier.
    const auto& job = workflow_.jobs()[job_idx];
    const StorageTier tier = plan.decisions[job_idx].tier;
    const auto& preds = topology_.predecessors[job_idx];
    bool input_resident = !preds.empty();
    for (std::size_t p : preds) {
        if (plan.decisions[p].tier != tier) input_resident = false;
    }
    GigaBytes req = job.intermediate() + job.output();
    if (!input_resident) req += job.input;
    return req;
}

namespace {

/// Time to move `volume` at the slower of the two sides' cluster rates.
Seconds cross_tier_seconds(GigaBytes volume, double read_mbps, double write_mbps) {
    const double cluster_mbps = std::min(read_mbps, write_mbps);
    CAST_ENSURES(cluster_mbps > 0.0);
    return Seconds{volume.megabytes() / cluster_mbps};
}

}  // namespace

double WorkflowEvaluator::side_bandwidth(StorageTier t, GigaBytes per_vm, bool reading) const {
    const auto& svc = models_->catalog().service(t);
    const int nvm = models_->cluster().worker_count;
    if (t == StorageTier::kObjectStore) {
        return reading ? svc.cluster_read_bw(per_vm, nvm).value()
                       : svc.cluster_write_bw(per_vm, nvm).value();
    }
    const auto perf = svc.performance(svc.provision(per_vm));
    return (reading ? perf.read_bw.value() : perf.write_bw.value()) * nvm;
}

Seconds WorkflowEvaluator::transfer_time(GigaBytes volume, StorageTier from,
                                         GigaBytes from_per_vm, StorageTier to,
                                         GigaBytes to_per_vm) const {
    if (volume.value() <= 0.0 || from == to) return Seconds{0.0};
    return cross_tier_seconds(volume, side_bandwidth(from, from_per_vm, true),
                              side_bandwidth(to, to_per_vm, false));
}

WorkflowEvaluation WorkflowEvaluator::evaluate(const WorkflowPlan& plan,
                                               EvalCache* cache) const {
    CAST_EXPECTS_MSG(plan.decisions.size() == workflow_.size(),
                     "plan/workflow size mismatch");
    for (const auto& d : plan.decisions) d.validate();

    WorkflowEvaluation eval;
    if (topology_.any_pinned) {
        // Operator pins via the shared lint check (same rule the deployer
        // and CLI enforce).
        std::vector<lint::Finding> violations;
        lint::check_tier_pins(workflow_.jobs(), plan.decisions, violations);
        if (!violations.empty()) {
            eval.infeasibility = violations.front().message;
            return eval;
        }
    }
    const int nvm = models_->cluster().worker_count;

    // --- Capacities (Eq. 10 + deployment conventions).
    bool any_on_object_store = false;
    GigaBytes max_object_store_inter{0.0};
    for (std::size_t i = 0; i < workflow_.size(); ++i) {
        const auto& d = plan.decisions[i];
        const auto& job = workflow_.jobs()[i];
        const GigaBytes ci{job_requirement(plan, i).value() * d.overprovision};
        eval.capacities.aggregate[tier_index(d.tier)] += ci;
        if (d.tier == StorageTier::kEphemeralSsd) {
            GigaBytes backing = job.output();
            if (topology_.is_root[i] != 0) backing += job.input;
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
            const auto& service = models_->catalog().service(t);
            const GigaBytes per_vm = service.provision(GigaBytes{agg.value() / nvm});
            eval.capacities.per_vm[tier_index(t)] = per_vm;
            eval.capacities.aggregate[tier_index(t)] = GigaBytes{per_vm.value() * nvm};
        }
    } catch (const ValidationError& e) {
        eval.infeasibility = e.what();
        return eval;
    }

    // --- Runtime: serial execution in topological order (Eq. 9's sum),
    // job estimates via REG plus staging/transfer legs.
    Seconds total{0.0};
    eval.job_runtimes.assign(workflow_.size(), Seconds{0.0});
    for (std::size_t i : topology_.topological_order) {
        const auto& d = plan.decisions[i];
        model::StagingLegs legs{false, false};
        if (d.tier == StorageTier::kEphemeralSsd) {
            // Roots must pull their input down from the object store;
            // terminal outputs must be persisted back.
            legs.download_input = topology_.is_root[i] != 0;
            legs.upload_output = topology_.is_terminal[i] != 0;
        }
        const GigaBytes per_vm = eval.capacities.per_vm[tier_index(d.tier)];
        const Seconds t =
            cache != nullptr
                ? cache->job_runtime(*models_, workflow_.jobs()[i], d.tier, per_vm, legs)
                : models_->job_runtime(workflow_.jobs()[i], d.tier, per_vm, legs);
        eval.job_runtimes[i] = t;
        total += t;
    }
    // Cross-tier transfers on edges (the pipelining of §3.1.3: "the output
    // of one job is pipelined to another storage service where it acts as
    // an input for the subsequent job"). A tier's read/write bandwidth
    // depends only on its per-VM capacity, which is fixed for this plan, so
    // each is derived once, on first use (0 = not yet derived).
    std::array<double, cloud::kTierCount> read_bw{};
    std::array<double, cloud::kTierCount> write_bw{};
    eval.transfer_times.reserve(topology_.edges.size());
    for (const auto& [u, v] : topology_.edges) {
        const StorageTier su = plan.decisions[u].tier;
        const StorageTier sv = plan.decisions[v].tier;
        const GigaBytes volume = workflow_.jobs()[u].output();
        Seconds t{0.0};
        if (volume.value() > 0.0 && su != sv) {
            double& r = read_bw[tier_index(su)];
            if (r == 0.0) r = side_bandwidth(su, eval.capacities.per_vm[tier_index(su)], true);
            double& w = write_bw[tier_index(sv)];
            if (w == 0.0) w = side_bandwidth(sv, eval.capacities.per_vm[tier_index(sv)], false);
            t = cross_tier_seconds(volume, r, w);
        }
        eval.transfer_times.push_back(t);
        total += t;
    }
    eval.total_runtime = total;

    // --- Cost (Eq. 8): the shared Eq. 5-6 formula over the workflow
    // makespan, so workflow plans are costed exactly like tiering plans.
    const auto [vm, store] = eq5_eq6_costs(*models_, total, eval.capacities);
    eval.vm_cost = vm;
    eval.storage_cost = store;
    eval.meets_deadline = total <= workflow_.deadline();
    eval.feasible = true;
    return eval;
}

// ---------------------------------------------------------------------------
// Workflow solver.
// ---------------------------------------------------------------------------

WorkflowSolver::WorkflowSolver(const WorkflowEvaluator& evaluator, AnnealingOptions options,
                               double deadline_safety)
    : evaluator_(&evaluator), options_(std::move(options)), deadline_safety_(deadline_safety) {
    CAST_EXPECTS(options_.iter_max >= 1);
    CAST_EXPECTS(!options_.overprov_choices.empty());
    CAST_EXPECTS(options_.max_wall_ms >= 0.0);
    CAST_EXPECTS(deadline_safety_ > 0.0 && deadline_safety_ <= 1.0);
    const auto& wf = evaluator_->workflow();
    if (!options_.active_jobs.empty()) {
        CAST_EXPECTS_MSG(options_.active_jobs.size() == wf.size(),
                         "active_jobs mask must match the workflow size");
        bool any = false;
        for (const std::uint8_t a : options_.active_jobs) any = any || a != 0;
        CAST_EXPECTS_MSG(any, "active_jobs mask must flag at least one job");
    }
    // cᵢ is a continuous decision variable in the paper; our move set
    // discretizes it. Extend the factor menu so a uniform plan can reach
    // the per-VM capacity where persSSD saturates its bandwidth ceiling —
    // for small workflows that takes factors well beyond the default list.
    double total_req = 0.0;
    const WorkflowPlan probe = WorkflowPlan::uniform(wf.size(), StorageTier::kPersistentSsd);
    for (std::size_t i = 0; i < wf.size(); ++i) {
        total_req += evaluator_->job_requirement(probe, i).value();
    }
    if (total_req > 0.0) {
        const double saturating =
            550.0 * evaluator_->models().cluster().worker_count / total_req;
        if (saturating > 1.0) {
            options_.overprov_choices.push_back(std::max(1.0, saturating / 2.0));
            options_.overprov_choices.push_back(saturating);
            options_.overprov_choices.push_back(saturating * 1.5);
        }
    }
}

double WorkflowSolver::score(const WorkflowEvaluation& eval) const {
    if (!eval.feasible) return -1e18;
    double s = -eval.total_cost().value();
    const Seconds target{evaluator_->workflow().deadline().value() * deadline_safety_};
    if (eval.total_runtime > target) {
        const double overtime_min = (eval.total_runtime - target).minutes();
        s -= 1e3 * (1.0 + overtime_min);  // dominate any cost difference
    }
    return s;
}

struct WorkflowSolver::Chain {
    const WorkflowSolver* solver = nullptr;
    EvalCache* cache = nullptr;
    const SolveDeadline* deadline = nullptr;
    WorkflowPlan curr;
    WorkflowEvaluation curr_eval;
    double curr_score = 0.0;
    double best_score = 0.0;
    /// Metropolis normalization, shared by every replica so exchange
    /// energies are comparable across rungs.
    double scale = 1.0;
    double temperature = 0.0;
    /// DFS cursor; identical across replicas at round barriers (all run
    /// the same iteration count), so exchanges never need to swap it.
    std::size_t cursor = 0;
    WorkflowSolveResult best;

    void start(std::uint64_t start_seed);
    void run_span(Rng& rng, int iter_begin, int iter_end);
    [[nodiscard]] double energy() const { return -curr_score / scale; }
    void swap_current(Chain& other) {
        std::swap(curr, other.curr);
        std::swap(curr_eval, other.curr_eval);
        std::swap(curr_score, other.curr_score);
    }
    [[nodiscard]] int iterations() const { return best.iterations; }
    [[nodiscard]] bool budget_exhausted() const { return best.budget_exhausted; }
};

void WorkflowSolver::Chain::start(std::uint64_t start_seed) {
    const auto& wf = solver->evaluator_->workflow();
    const AnnealingOptions& options = solver->options_;
    // Multi-start across replicas: start seeds divisible by 3 start from
    // the best canonical uniform plan; the rest rotate the starting tier
    // (and a generous starting over-provision factor, since block-tier
    // speed needs pooled capacity) by seed.
    curr = start_seed % 3 == 0
               ? solver->best_uniform_plan(cache)
               : WorkflowPlan::uniform(
                     wf.size(), cloud::kAllTiers[start_seed % cloud::kAllTiers.size()],
                     options.overprov_choices[(start_seed / 7) %
                                              options.overprov_choices.size()]);
    curr_eval = solver->evaluator_->evaluate(curr, cache);
    if (!curr_eval.feasible) {
        curr = WorkflowPlan::uniform(wf.size(), StorageTier::kPersistentSsd);
        curr_eval = solver->evaluator_->evaluate(curr, cache);
    }
    best.plan = curr;
    best.evaluation = curr_eval;
    curr_score = solver->score(curr_eval);
    best_score = curr_score;
}

void WorkflowSolver::Chain::run_span(Rng& rng, int iter_begin, int iter_end) {
    const AnnealingOptions& options = solver->options_;
    const std::vector<std::size_t>& dfs = solver->evaluator_->topology().dfs_order;
    const bool bounded = !deadline->unbounded();
    for (int iter = iter_begin; iter < iter_end; ++iter) {
        // Budget/cancel poll once per segment (incl. iter 0, so a replica
        // dispatched after the deadline returns its evaluated start plan
        // immediately). Best-so-far is feasible whenever any evaluated
        // plan was — the persSSD-uniform retreat in start() guarantees one
        // for every workflow the lint gate admits.
        if (bounded && iter % AnnealingOptions::kBudgetCheckStride == 0 &&
            deadline->expired()) {
            best.budget_exhausted = true;
            break;
        }
        temperature = std::max(temperature * options.cooling, options.min_temperature);

        // DFS-order traversal of the DAG for neighbor generation (§4.3).
        // With an active_jobs mask, frozen jobs are skipped in DFS order —
        // the cursor advance is deterministic, so restricted solves keep
        // the bit-identity guarantees (the ctor rejects all-zero masks).
        std::size_t job_idx = dfs[cursor];
        cursor = (cursor + 1) % dfs.size();
        if (!options.active_jobs.empty()) {
            while (options.active_jobs[job_idx] == 0) {
                job_idx = dfs[cursor];
                cursor = (cursor + 1) % dfs.size();
            }
        }

        WorkflowPlan neighbor = curr;
        PlacementDecision d = neighbor.decisions[job_idx];
        if (rng.uniform() < options.tier_move_probability) {
            StorageTier t;
            do {
                t = cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
            } while (t == d.tier);
            d.tier = t;
        } else {
            d.overprovision =
                options.overprov_choices[rng.below(options.overprov_choices.size())];
        }
        neighbor.decisions[job_idx] = d;

        const WorkflowEvaluation neighbor_eval = solver->evaluator_->evaluate(neighbor, cache);
        const double neighbor_score = solver->score(neighbor_eval);
        ++best.iterations;
        if (neighbor_eval.feasible && neighbor_score > best_score) {
            best.plan = neighbor;
            best.evaluation = neighbor_eval;
            best_score = neighbor_score;
        }
        const double delta = (neighbor_score - curr_score) / scale;
        if (delta >= 0.0 || rng.uniform() < std::exp(delta / temperature)) {
            curr = std::move(neighbor);
            curr_eval = neighbor_eval;
            curr_score = neighbor_score;
        }
    }
}

WorkflowPlan WorkflowSolver::best_uniform_plan(EvalCache* cache) const {
    const auto& wf = evaluator_->workflow();
    WorkflowPlan best = WorkflowPlan::uniform(wf.size(), StorageTier::kPersistentSsd);
    double best_score = score(evaluator_->evaluate(best, cache));
    for (StorageTier t : cloud::kAllTiers) {
        for (double k : options_.overprov_choices) {
            WorkflowPlan candidate = WorkflowPlan::uniform(wf.size(), t, k);
            const double s = score(evaluator_->evaluate(candidate, cache));
            if (s > best_score) {
                best_score = s;
                best = std::move(candidate);
            }
        }
    }
    return best;
}

WorkflowSolveResult WorkflowSolver::solve(ThreadPool* pool, EvalCache* cache) const {
    // Arm the shared wall clock before lint and the uniform sweep so the
    // whole solve answers to one budget.
    const SolveDeadline deadline = SolveDeadline::from(options_);
    // Pre-solve lint. Structural errors reject; an unattainable deadline
    // (L009's certified lower bound) is demoted to a note because this
    // solver's contract is best-effort — the §5.2.2 baselines count misses,
    // so a plan must come back even when no plan can meet the deadline.
    lint::LintContext lint_ctx;
    lint_ctx.models = &evaluator_->models();
    lint::Report pre = lint::lint_workflow(evaluator_->workflow(), lint_ctx);
    lint::demote(pre, "L009", lint::Severity::kWarning);
    lint::enforce(pre);

    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;
    CAST_EXPECTS(!evaluator_->topology().dfs_order.empty());

    // The uniform sweep is both the guaranteed result floor and the source
    // of the SHARED Metropolis/exchange normalization scale — replicas must
    // agree on the energy unit for exchange probabilities to mean anything.
    WorkflowSolveResult fallback;
    fallback.plan = best_uniform_plan(cache);
    fallback.evaluation = evaluator_->evaluate(fallback.plan, cache);
    fallback.best_chain = -1;
    const double scale = std::max(1.0, std::fabs(score(fallback.evaluation)));

    const auto replicas = static_cast<std::size_t>(options_.chains);
    std::vector<Chain> reps(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
        Chain& c = reps[r];
        c.solver = this;
        c.cache = cache;
        c.deadline = &deadline;
        c.start(options_.seed + 104729 * (r + 1));
        c.scale = scale;
    }
    TemperingStats stats = run_replica_exchange(reps, options_.iter_max,
                                                options_.initial_temperature, options_.seed,
                                                pool);

    std::size_t best = 0;
    for (std::size_t r = 1; r < replicas; ++r) {
        if (score(reps[r].best.evaluation) > score(reps[best].best.evaluation)) best = r;
    }
    const bool fallback_wins =
        score(fallback.evaluation) > score(reps[best].best.evaluation);
    WorkflowSolveResult chosen =
        fallback_wins ? std::move(fallback) : std::move(reps[best].best);
    if (!fallback_wins) chosen.best_chain = static_cast<int>(best);
    chosen.iterations = 0;
    chosen.budget_exhausted = false;
    for (const Chain& c : reps) {
        chosen.iterations += c.best.iterations;
        chosen.budget_exhausted = chosen.budget_exhausted || c.best.budget_exhausted;
    }
    chosen.cache_stats = cache->stats();
    chosen.tempering = std::move(stats);
    for (const lint::Finding* f : pre.at(lint::Severity::kWarning)) {
        chosen.lint_notes.push_back(f->format());
    }
    return chosen;
}

WorkflowSolveResult WorkflowSolver::solve_greedy(EvalCache* cache) const {
    // Same lint gate as solve(), including the L009 demotion: the degraded
    // path stays best-effort on deadlines no full solve could meet either.
    lint::LintContext lint_ctx;
    lint_ctx.models = &evaluator_->models();
    lint::Report pre = lint::lint_workflow(evaluator_->workflow(), lint_ctx);
    lint::demote(pre, "L009", lint::Severity::kWarning);
    lint::enforce(pre);

    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;

    WorkflowSolveResult out;
    out.plan = best_uniform_plan(cache);
    out.evaluation = evaluator_->evaluate(out.plan, cache);
    out.best_chain = -1;  // the uniform sweep "won" by being the only entry
    out.cache_stats = cache->stats();
    for (const lint::Finding* f : pre.at(lint::Severity::kWarning)) {
        out.lint_notes.push_back(f->format());
    }
    return out;
}

// ---------------------------------------------------------------------------
// Reuse scenarios.
// ---------------------------------------------------------------------------

ReuseScenarioResult evaluate_reuse_scenario(const model::PerfModelSet& models,
                                            const workload::JobSpec& job, StorageTier tier,
                                            const workload::ReusePattern& pattern) {
    pattern.validate();
    job.validate();
    const auto& cluster = models.cluster();
    const auto& catalog = models.catalog();
    const int nvm = cluster.worker_count;

    // Capacity: the job's dataset on its tier (+ conventions). Block tiers
    // are provisioned at the same 500 GB-per-VM experiment volumes as the
    // Fig. 1 characterization (grown when the dataset needs more), so the
    // no-reuse column of Fig. 3 agrees with Fig. 1 by construction.
    CapacityBreakdown caps;
    GigaBytes dataset_capacity = job.capacity_requirement();
    if (tier == StorageTier::kPersistentSsd || tier == StorageTier::kPersistentHdd) {
        dataset_capacity =
            GigaBytes{std::max(500.0 * nvm, dataset_capacity.value())};
    }
    caps.aggregate[tier_index(tier)] = dataset_capacity;
    if (tier == StorageTier::kEphemeralSsd) {
        caps.aggregate[tier_index(StorageTier::kObjectStore)] += job.input + job.output();
    }
    if (tier == StorageTier::kObjectStore) {
        caps.aggregate[tier_index(StorageTier::kPersistentSsd)] +=
            GigaBytes{cloud::object_store_intermediate_volume(job.intermediate(), nvm).value() *
                      nvm};
    }
    for (StorageTier t : cloud::kAllTiers) {
        const GigaBytes agg = caps.aggregate[tier_index(t)];
        if (agg.value() <= 0.0) continue;
        if (t == StorageTier::kObjectStore) {
            caps.per_vm[tier_index(t)] = GigaBytes{agg.value() / nvm};
            continue;
        }
        const auto& service = catalog.service(t);
        const GigaBytes per_vm = service.provision(GigaBytes{agg.value() / nvm});
        caps.per_vm[tier_index(t)] = per_vm;
        caps.aggregate[tier_index(t)] = GigaBytes{per_vm.value() * nvm};
    }

    ReuseScenarioResult result;
    const GigaBytes per_vm = caps.per_vm[tier_index(tier)];
    const model::StagingLegs full = model::StagingLegs::for_tier(tier);
    model::StagingLegs repeat = full;
    repeat.download_input = false;  // dataset already resident after run 1
    result.first_run = models.job_runtime(job, tier, per_vm, full);
    result.repeat_run = models.job_runtime(job, tier, per_vm, repeat);
    result.total_runtime =
        result.first_run + result.repeat_run * static_cast<double>(pattern.accesses - 1);

    // How long the dataset (and, on ephSSD, the VMs) must be held.
    const Seconds hold{std::max(pattern.lifetime.value(), result.total_runtime.value())};

    // VM cost: compute time only on persistent tiers; the whole hold window
    // on ephSSD because terminating the VMs destroys the data (§3.2).
    const Seconds vm_time = tier == StorageTier::kEphemeralSsd ? hold : result.total_runtime;
    result.vm_cost = Dollars{cluster.price_per_minute().value() * vm_time.minutes()};

    // Storage cost: the reused dataset's tier (and the objStore backing of
    // an ephSSD placement) is held for the whole window; the persSSD
    // intermediate volume of an objStore placement is scratch space that
    // only exists while jobs run.
    const double hold_hours = std::ceil(std::max(hold.minutes() / 60.0, 1.0));
    const double run_hours = std::ceil(std::max(result.total_runtime.minutes() / 60.0, 1.0));
    double storage = 0.0;
    for (StorageTier t : cloud::kAllTiers) {
        const GigaBytes cap = caps.aggregate[tier_index(t)];
        if (cap.value() <= 0.0) continue;
        const bool scratch = tier == StorageTier::kObjectStore &&
                             t == StorageTier::kPersistentSsd;
        storage += cap.value() * catalog.service(t).price_per_gb_hour().value() *
                   (scratch ? run_hours : hold_hours);
    }
    result.storage_cost = Dollars{storage};

    const Seconds per_access{result.total_runtime.value() / pattern.accesses};
    result.utility = tenant_utility(per_access, result.total_cost());
    return result;
}

}  // namespace cast::core
