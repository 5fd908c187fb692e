// fb100_cli: one planning request at a time, the way `cast_plan plan
// --reuse-aware` serves it.
//
// Each request loads the saved model set, parses a generated spec of a
// fresh 100-job Facebook workload, and plans it with CAST++ (library
// defaults, unbudgeted) over a ThreadPool sized to the host with a fresh
// evaluation cache. It is the only workload where the tempered SoA anneal
// runs its replicas in parallel, with exchange barriers and a cold cache,
// so barrier and parallel-efficiency changes show here first. It does no
// serve work.
#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>

#include "harness.hpp"
#include "model/serialize.hpp"
#include "workload/facebook.hpp"
#include "workload/spec_parser.hpp"

namespace castbench {

using namespace cast;

namespace {

/// The quality figures cover the first kQualityRequests plans (every run
/// completes them) and deploy kDeployed of them, chosen by the seed.
constexpr std::size_t kQualityRequests = kMinSamples;
constexpr std::size_t kDeployed = 10;

std::string spec_text(std::uint64_t seed, std::size_t request) {
    std::ostringstream os;
    workload::write_spec(workload::synthesize_facebook_workload(mix_seed(seed, request)), os);
    return os.str();
}

struct Outcome {
    std::size_t request = 0;
    workload::Workload workload;
    core::TieringPlan plan;
    core::PlanEvaluation evaluation;
    double latency_ms = 0.0;
};

struct Phase {
    std::vector<Outcome> outcomes;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t failed = 0;
};

/// The request as the CLI runs it: load, parse, plan_cast_plus_plus.
Outcome cli_request(const std::string& model_path, const std::string& text) {
    const auto t0 = Clock::now();
    const model::PerfModelSet models = model::load_model_set_file(model_path);
    std::istringstream in(text);
    workload::ParsedSpec spec = workload::parse_spec(in);
    ThreadPool pool(host_threads());
    core::CastResult result = core::plan_cast_plus_plus(models, *spec.workload, {}, &pool);
    const double latency = ms_between(t0, Clock::now());
    return Outcome{0, std::move(*spec.workload), std::move(result.plan),
                   std::move(result.evaluation), latency};
}

/// The same request decomposed into one span per layer call.
Outcome traced_request(const std::string& model_path, const std::string& text,
                       std::uint64_t request, SpanRecorder& spans, SolveTally& tally) {
    const auto t0 = Clock::now();
    const std::uint64_t root = spans.open("request", request, 0);
    const model::PerfModelSet models = spans.time(
        "model.load", request, root, [&] { return model::load_model_set_file(model_path); });
    workload::ParsedSpec spec = spans.time("workload.parse", request, root, [&] {
        std::istringstream in(text);
        return workload::parse_spec(in);
    });
    std::optional<ThreadPool> pool;
    spans.time("pool.start", request, root, [&] { pool.emplace(host_threads()); });
    core::EvalCache cache;
    DecomposedPlan result = decomposed_cast_plus_plus(
        models, *spec.workload, {}, &*pool, host_threads(), cache, spans, request, root, tally);
    spans.close(root);
    const double latency = ms_between(t0, Clock::now());
    return Outcome{0, std::move(*spec.workload), std::move(result.plan),
                   std::move(result.evaluation), latency};
}

template <typename RequestFn>
Phase run_phase(const Args& args, double seconds, const std::string& model_path,
                RequestFn&& request_fn) {
    Phase phase;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; seconds_since(t0) < seconds || i < kMinSamples; ++i) {
        const std::string text = spec_text(args.seed, i);
        try {
            phase.outcomes.push_back(request_fn(model_path, text, i));
            phase.outcomes.back().request = i;
        } catch (const std::exception& e) {
            std::cerr << "fb100_cli request " << i << " failed: " << e.what() << "\n";
            ++phase.failed;
        }
    }
    phase.wall_s = seconds_since(t0);
    phase.cpu_s = process_cpu_seconds() - cpu0;
    return phase;
}

std::vector<double> latencies(const Phase& phase) {
    std::vector<double> out;
    for (const Outcome& o : phase.outcomes) out.push_back(o.latency_ms);
    return out;
}

}  // namespace

bool run_fb100_cli(const Args& args, Report& report) {
    SpanRecorder spans(args.trace);
    const SetupResult setup = run_setup(args, std::nullopt, spans);
    report.note("threads", "plan pool " + std::to_string(host_threads()) + ", 1 client");
    report.note("loop", "closed, 1 client");

    // Timed run: the whole window on the CLI path. Traced run: the first
    // half on the CLI path, the second half decomposed into spans over the
    // same request sequence, so the two halves can be compared request for
    // request (bit identity) and in latency (trace overhead).
    const double cli_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    const Phase cli = run_phase(args, cli_seconds, setup.model_path,
                                [](const std::string& path, const std::string& text,
                                   std::size_t) { return cli_request(path, text); });
    std::uint64_t check_failures = 0;
    for (const Outcome& o : cli.outcomes) {
        if (!batch_plan_checks(*setup.models, o.workload, o.plan, o.evaluation)) {
            ++check_failures;
        }
    }

    SolveTally tally;
    Phase traced;
    if (args.trace) {
        traced = run_phase(args, args.seconds / 2.0, setup.model_path,
                           [&](const std::string& path, const std::string& text,
                               std::size_t i) {
                               return traced_request(path, text, i, spans, tally);
                           });
        std::size_t pairs = 0;
        for (const Outcome& b : traced.outcomes) {
            const auto a = std::find_if(cli.outcomes.begin(), cli.outcomes.end(),
                                        [&](const Outcome& o) { return o.request == b.request; });
            if (a == cli.outcomes.end()) continue;
            ++pairs;
            if (!same_plan(a->plan, b.plan) || !same_evaluation(a->evaluation, b.evaluation)) {
                std::cerr << "fb100_cli: decomposed request " << b.request
                          << " differs from plan_cast_plus_plus\n";
                ++check_failures;
            }
        }
        report.note("bit_identity_pairs", std::to_string(pairs));
    }
    const std::uint64_t failed = cli.failed + traced.failed + check_failures;
    report.attempts(cli.outcomes.size() + traced.outcomes.size() + cli.failed + traced.failed,
                    failed);
    bool correct = failed == 0;

    EndToEnd e2e;
    e2e.setup = &setup;
    e2e.latencies_ms = latencies(cli);
    e2e.ok_plans = cli.outcomes.size();
    e2e.wall_s = cli.wall_s;
    e2e.cpu_s = cli.cpu_s;
    DeployTally deploys;
    if (cli.outcomes.size() >= kQualityRequests) {
        const std::vector<std::size_t> deployed =
            seeded_subset(args.seed, kQualityRequests, kDeployed);
        for (std::size_t i = 0; i < kQualityRequests; ++i) {
            const Outcome& o = cli.outcomes[i];
            add_batch_quality(e2e, *setup.models, o.workload, o.plan, o.evaluation,
                              std::binary_search(deployed.begin(), deployed.end(), i), deploys);
        }
    } else {
        correct = false;
    }
    add_end_to_end(report, e2e);

    if (args.trace) {
        LayerMetrics layers;
        fill_setup_layers(setup, layers);
        layers.load_ms = median_of(spans.self_ms_of("model.load"));
        layers.parse_ms = median_of(spans.self_ms_of("workload.parse"));
        deploys.fill(layers);
        tally.fill(spans, layers);
        layers.coverage_ratio = {spans.coverage_ratio(), traced.outcomes.size()};
        const double base_p50 = percentile(latencies(cli), 50.0);
        layers.trace_overhead_pct = {
            (percentile(latencies(traced), 50.0) / base_p50 - 1.0) * 100.0,
            traced.outcomes.size()};
        finish_trace(report, layers, spans, args);
    }
    return correct;
}

}  // namespace castbench
