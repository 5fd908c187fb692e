// castbench: the repository benchmark driver.
//
//   castbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload (fb100_cli, amend_stream, workflow_deadline,
// template_replay; see perfbench/README.md) and prints a human-readable
// table on stderr, then a report line and, last, the result line on
// stdout. Exits non-zero without a result line when the run itself fails.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"

namespace {

using castbench::Args;

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "castbench: " << why
              << "\nusage: castbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else if (flag == "--out-dir") {
                args.out_dir = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    const std::map<std::string, castbench::WorkloadFn> workloads = {
        {"fb100_cli", castbench::run_fb100_cli},
        {"amend_stream", castbench::run_amend_stream},
        {"workflow_deadline", castbench::run_workflow_deadline},
        {"template_replay", castbench::run_template_replay},
    };
    const auto it = workloads.find(args.workload);
    if (it == workloads.end()) usage("unknown workload " + args.workload);
    try {
        castbench::Report report(args);
        const bool correct = it->second(args, report);
        report.print(correct);
    } catch (const std::exception& e) {
        std::cerr << "castbench: " << args.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
