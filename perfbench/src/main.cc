// The owlqr end-to-end benchmark.
//
//   perfbench --workload paper|serve|ingest --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--work-dir DIR]
//
// Each workload runs a seeded script of a fixed number of operations, sized
// from --seconds, checks every answer, and prints one JSON line last:
// the end-to-end metrics with --trace 0; with --trace 1 it runs the same
// script untraced and then traced, and prints the per-layer metrics plus
// the tracing overhead (traced minus untraced end-to-end latency).  See
// perfbench/README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper|serve|ingest --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using owlqr::perfbench::Args;
  using owlqr::perfbench::Report;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atoi(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_out = value;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();

  Report (*run)(const Args&, bool) = nullptr;
  if (args.workload == "paper") {
    run = owlqr::perfbench::RunPaper;
  } else if (args.workload == "serve") {
    run = owlqr::perfbench::RunServe;
  } else if (args.workload == "ingest") {
    run = owlqr::perfbench::RunIngest;
  } else {
    return Usage();
  }

  std::printf("# workload %s seed %llu seconds %d trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Report report;
  if (args.trace) {
    const Report untraced = run(args, /*trace=*/false);
    report = run(args, /*trace=*/true);
    for (const std::string& note : untraced.notes) {
      report.Note("untraced pass: " + note);
    }
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    report.checks_ok = report.checks_ok && untraced.checks_ok;
    owlqr::perfbench::AddTraceOverhead(untraced, &report);
  } else {
    report = run(args, /*trace=*/false);
  }
  owlqr::perfbench::PrintReport(report, args.trace);
  return 0;
}
