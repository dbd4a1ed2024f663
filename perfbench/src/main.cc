// perfbench_run — runs one perfbench workload and prints its metrics.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <spans.jsonl>]
//
// Prints host facts, notes and every metric by name with its unit, then
// one JSON line: {"correct", "attempted", "failed", "incorrect",
// "nondeterministic", "modeled_digest", "host", "metrics"}. Exits 1 on an
// incorrect result, a modeled-clock mismatch between same-seed passes, or
// a workload error; 2 on bad arguments. perfbench/run.py wraps this
// binary, builds it, and reduces the line to the benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload "
               "<ssb-raw|ssb-tiered-encoded|ingest-durable|service-open> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  using Runner = pmemolap::Result<perfbench::Outcome> (*)(const Args&);
  const std::map<std::string, Runner> runners = {
      {"ssb-raw", perfbench::RunSsbRaw},
      {"ssb-tiered-encoded", perfbench::RunSsbTieredEncoded},
      {"ingest-durable", perfbench::RunIngestDurable},
      {"service-open", perfbench::RunServiceOpen},
  };
  auto runner = runners.find(args.workload);
  if (runner == runners.end()) return Usage("unknown workload");

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# host nproc %u, build %s, engine host threads %d\n", nproc,
              PERFBENCH_BUILD_TYPE, perfbench::kHostThreads);
  std::fflush(stdout);

  perfbench::GlobalTracer().set_enabled(args.trace);
  pmemolap::Result<perfbench::Outcome> outcome = runner->second(args);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench_run: %s failed: %s\n",
                 args.workload.c_str(), outcome.status().ToString().c_str());
    return 1;
  }
  perfbench::Outcome& out = *outcome;
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  out.metrics.Set("peak_rss_mib", perfbench::PeakRssMib(), "MiB");
  const double attempted = static_cast<double>(out.attempted);
  out.metrics.Set("ok_ratio",
                  attempted > 0.0
                      ? 1.0 - static_cast<double>(out.failed + out.incorrect) /
                                  attempted
                      : 0.0,
                  "ratio");
  if (args.trace && !args.trace_out.empty()) {
    if (!perfbench::GlobalTracer().Write(args.trace_out)) {
      std::fprintf(stderr, "perfbench_run: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("# wrote %zu spans to %s\n", perfbench::GlobalTracer().size(),
                args.trace_out.c_str());
  }
  out.metrics.Print();
  std::printf("# attempted %llu failed %llu incorrect %llu fail_ratio %.6g\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.incorrect),
              attempted > 0.0
                  ? static_cast<double>(out.failed + out.incorrect) / attempted
                  : 0.0);

  const bool correct = out.incorrect == 0 && !out.nondeterministic;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"incorrect\": %llu, \"nondeterministic\": %s, "
      "\"modeled_digest\": \"%s\", \"host\": {\"nproc\": %u, \"build\": "
      "\"%s\", \"seed\": %llu}, \"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed + out.incorrect),
      static_cast<unsigned long long>(out.incorrect),
      out.nondeterministic ? "true" : "false", out.digest.Hex().c_str(), nproc,
      PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(args.seed),
      out.metrics.MetricsJson().c_str());
  return correct ? 0 : 1;
}
