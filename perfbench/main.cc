// perfbench: one workload, one seed, both clocks.
//
//   perfbench --workload kvs_read --seed 7 --seconds 10 --trace 0
//
// Prints every metric by name with its unit, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones, and the
// run also prints the span self-time table and the tracing overhead. Exits 1
// when any output check fails, 2 on bad arguments.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/runner.h"

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "-1";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "-1";
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

void PrintMetrics(const char* title, const std::vector<perfbench::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& metric : metrics) {
    std::printf("  %-42s %16s %s\n", metric.name.c_str(), Number(metric.value).c_str(),
                metric.unit.c_str());
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\nworkloads:",
               why);
  for (const auto& workload : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", workload.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Workload* workload = nullptr;
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = perfbench::FindWorkload(value);
      if (workload == nullptr) {
        return Usage((std::string("unknown workload ") + value).c_str());
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload == nullptr) {
    return Usage("no --workload");
  }
  if (!(options.seconds > 0)) {
    return Usage("--seconds must be positive");
  }

  std::printf("perfbench: workload %s, seed %llu, %.0f s measured, trace %d\n",
              workload->name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);
  perfbench::Report report = perfbench::RunBenchmark(*workload, options);

  PrintMetrics("end-to-end:", report.end_to_end);
  PrintMetrics("per-layer:", report.per_layer);
  for (const auto& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("exact-result digest: %016llx\n", static_cast<unsigned long long>(report.digest));
  for (const auto& failure : report.failures) {
    std::printf("FAILED CHECK: %s\n", failure.c_str());
  }

  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": " + std::string(report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + Quote(metrics[i].name) + ": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
