// Host-clock benchmark entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one named workload and prints, as the last line of standard output,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it holds
// the host fingerprint and the workload's detail metrics. Exits nonzero when
// any output check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "crypto/sha256.h"
#include "parallel/thread_pool.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Worker threads of the shared pool; with the caller that makes 4 threads.
constexpr std::size_t kPoolThreads = 3;

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};
constexpr Workload kWorkloads[] = {
    {"query_stable", run_query_stable},
    {"ingest_mainnet", run_ingest_mainnet},
    {"reads_during_ingest", run_reads_during_ingest},
    {"payout_roundtrip", run_payout_roundtrip},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  icbtc::parallel::set_shared_pool(kPoolThreads);
  Result r;
  try {
    r = workload->run(o);
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }
  icbtc::parallel::set_shared_pool(0);

  bool correct = r.checks_passed && r.failed == 0;
  std::string host = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                     ", \"sha256\": " +
                     json_string(icbtc::crypto::to_string(icbtc::crypto::sha256_active_impl())) +
                     ", \"pool_threads\": " + std::to_string(kPoolThreads) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ", \"seed\": " + std::to_string(o.seed) +
                     ", \"workload\": " + json_string(o.workload) +
                     ", \"seconds\": " + json_number(o.seconds) +
                     ", \"trace\": " + (o.trace ? "1" : "0") + "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + json_string(r.failures[i]);
  }
  failures += "]";
  double error_rate =
      r.attempted == 0 ? 1.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("{\"host\": %s, \"error_rate\": %s, \"failures\": %s, \"detail\": %s}\n",
              host.c_str(), json_number(error_rate).c_str(), failures.c_str(),
              json_metrics(r.detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed),
              json_metrics(o.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
