// Shared declarations of the ORX benchmark binary (orxbench).
//
// One invocation runs one workload for a fixed time, checks every answer
// it can, and reports either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See ../README.md for the workloads, the
// metric definitions and how to run it.
#ifndef ORXBENCH_BENCH_H_
#define ORXBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace orx {}

namespace orxbench {

// The benchmark names the program's modules (graph::, net::, core::, ...)
// unqualified.
using namespace orx;

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: hosts the wire stack in-process, records spans and
  /// reports the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Toy sizes for a local smoke run (every check still runs).
  bool quick = false;
  /// The orx_serve binary the untraced wire workloads spawn.
  std::string serve_bin;
  /// Directory for trace files (created on demand).
  std::string out_dir = ".bench_runs";
  /// Taken first thing in main(): feedback_session's set-up time is
  /// measured from here.
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. A correctness problem flips `correct`;
/// an operation that did not complete counts in `failed`.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;

  void Fail(const std::string& why);
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Nearest-rank percentile (q in [0, 1]) of raw samples; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Throughput and latency percentiles of a timed phase, over all of its
/// raw samples.
struct PhaseStats {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  /// Not an end-to-end metric: too unsteady on a shared host (README).
  double p99_ms = 0.0;
};
/// `latency_s`: one latency per completed operation, seconds.
PhaseStats Summarize(const std::vector<double>& latency_s, double wall_s);

/// user + system CPU seconds of a process, from /proc/<pid>/stat.
double ProcessCpuSeconds(pid_t pid);
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Peak resident set (VmHWM) of a process in MiB, from /proc/<pid>/status.
double PeakRssMb(pid_t pid);

// Workloads (workloads.cc). Each fills `report` with the metrics of the
// mode `config` asks for.
void RunHotSearch(const Config& config, Report& report);
void RunColdSearch(const Config& config, Report& report);
void RunWriteMix(const Config& config, Report& report);
void RunFeedbackSession(const Config& config, Report& report);

/// Feeds every correctness check a corrupted answer and expects it to be
/// refused (checks.cc); the ranking check on a toy graph and, unless
/// `quick`, on the hot_search and cold_search datasets too. Returns the
/// number of corruptions that slipped through (0 = every check can fail).
int RunSelfTest(bool quick);

}  // namespace orxbench

#endif  // ORXBENCH_BENCH_H_
