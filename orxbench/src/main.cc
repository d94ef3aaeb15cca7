// orxbench: runs one workload against ORX and prints, as its last line,
// one JSON object with the run's correctness, operation counts and
// metrics. Usually started through run.py, which builds it first:
//
//   orxbench --workload hot_search --seed 1 --seconds 10 --trace 0 \
//            --serve-bin .bench_build/orx/tools/orx_serve
//   orxbench --self-test [--quick]
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "net/net_util.h"

namespace orxbench {

void Report::Fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

PhaseStats Summarize(const std::vector<double>& latency_s, double wall_s) {
  PhaseStats out;
  out.ops_per_s = static_cast<double>(latency_s.size()) / wall_s;
  out.p50_ms = Percentile(latency_s, 0.50) * 1e3;
  out.p90_ms = Percentile(latency_s, 0.90) * 1e3;
  out.p99_ms = Percentile(latency_s, 0.99) * 1e3;
  return out;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: orxbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH [--quick] [--out-dir DIR]\n"
               "       orxbench --self-test [--quick]\n"
               "workloads: hot_search cold_search feedback_session "
               "write_mix\n");
  return 2;
}

std::string Json(const Report& report, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace
}  // namespace orxbench

int main(int argc, char** argv) {
  using namespace orxbench;
  Config config;
  config.process_start = Clock::now();
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--quick") {
      config.quick = true;
    } else if (v == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      config.workload = v, ++i;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(v), ++i;
    } else if (arg == "--trace") {
      config.trace = std::atoi(v) != 0, ++i;
    } else if (arg == "--serve-bin") {
      config.serve_bin = v, ++i;
    } else if (arg == "--out-dir") {
      config.out_dir = v, ++i;
    } else {
      return Usage();
    }
  }
  if (self_test) return RunSelfTest(config.quick) == 0 ? 0 : 1;
  if (!(config.seconds > 0.0)) return Usage();
  net::IgnoreSigpipe();

  Report report;
  if (config.workload == "hot_search") {
    RunHotSearch(config, report);
  } else if (config.workload == "cold_search") {
    RunColdSearch(config, report);
  } else if (config.workload == "feedback_session") {
    RunFeedbackSession(config, report);
  } else if (config.workload == "write_mix") {
    RunWriteMix(config, report);
  } else {
    return Usage();
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  for (const Metric& m : report.end_to_end) {
    if (!std::isfinite(m.value)) report.Fail(m.name + " is not finite");
  }
  if (report.attempted == 0) report.Fail("no operation attempted");
  if (config.trace) {
    // The traced run's own end-to-end numbers, for the overhead
    // comparison run.py prints.
    std::printf("TRACED_E2E %s\n", Json(report, report.end_to_end).c_str());
  }
  std::printf("%s\n", Json(report, config.trace ? report.per_layer
                                                 : report.end_to_end)
                          .c_str());
  return 0;
}
