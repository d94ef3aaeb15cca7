// The paper's Section 6.2 feedback loop, run through the library's public
// API: a simulated user with perturbed ground-truth rates issues a query,
// marks relevant results, and the session reformulates and re-searches.
#ifndef ORXBENCH_SESSIONS_H_
#define ORXBENCH_SESSIONS_H_

#include <utility>
#include <vector>

#include "bench.h"
#include "core/searcher.h"
#include "dataset_spec.h"
#include "reformulate/reformulator.h"
#include "trace.h"

namespace orxbench {

struct SessionStats {
  int sessions = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Latency of each round, seconds.
  std::vector<double> rounds;
  /// Rankings checked against the sequential push, and the largest
  /// distance of a returned score from its reference.
  int rankings_checked = 0;
  double largest_gap = 0.0;
  /// Wall time of the loop with the checks' time taken out.
  double wall_s = 0.0;
  double paused_s = 0.0;
  double cpu_s = 0.0;
  /// Residual precision@10 of each session's last query.
  std::vector<double> precision;
  /// Cosine of each session's final rates against its user's rates.
  std::vector<double> cosine;
  std::vector<double> warm_iterations;
  std::vector<double> construction_ms;
  std::vector<double> adjustment_ms;
  std::vector<double> explain_iterations;
  std::vector<double> subgraph_edges;
  std::vector<double> reformulate_ms;
};

class SessionRunner {
 public:
  /// Seeds the sessions' first searches with the global ObjectRank under
  /// the initial rates (part of the set-up).
  explicit SessionRunner(const tools::ServingDataset& dataset);

  /// Runs whole sessions until `seconds` of active time have passed or
  /// `max_sessions` have run. Every explanation and reformulation is
  /// checked, and one ranking in 64 sessions, with the clock paused.
  SessionStats Run(uint64_t seed, double seconds, int max_sessions,
                   Tracer* tracer, Report& report) const;

 private:
  const tools::ServingDataset& ds_;
  core::SearchOptions search_;
  reform::ReformulationOptions reform_;
  graph::TransferRates initial_;
  graph::TransferRates truth_;
  core::Searcher seeded_;
};

}  // namespace orxbench

#endif  // ORXBENCH_SESSIONS_H_
