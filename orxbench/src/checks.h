// Correctness checks of the benchmark. Each check compares an answer of
// the program with a computation made apart from it, or with a property
// the method must have, and returns "" when the answer passes or a
// one-line reason when it is refused. The inputs are plain copies of the
// answers, so the self-test can corrupt them.
#ifndef ORXBENCH_CHECKS_H_
#define ORXBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/searcher.h"
#include "explain/explainer.h"
#include "graph/authority_graph.h"
#include "graph/schema_graph.h"
#include "graph/transfer_rates.h"
#include "net/frame.h"
#include "text/bm25.h"
#include "text/corpus.h"
#include "text/query.h"

namespace orxbench {

// --- Rankings ---------------------------------------------------------------

struct RankedRow {
  uint64_t node = 0;
  double score = 0.0;
};

/// The scores an answer is held to, and how far each may stray.
struct RankingReference {
  std::vector<double> scores;
  double tolerance = 0.0;
  /// Non-empty when the answer's own iteration count is refused.
  std::string error;
};

/// Re-solves `query` in this process with the sequential-push kernel under
/// the answer's damping and epsilon, from the answer's start vector
/// (`warm_start`, or the base set when null), the way the repository's
/// kernel-equivalence tests compare kernels. The answer must have stopped
/// at the reference's iteration count, or one off it where the L1 step at
/// which the two part equals epsilon within rounding; the reference then
/// runs exactly the answer's iterations, and every score must match it to
/// kTightTolerance.
/// An answer that reports no iterations (a rank-cache answer) falls back
/// to a solve to an L1 step of 1e-10 and the L1 stopping-rule bound.
RankingReference ReferenceFor(const graph::AuthorityGraph& graph,
                              const text::Corpus& corpus,
                              const text::QueryVector& query,
                              const graph::TransferRates& rates,
                              const core::SearchOptions& options,
                              int reported_iterations,
                              const std::vector<double>* warm_start = nullptr);

/// Distance allowed between a kernel's score and the sequential push's
/// after the same iterations from the same start: summation order only.
constexpr double kTightTolerance = 1e-12;

/// Largest distance between a score returned under the L1 stopping rule
/// ||r_k+1 - r_k||_1 < epsilon and the fixpoint: the iteration contracts
/// by d in L1 (every node type's outgoing rates sum to <= 1), so
/// ||r_k+1 - r*||_1 <= d / (1 - d) * epsilon. Includes the fallback
/// reference's own error.
double ScoreBound(double damping, double epsilon);

/// Refuses a top-k list whose scores increase down the list, whose nodes
/// repeat, whose score strays from the reference by more than its
/// tolerance, or that omits a node (of `eligible_type`, when set, per
/// `node_types`) whose reference score beats the k-th returned score by
/// more than twice the tolerance.
std::string CheckRanking(const std::vector<RankedRow>& returned, size_t k,
                         const RankingReference& reference,
                         const std::vector<graph::TypeId>* node_types = nullptr,
                         int eligible_type = -1);

std::vector<RankedRow> RowsOf(const net::SearchResponse& response);

/// Largest distance between a returned score and the reference's, for the
/// run's log: how close the answers come to their tolerance.
double LargestGap(const std::vector<RankedRow>& returned,
                  const RankingReference& reference);

// --- Explanations -----------------------------------------------------------

/// The facts of one explanation the check needs, copied out.
struct ExplainFacts {
  struct Edge {
    graph::NodeId from = 0;  // global ids
    graph::NodeId to = 0;
    uint32_t rate_index = 0;
    double rate = 0.0;
    double original_flow = 0.0;
    double adjusted_flow = 0.0;
  };
  graph::NodeId target = 0;
  bool converged = false;
  std::vector<Edge> edges;
  /// (global id, h) of every non-target node.
  std::vector<std::pair<graph::NodeId, double>> reduction;
};
ExplainFacts FactsOf(const explain::Explanation& explanation);

/// Each edge's original flow must equal d * a(e) * r(from), with a(e)
/// recomputed from the authority graph and the rates; no adjusted flow may
/// exceed its original flow; and the conservation law
/// AdjustedOutFlowSum(v) = d * r(v) * h(v) must hold, summed over the
/// non-target nodes, within epsilon times the total explaining flow — the
/// slack the fixpoint's stopping rule leaves.
std::string CheckExplanation(const ExplainFacts& facts,
                             const graph::AuthorityGraph& graph,
                             const graph::TransferRates& rates,
                             const std::vector<double>& scores,
                             double damping, double epsilon);

// --- Reformulations ---------------------------------------------------------

/// Every rate in [0, 1], every node type's outgoing sum <= 1, every
/// earlier term kept and at most `max_new_terms` added.
std::string CheckReformulation(const text::QueryVector& before,
                               const text::QueryVector& after,
                               const graph::TransferRates& rates,
                               const graph::SchemaGraph& schema,
                               int max_new_terms);

// --- Independent totals of the wire workloads -------------------------------

struct ClientTotals {
  /// Search frames answered (including kNotFound answers to polls).
  uint64_t searches_answered = 0;
  /// Search frames refused with kUnavailable.
  uint64_t searches_rejected = 0;
  uint64_t writes_acked = 0;
  uint64_t writes_rejected = 0;
};

/// The client's counts must equal the server's kMetrics deltas, and the
/// server's completions must add up: completed = hits + coalesced +
/// executed.
std::string CheckTotals(const ClientTotals& client,
                        const net::MetricsResponse& before,
                        const net::MetricsResponse& after);

struct WriteRecord {
  bool acked = false;
  bool visible = false;
  uint64_t expected_node = 0;
  uint64_t seen_node = 0;
};

/// Every acknowledged write must have become visible, with its own paper.
std::string CheckWrites(const std::vector<WriteRecord>& writes);

}  // namespace orxbench

#endif  // ORXBENCH_CHECKS_H_
