#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "core/base_set.h"
#include "core/objectrank.h"
#include "core/searcher.h"
#include "dataset_spec.h"
#include "datasets/dblp_generator.h"
#include "reformulate/reformulator.h"

namespace orxbench {
namespace {

constexpr double kReferenceEpsilon = 1e-10;
/// How far two kernels' L1 steps may differ by summation order alone:
/// scores sum to at most 1, so well above |V| ulps of 1.
constexpr double kStepRounding = 1e-9;

std::string Fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

}  // namespace

RankingReference ReferenceFor(const graph::AuthorityGraph& graph,
                              const text::Corpus& corpus,
                              const text::QueryVector& query,
                              const graph::TransferRates& rates,
                              const core::SearchOptions& options,
                              int reported_iterations,
                              const std::vector<double>* warm_start) {
  RankingReference out;
  auto base = core::BuildBaseSet(corpus, query,
                                 core::BaseSetMode::kIrWeighted, options.bm25);
  if (!base.ok()) {
    out.error = "no base set: " + base.status().ToString();
    return out;
  }
  const core::ObjectRankEngine engine(graph);
  core::ObjectRankOptions push = options.objectrank;
  push.kernel = core::PowerKernel::kSequentialPush;
  push.num_threads = 1;
  push.cancel = nullptr;
  if (reported_iterations <= 0) {
    push.epsilon = kReferenceEpsilon;
    push.max_iterations = 100000;
    out.scores = engine.Compute(*base, rates, push, warm_start).scores;
    out.tolerance = ScoreBound(options.objectrank.damping,
                               options.objectrank.epsilon);
    return out;
  }
  core::ObjectRankResult solved = engine.Compute(*base, rates, push,
                                                 warm_start);
  if (solved.iterations != reported_iterations) {
    auto exactly = [&](int iterations) {
      core::ObjectRankOptions fixed = push;
      fixed.epsilon = 0.0;  // never converges: runs max_iterations
      fixed.max_iterations = iterations;
      return engine.Compute(*base, rates, fixed, warm_start).scores;
    };
    // One iteration apart is rounding only if the L1 step where the two
    // stopping decisions part sits at epsilon, to within rounding.
    const int m = std::min(solved.iterations, reported_iterations);
    double step = -1.0;
    if (std::abs(solved.iterations - reported_iterations) == 1 && m >= 1) {
      const std::vector<double> at = exactly(m);
      const std::vector<double> before = exactly(m - 1);
      step = 0.0;
      for (size_t v = 0; v < at.size(); ++v) {
        step += std::fabs(at[v] - before[v]);
      }
    }
    if (!(std::fabs(step - push.epsilon) <= kStepRounding)) {
      out.error = Fmt("answer stopped after %.0f iterations, the reference "
                      "after %.0f",
                      reported_iterations, solved.iterations);
      return out;
    }
    solved.scores = exactly(reported_iterations);
  }
  out.scores = std::move(solved.scores);
  out.tolerance = kTightTolerance;
  return out;
}

double ScoreBound(double damping, double epsilon) {
  return damping / (1.0 - damping) * (epsilon + kReferenceEpsilon);
}

std::vector<RankedRow> RowsOf(const net::SearchResponse& response) {
  std::vector<RankedRow> rows;
  for (const net::WireResult& r : response.results) {
    rows.push_back({r.node, r.score});
  }
  return rows;
}

double LargestGap(const std::vector<RankedRow>& returned,
                  const RankingReference& reference) {
  double largest = 0.0;
  for (const RankedRow& row : returned) {
    if (row.node < reference.scores.size()) {
      largest = std::max(largest,
                         std::fabs(row.score - reference.scores[row.node]));
    }
  }
  return largest;
}

std::string CheckRanking(const std::vector<RankedRow>& returned, size_t k,
                         const RankingReference& ref,
                         const std::vector<graph::TypeId>* node_types,
                         int eligible_type) {
  if (!ref.error.empty()) return ref.error;
  const std::vector<double>& reference = ref.scores;
  const double bound = ref.tolerance;
  if (reference.empty()) return "no reference scores";
  if (returned.empty()) return "empty ranking";
  if (returned.size() > k) return "more than k results";
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < returned.size(); ++i) {
    const RankedRow& row = returned[i];
    if (row.node >= reference.size()) return "node id out of range";
    if (!seen.insert(row.node).second) return "node repeated in ranking";
    if (i > 0 && row.score > returned[i - 1].score) {
      return Fmt("score increases down the list at rank %.0f", i + 1.0);
    }
    const double gap = std::fabs(row.score - reference[row.node]);
    if (!(gap <= bound)) {
      return Fmt("rank %.0f score off the reference by %.3g (allowed %.3g)",
                 i + 1.0, gap, bound);
    }
  }
  if (returned.size() < k) return "";
  const double kth = returned.back().score;
  for (size_t v = 0; v < reference.size(); ++v) {
    if (seen.count(v) != 0) continue;
    if (eligible_type >= 0 && (*node_types)[v] != eligible_type) continue;
    if (reference[v] > kth + 2.0 * bound) {
      return Fmt("omitted node %.0f scores %.9g, above the k-th %.9g",
                 static_cast<double>(v), reference[v], kth);
    }
  }
  return "";
}

ExplainFacts FactsOf(const explain::Explanation& explanation) {
  const explain::ExplainingSubgraph& sub = explanation.subgraph;
  ExplainFacts facts;
  facts.target = sub.target_global();
  facts.converged = explanation.converged;
  for (const explain::ExplainEdge& e : sub.edges()) {
    facts.edges.push_back({sub.GlobalId(e.from), sub.GlobalId(e.to),
                           e.rate_index, e.rate, e.original_flow,
                           e.adjusted_flow});
  }
  for (explain::LocalId v = 0; v < sub.num_nodes(); ++v) {
    if (v == sub.target_local()) continue;
    facts.reduction.emplace_back(sub.GlobalId(v), sub.ReductionFactor(v));
  }
  return facts;
}

std::string CheckExplanation(const ExplainFacts& facts,
                             const graph::AuthorityGraph& graph,
                             const graph::TransferRates& rates,
                             const std::vector<double>& scores,
                             double damping, double epsilon) {
  if (!facts.converged) return "explaining fixpoint did not converge";
  std::unordered_map<graph::NodeId, double> out_adjusted;
  double total_adjusted = 0.0;
  double total_original = 0.0;
  for (const ExplainFacts::Edge& e : facts.edges) {
    if (e.from >= scores.size() || e.to >= scores.size()) {
      return "explained edge outside the graph";
    }
    double a = -1.0;
    for (const graph::AuthorityEdge& ae : graph.OutEdges(e.from)) {
      if (ae.target == e.to && ae.rate_index == e.rate_index) {
        a = graph::AuthorityGraph::EdgeRate(ae, rates);
        break;
      }
    }
    if (a < 0.0) return "explained edge is not an authority edge";
    const double flow = damping * a * scores[e.from];
    if (std::fabs(e.original_flow - flow) > 1e-12 + 1e-9 * flow) {
      return Fmt("original flow %.6g differs from d*a(e)*r(from) = %.6g",
                 e.original_flow, flow);
    }
    if (e.adjusted_flow > e.original_flow * (1.0 + 1e-12) ||
        e.adjusted_flow < 0.0) {
      return Fmt("adjusted flow %.6g exceeds original flow %.6g",
                 e.adjusted_flow, e.original_flow);
    }
    out_adjusted[e.from] += e.adjusted_flow;
    total_adjusted += e.adjusted_flow;
    total_original += e.original_flow;
  }
  double imbalance = 0.0;
  for (const auto& [v, h] : facts.reduction) {
    imbalance += std::fabs(out_adjusted[v] - damping * scores[v] * h);
  }
  const double slack = epsilon * total_adjusted + 1e-12 * total_original;
  if (imbalance > slack) {
    return Fmt("flow conservation off by %.3g (allowed %.3g)", imbalance,
               slack);
  }
  return "";
}

std::string CheckReformulation(const text::QueryVector& before,
                               const text::QueryVector& after,
                               const graph::TransferRates& rates,
                               const graph::SchemaGraph& schema,
                               int max_new_terms) {
  for (double r : rates.slots()) {
    if (!(r >= 0.0 && r <= 1.0)) return Fmt("rate %.6g outside [0, 1]", r);
  }
  for (graph::TypeId t = 0; t < schema.num_node_types(); ++t) {
    double sum = 0.0;
    for (graph::EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
      for (graph::Direction dir :
           {graph::Direction::kForward, graph::Direction::kBackward}) {
        if (schema.SourceTypeOf(e, dir) == t) {
          sum += rates.slot(graph::RateIndex(e, dir));
        }
      }
    }
    if (sum > 1.0 + 1e-9) {
      return Fmt("outgoing rates of node type %.0f sum to %.6g > 1",
                 static_cast<double>(t), sum);
    }
  }
  for (const std::string& term : before.terms()) {
    if (!after.Contains(term)) return "reformulation dropped term " + term;
  }
  const int added = static_cast<int>(after.size() - before.size());
  if (added > max_new_terms) {
    return Fmt("reformulation added %.0f terms (at most %.0f)", added,
               max_new_terms);
  }
  return "";
}

std::string CheckTotals(const ClientTotals& client,
                        const net::MetricsResponse& before,
                        const net::MetricsResponse& after) {
  const serve::ServeMetrics& b = before.serve;
  const serve::ServeMetrics& a = after.serve;
  const uint64_t submitted = a.submitted - b.submitted;
  const uint64_t completed = a.completed - b.completed;
  const uint64_t rejected = a.rejected - b.rejected;
  const uint64_t parts = (a.cache_hits - b.cache_hits) +
                         (a.coalesced - b.coalesced) +
                         (a.executed - b.executed);
  const double s = static_cast<double>(submitted);
  if (completed != client.searches_answered) {
    return Fmt("server completed %.0f searches, client saw %.0f answered",
               static_cast<double>(completed),
               static_cast<double>(client.searches_answered));
  }
  if (submitted != client.searches_answered + client.searches_rejected) {
    return Fmt("server submitted %.0f searches, client sent %.0f", s,
               static_cast<double>(client.searches_answered +
                                   client.searches_rejected));
  }
  if (rejected != client.searches_rejected) {
    return "server and client disagree on rejected searches";
  }
  if (completed != parts) {
    return Fmt("completed %.0f != hits + coalesced + executed %.0f",
               static_cast<double>(completed), static_cast<double>(parts));
  }
  if (after.mutate_accepted - before.mutate_accepted != client.writes_acked) {
    return Fmt("server accepted %.0f writes, client saw %.0f acks",
               static_cast<double>(after.mutate_accepted -
                                   before.mutate_accepted),
               static_cast<double>(client.writes_acked));
  }
  if (after.mutate_rejected - before.mutate_rejected !=
      client.writes_rejected) {
    return "server and client disagree on rejected writes";
  }
  return "";
}

std::string CheckWrites(const std::vector<WriteRecord>& writes) {
  for (size_t i = 0; i < writes.size(); ++i) {
    const WriteRecord& w = writes[i];
    if (!w.acked) continue;
    if (!w.visible) return Fmt("acknowledged write %.0f never became visible",
                               static_cast<double>(i));
    if (w.seen_node != w.expected_node) {
      return Fmt("write %.0f surfaced node %.0f, expected its own %.0f",
                 static_cast<double>(i), static_cast<double>(w.seen_node),
                 static_cast<double>(w.expected_node));
    }
  }
  return "";
}

// --- Self-test --------------------------------------------------------------

namespace {

using Verdict = std::function<void(const std::string&, const std::string&)>;

/// Feeds the ranking check corrupted versions of one honest answer: the
/// search of `query` by a fresh Searcher under `options`, as orx_serve
/// runs it.
void SelfTestRankings(const std::string& name,
                      const graph::DataGraph& data,
                      const graph::AuthorityGraph& graph,
                      const text::Corpus& corpus,
                      const graph::TransferRates& rates,
                      const core::SearchOptions& options,
                      const std::string& query_text,
                      const Verdict& expect_refused,
                      const Verdict& expect_passed) {
  const text::QueryVector query(text::ParseQuery(query_text));
  core::Searcher searcher(data, graph, corpus);
  auto result = searcher.Search(query, rates, options);
  if (!result.ok() || result->top.size() < options.k) {
    expect_passed(name + " search '" + query_text + "'",
                  result.ok() ? "fewer than k results"
                              : result.status().ToString());
    return;
  }
  const int iterations = result->iterations;
  const RankingReference ref = ReferenceFor(graph, corpus, query, rates,
                                            options, iterations);
  std::vector<RankedRow> rows;
  for (const auto& r : result->top) rows.push_back({r.node, r.score});
  const size_t k = options.k;
  const std::string at = " (" + name + ")";

  expect_passed("ranking" + at, CheckRanking(rows, k, ref));
  {
    std::vector<RankedRow> swapped = rows;
    size_t i = 0;
    while (i + 1 < swapped.size() &&
           swapped[i].score == swapped[i + 1].score) {
      ++i;
    }
    std::swap(swapped[i], swapped[i + 1]);
    expect_refused("two ranks swapped" + at, CheckRanking(swapped, k, ref));
  }
  {
    std::vector<RankedRow> pushed = rows;
    pushed.back().score -= 3.0 * ref.tolerance;
    expect_refused("score pushed past its tolerance" + at,
                   CheckRanking(pushed, k, ref));
  }
  {
    // Drop the best node and fill the list with one that scores nothing.
    std::vector<RankedRow> dropped(rows.begin() + 1, rows.end());
    for (size_t v = 0; v < ref.scores.size(); ++v) {
      if (ref.scores[v] == 0.0) {
        dropped.push_back({v, 0.0});
        break;
      }
    }
    expect_refused("best node omitted" + at, CheckRanking(dropped, k, ref));
  }
  {
    // k arbitrary nodes, every score 0.
    std::vector<RankedRow> zeros;
    for (size_t v = ref.scores.size() - k; v < ref.scores.size(); ++v) {
      zeros.push_back({v, 0.0});
    }
    expect_refused("all-zero answer" + at, CheckRanking(zeros, k, ref));
  }
  for (const int misreported : {iterations - 1, iterations + 3}) {
    expect_refused("iteration count misreported" + at,
                   CheckRanking(rows, k,
                                ReferenceFor(graph, corpus, query, rates,
                                             options, misreported)));
  }
  {
    // An honest answer that stopped one iteration early because its L1
    // step rounded just below epsilon: set epsilon to the step at which
    // it stopped, so the sequential push runs one iteration more.
    auto base = core::BuildBaseSet(corpus, query,
                                   core::BaseSetMode::kIrWeighted,
                                   options.bm25);
    core::ObjectRankOptions fixed = options.objectrank;
    fixed.kernel = core::PowerKernel::kSequentialPush;
    fixed.epsilon = 0.0;
    const core::ObjectRankEngine engine(graph);
    fixed.max_iterations = iterations - 1;
    const std::vector<double> stopped = engine.Compute(*base, rates, fixed).scores;
    fixed.max_iterations = iterations - 2;
    const std::vector<double> previous =
        engine.Compute(*base, rates, fixed).scores;
    core::SearchOptions edge = options;
    edge.objectrank.epsilon = 0.0;
    for (size_t v = 0; v < stopped.size(); ++v) {
      edge.objectrank.epsilon += std::fabs(stopped[v] - previous[v]);
    }
    std::vector<RankedRow> early;
    for (size_t v = 0; v < stopped.size(); ++v) {
      early.push_back({v, stopped[v]});
    }
    std::partial_sort(early.begin(), early.begin() + k, early.end(),
                      [](const RankedRow& a, const RankedRow& b) {
                        return a.score > b.score;
                      });
    early.resize(k);
    expect_passed("ranking one iteration early at the epsilon edge" + at,
                  CheckRanking(early, k,
                               ReferenceFor(graph, corpus, query, rates, edge,
                                            iterations - 1)));
  }
  // The fallback for answers without an iteration count.
  const RankingReference loose =
      ReferenceFor(graph, corpus, query, rates, options, 0);
  expect_passed("ranking, L1 fallback" + at, CheckRanking(rows, k, loose));
  {
    std::vector<RankedRow> pushed = rows;
    pushed.back().score -= 1.5 * loose.tolerance;
    expect_refused("score pushed past the L1 bound" + at,
                   CheckRanking(pushed, k, loose));
  }
}

}  // namespace

int RunSelfTest(bool quick) {
  int slipped = 0;
  int refused = 0;
  const Verdict expect_refused = [&](const std::string& what,
                                     const std::string& verdict) {
    if (verdict.empty()) {
      std::fprintf(stderr, "self-test: %s was NOT refused\n", what.c_str());
      ++slipped;
    } else {
      std::fprintf(stderr, "self-test: %s refused: %s\n", what.c_str(),
                   verdict.c_str());
      ++refused;
    }
  };
  const Verdict expect_passed = [&](const std::string& what,
                                    const std::string& verdict) {
    if (!verdict.empty()) {
      std::fprintf(stderr, "self-test: honest %s refused: %s\n",
                   what.c_str(), verdict.c_str());
      ++slipped;
    }
  };

  datasets::DblpDataset dblp =
      datasets::GenerateDblp(datasets::DblpGeneratorConfig::Tiny(600, 7));
  const auto& ds = dblp.dataset;
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(ds.schema(), dblp.types);
  const text::QueryVector query(text::ParseQuery("data mining"));
  core::SearchOptions options;
  options.k = 10;
  options.use_warm_start = false;

  // Rankings: on a toy graph, and on the datasets and query shapes of
  // hot_search and cold_search (a head term; three mid-df terms).
  SelfTestRankings("Tiny(600)", ds.data(), ds.authority(), ds.corpus(), rates,
                   options, "data mining", expect_refused, expect_passed);
  for (const double scale : {1.0, 10.0}) {
    if (quick) break;
    const tools::ServingDataset served = tools::BuildServingDataset(scale);
    const serve::ServeSnapshot& snap = *served.snapshot;
    const std::vector<std::string> band =
        tools::HeadTerms(*snap.corpus, 832);
    const std::string text = scale == 1.0
                                 ? served.head_terms[0]
                                 : band[64] + " " + band[300] + " " + band[700];
    SelfTestRankings(scale == 1.0 ? "DBLPtop" : "DBLPtop x10", *snap.data,
                     *snap.authority, *snap.corpus, snap.rates,
                     snap.default_options, text, expect_refused,
                     expect_passed);
  }
  core::Searcher searcher(ds.data(), ds.authority(), ds.corpus());
  auto result = searcher.Search(query, rates, options);
  if (!result.ok() || result->top.size() < 3) {
    std::fprintf(stderr, "self-test: search failed\n");
    return 1;
  }
  const double d = options.objectrank.damping;

  // Explanations.
  explain::Explainer explainer(ds.data(), ds.authority());
  auto base = core::BuildBaseSet(ds.corpus(), query);
  auto explanation = explainer.Explain(result->top[0].node, *base,
                                       result->scores, rates, d, {});
  if (!explanation.ok() || explanation->subgraph.num_edges() == 0) {
    std::fprintf(stderr, "self-test: explain failed\n");
    return 1;
  }
  const ExplainFacts facts = FactsOf(*explanation);
  const double eps = explain::ExplainOptions{}.epsilon;
  expect_passed("explanation", CheckExplanation(facts, ds.authority(), rates,
                                                result->scores, d, eps));
  {
    ExplainFacts altered = facts;
    altered.edges[0].original_flow *= 1.01;
    expect_refused("original flow altered",
                   CheckExplanation(altered, ds.authority(), rates,
                                    result->scores, d, eps));
  }
  {
    ExplainFacts altered = facts;
    altered.edges[0].adjusted_flow = altered.edges[0].original_flow * 1.5;
    expect_refused("adjusted flow above original",
                   CheckExplanation(altered, ds.authority(), rates,
                                    result->scores, d, eps));
  }
  {
    ExplainFacts altered = facts;
    for (auto& [v, h] : altered.reduction) h *= 0.5;
    expect_refused("reduction factors halved (conservation)",
                   CheckExplanation(altered, ds.authority(), rates,
                                    result->scores, d, eps));
  }

  // Reformulations.
  reform::Reformulator reformulator(ds.data(), ds.authority(), ds.corpus());
  const std::vector<graph::NodeId> feedback = {result->top[0].node,
                                               result->top[1].node};
  auto reformulated = reformulator.Reformulate(query, rates, *base,
                                               result->scores, feedback, {});
  if (!reformulated.ok()) {
    std::fprintf(stderr, "self-test: reformulate failed\n");
    return 1;
  }
  const int z = reform::ContentOptions{}.top_terms;
  expect_passed("reformulation",
                CheckReformulation(query, reformulated->query,
                                   reformulated->rates, ds.schema(), z));
  {
    graph::TransferRates bad = reformulated->rates;
    bad.set_slot(0, 1.2);
    expect_refused("rate above 1",
                   CheckReformulation(query, reformulated->query, bad,
                                      ds.schema(), z));
  }
  {
    text::QueryVector lost(text::ParseQuery("mining"));
    expect_refused("earlier term dropped",
                   CheckReformulation(query, lost, reformulated->rates,
                                      ds.schema(), z));
  }

  // Totals and writes.
  net::MetricsResponse before;
  net::MetricsResponse after;
  after.serve.submitted = after.serve.completed = 100;
  after.serve.cache_hits = 90;
  after.serve.executed = 10;
  after.mutate_accepted = 5;
  ClientTotals client{100, 0, 5, 0};
  expect_passed("totals", CheckTotals(client, before, after));
  {
    ClientTotals lost = client;
    lost.searches_answered = 99;
    expect_refused("client and server totals differ",
                   CheckTotals(lost, before, after));
  }
  std::vector<WriteRecord> writes(3, WriteRecord{true, true, 7, 7});
  expect_passed("writes", CheckWrites(writes));
  {
    std::vector<WriteRecord> lost = writes;
    lost[1].visible = false;
    expect_refused("lost write", CheckWrites(lost));
  }
  {
    std::vector<WriteRecord> wrong = writes;
    wrong[2].seen_node = 8;
    expect_refused("write surfaced another paper", CheckWrites(wrong));
  }
  std::fprintf(stderr, "self-test: %d corruptions refused, %d slipped\n",
               refused, slipped);
  return slipped;
}

}  // namespace orxbench
