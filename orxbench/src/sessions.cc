#include "sessions.h"

#include <algorithm>
#include <string>

#include "checks.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "eval/residual_collection.h"
#include "eval/simulated_user.h"

namespace orxbench {
namespace {

// Section 6.2's settings: system rates start at 0.3, content C_e = 0.2,
// structure C_f = 0.5, radius L = 3, up to two feedback objects per round,
// four rounds per session; the users' rates are the ground truth with 15%
// noise and each judges the top 30 of its own ranking relevant.
constexpr int kRounds = 4;
constexpr size_t kFeedbackObjects = 2;
constexpr double kUserNoise = 0.15;
constexpr int kRelevantPool = 30;
/// Session queries take 2-3 distinct terms from this many highest-df terms.
constexpr size_t kQueryTerms = 128;
/// Every round of every kCheckedSessions-th session has its ranking
/// checked against a reference solve.
constexpr int kCheckedSessions = 16;

}  // namespace

SessionRunner::SessionRunner(const tools::ServingDataset& dataset)
    : ds_(dataset),
      initial_(dataset.dblp->dataset.schema(), 0.3),
      truth_(datasets::DblpGroundTruthRates(dataset.dblp->dataset.schema(),
                                            dataset.dblp->types)),
      seeded_(dataset.dblp->dataset.data(), dataset.dblp->dataset.authority(),
              dataset.dblp->dataset.corpus()) {
  search_.k = 10;
  search_.result_type = dataset.dblp->types.paper;
  reform_.content.expansion = 0.2;
  reform_.structure.adjustment = 0.5;
  reform_.explain.radius = 3;
  initial_.CapOutgoingSums(dataset.dblp->dataset.schema());
  seeded_.PrecomputeGlobalRank(initial_, search_.objectrank);
}

SessionStats SessionRunner::Run(uint64_t seed, double seconds,
                                int max_sessions, Tracer* t,
                                Report& report) const {
  const datasets::Dataset& dataset = ds_.dblp->dataset;
  const graph::DataGraph& data = dataset.data();
  const graph::AuthorityGraph& authority = dataset.authority();
  const text::Corpus& corpus = dataset.corpus();
  const graph::SchemaGraph& schema = dataset.schema();
  const graph::TypeId paper = ds_.dblp->types.paper;
  const std::vector<std::string> head = tools::HeadTerms(corpus, kQueryTerms);
  std::vector<graph::TypeId> node_types(data.num_nodes());
  for (graph::NodeId v = 0; v < data.num_nodes(); ++v) {
    node_types[v] = data.NodeType(v);
  }
  reform::Reformulator reformulator(data, authority, corpus);
  Rng rng(seed);
  // Query terms are dealt from seeded shuffles of the head terms, one
  // shuffle after another, and queries alternate between 2 and 3 terms:
  // every run then draws each term about equally often, so the cost of a
  // run's query mix varies little with the seed.
  std::vector<size_t> deck;
  size_t dealt = 0;
  auto deal = [&]() -> const std::string& {
    if (dealt == deck.size()) {
      deck.resize(head.size());
      for (size_t i = 0; i < deck.size(); ++i) deck[i] = i;
      rng.Shuffle(deck);
      dealt = 0;
    }
    return head[deck[dealt++]];
  };

  SessionStats out;
  const double cpu0 = ThreadCpuSeconds();
  const Clock::time_point start = Clock::now();
  auto active = [&] {
    return SecondsBetween(start, Clock::now()) - out.paused_s;
  };
  while (active() < seconds && out.sessions < max_sessions) {
    const int session = out.sessions++;
    std::vector<std::string> terms;
    const size_t want = 2 + session % 2;
    while (terms.size() < want) {
      const std::string& term = deal();
      if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
        terms.push_back(term);
      }
    }
    std::string text = terms[0];
    for (size_t i = 1; i < terms.size(); ++i) text += " " + terms[i];
    text::QueryVector query(text::ParseQuery(text));
    // The simulated user ranks with its own rates: the judge's work, not
    // the system's, so the clock is paused for it as for the checks.
    const Clock::time_point u0 = Clock::now();
    const graph::TransferRates user_rates =
        eval::PerturbedRates(schema, truth_, kUserNoise, rng);
    eval::SimulatedUserOptions user_options;
    user_options.relevant_pool = kRelevantPool;
    user_options.search = search_;
    eval::SimulatedUser user(data, authority, corpus, user_rates,
                             user_options);
    const bool intent = user.SetIntent(query);
    out.paused_s += SecondsBetween(u0, Clock::now());
    if (!intent) {
      report.Fail("no ground truth for '" + text + "'");
      continue;
    }
    core::Searcher searcher = seeded_;
    graph::TransferRates rates = initial_;
    auto current = searcher.Search(query, rates, search_);
    if (!current.ok()) {
      report.Fail("initial search '" + text + "': " +
                  current.status().ToString());
      continue;
    }
    eval::ResidualCollection residual(data.num_nodes());
    for (int round = 1; round <= kRounds; ++round) {
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      ScopedSpan round_span(t, "client.round");
      std::vector<core::ScoredNode> shown;
      {
        ScopedSpan span(t, "eval.judge", round_span.id());
        shown = residual.ResidualTopK(current->scores, search_.k, data, paper);
      }
      std::vector<graph::NodeId> feedback;
      for (const core::ScoredNode& r : shown) {
        if (feedback.size() < kFeedbackObjects && r.score > 0.0 &&
            user.IsRelevant(r.node)) {
          feedback.push_back(r.node);
        }
      }
      for (graph::NodeId v : feedback) residual.Remove(v);
      // A round without relevant results leaves the query as it is and
      // only re-searches.
      StatusOr<reform::ReformulationResult> next = Status::OK();
      const bool reformulated = !feedback.empty();
      if (reformulated) {
        StatusOr<core::BaseSet> base = Status::OK();
        {
          ScopedSpan span(t, "core.base_set", round_span.id());
          base = core::BuildBaseSet(corpus, query,
                                    core::BaseSetMode::kIrWeighted,
                                    search_.bm25);
        }
        if (base.ok()) {
          ScopedSpan span(t, "reformulate.reformulate", round_span.id());
          next = reformulator.Reformulate(query, rates, *base,
                                          current->scores, feedback, reform_);
        } else {
          next = base.status();
        }
      }
      if (!next.ok()) {
        ++out.failed;
        report.Fail("reformulate: " + next.status().ToString());
        break;
      }
      const text::QueryVector next_query = reformulated ? next->query : query;
      const graph::TransferRates next_rates =
          reformulated ? next->rates : rates;
      StatusOr<core::SearchResult> research = Status::OK();
      {
        ScopedSpan span(t, "core.search", round_span.id());
        research = searcher.Search(next_query, next_rates, search_);
      }
      const Clock::time_point t1 = Clock::now();
      if (!research.ok()) {
        ++out.failed;
        report.Fail("re-search: " + research.status().ToString());
        break;
      }
      out.rounds.push_back(SecondsBetween(t0, t1));

      // Checks, with the clock paused.
      const Clock::time_point c0 = Clock::now();
      if (reformulated) {
        for (const explain::Explanation& e : next->explanations) {
          const std::string v = CheckExplanation(
              FactsOf(e), authority, rates, current->scores, reform_.damping,
              reform_.explain.epsilon);
          if (!v.empty()) report.Fail("explanation: " + v);
          out.construction_ms.push_back(e.construction_seconds * 1e3);
          out.adjustment_ms.push_back(e.adjustment_seconds * 1e3);
          out.explain_iterations.push_back(e.iterations);
          out.subgraph_edges.push_back(
              static_cast<double>(e.subgraph.num_edges()));
        }
        const std::string v =
            CheckReformulation(query, next->query, next->rates, schema,
                               reform_.content.top_terms);
        if (!v.empty()) report.Fail("reformulation: " + v);
        out.reformulate_ms.push_back(next->reformulation_seconds * 1e3);
      }
      out.warm_iterations.push_back(research->iterations);
      if (session % kCheckedSessions == 0) {
        // The re-search is warm-started from the previous scores.
        std::vector<RankedRow> rows;
        for (const core::ScoredNode& r : research->top) {
          rows.push_back({r.node, r.score});
        }
        const RankingReference reference =
            ReferenceFor(authority, corpus, next_query, next_rates, search_,
                         research->iterations, &current->scores);
        const std::string v = CheckRanking(rows, search_.k, reference,
                                           &node_types, paper);
        if (!v.empty()) report.Fail("ranking of '" + text + "': " + v);
        ++out.rankings_checked;
        out.largest_gap =
            std::max(out.largest_gap, LargestGap(rows, reference));
      }
      query = next_query;
      rates = next_rates;
      current = std::move(research);
      out.paused_s += SecondsBetween(c0, Clock::now());
    }
    const std::vector<core::ScoredNode> last =
        residual.ResidualTopK(current->scores, search_.k, data, paper);
    out.precision.push_back(eval::Precision(last, user.relevant_set()));
    out.cosine.push_back(
        eval::CosineSimilarity(rates.slots(), user_rates.slots()));
  }
  out.wall_s = SecondsBetween(start, Clock::now()) - out.paused_s;
  out.cpu_s = ThreadCpuSeconds() - cpu0;
  return out;
}

}  // namespace orxbench
