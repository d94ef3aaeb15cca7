// The four workloads. The wire ones (hot_search, cold_search, write_mix)
// load orx_serve over loopback from this one process; feedback_session
// runs the paper's Section 6.2 loop through the library's public API.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "datasets/zipf.h"
#include "probes.h"
#include "sessions.h"
#include "trace.h"
#include "wire.h"

namespace orxbench {
namespace {

/// Dataset scales. The quick mode shrinks every workload to a toy size.
double HotScale(const Config& c) { return c.quick ? 0.05 : 1.0; }
double ColdScale(const Config& c) { return c.quick ? 0.1 : 10.0; }

constexpr size_t kHeadTerms = 64;
/// Cold queries draw from the df ranks just below the head.
constexpr size_t kMidBandEnd = kHeadTerms + 768;
/// write_mix's write rate. Each write's publication rebuilds the snapshot
/// on the server's CPUs (~40 ms at DBLPtop): at 8 writes/s the rebuilds
/// took a third of the time and the run-to-run spread of the reads'
/// throughput and 90th percentile doubled (13 % and 17 %, against 7 % and
/// 8 % at 2 writes/s, in six interleaved runs each on a 4-vCPU EPYC VM).
constexpr double kWritesPerSecond = 2.0;
/// The unloaded write probe of the traced runs: 8 writes in 1 s.
constexpr double kProbeWritesPerSecond = 8.0;
/// Fresh servers per untraced wire run (see RunWire).
constexpr int kSegments = 3;

double ProcessCpu() { return ProcessCpuSeconds(getpid()); }

/// Zipf(s=1) single-term searches over the highest-df terms.
std::function<std::string()> HotStream(const std::vector<std::string>& head,
                                       uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  auto zipf = std::make_shared<datasets::ZipfSampler>(head.size(), 1.0);
  return [rng, zipf, &head] { return head[zipf->Sample(*rng)]; };
}

/// Three distinct mid-frequency terms, uniform, never repeating a query.
class ColdStream {
 public:
  ColdStream(const text::Corpus& corpus, uint64_t seed) : rng_(seed) {
    std::vector<std::string> ranked = tools::HeadTerms(corpus, kMidBandEnd);
    band_.assign(ranked.begin() + std::min(kHeadTerms, ranked.size()),
                 ranked.end());
  }
  std::string Next() {
    while (true) {
      std::vector<std::string> terms;
      while (terms.size() < 3) {
        const std::string& t = band_[rng_.UniformInt(band_.size())];
        if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
          terms.push_back(t);
        }
      }
      std::vector<std::string> key = terms;
      std::sort(key.begin(), key.end());
      if (used_.insert(key[0] + " " + key[1] + " " + key[2]).second) {
        return terms[0] + " " + terms[1] + " " + terms[2];
      }
    }
  }

 private:
  Rng rng_;
  std::vector<std::string> band_;
  std::set<std::string> used_;
};

/// Checks kept answers against reference solves, four at a time.
void CheckRankings(
    const tools::ServingDataset& ref,
    const std::vector<std::pair<std::string, net::SearchResponse>>& kept,
    Report& report) {
  const serve::ServeSnapshot& snap = *ref.snapshot;
  const core::SearchOptions& opts = snap.default_options;
  std::vector<std::string> verdicts(kept.size());
  std::vector<double> gaps(kept.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < kept.size(); i += 4) {
        // orx_serve runs each search in a fresh Searcher: no warm start.
        const RankingReference reference = ReferenceFor(
            *snap.authority, *snap.corpus,
            text::QueryVector(text::ParseQuery(kept[i].first)), snap.rates,
            opts, static_cast<int>(kept[i].second.iterations));
        verdicts[i] = CheckRanking(RowsOf(kept[i].second), opts.k, reference);
        gaps[i] = LargestGap(RowsOf(kept[i].second), reference);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::fprintf(stderr,
               "rankings: %zu checked against the sequential push, largest "
               "score gap %.3g\n",
               kept.size(), gaps.empty() ? 0.0 : *std::max_element(
                                                     gaps.begin(), gaps.end()));
  for (size_t i = 0; i < kept.size(); ++i) {
    if (!verdicts[i].empty()) {
      report.Fail("ranking of '" + kept[i].first + "': " + verdicts[i]);
    }
  }
}

/// The server under test: a spawned orx_serve, or (traced run) the same
/// components hosted in this process.
class WireServer {
 public:
  WireServer(const Config& config, double scale, bool mutate, bool pin) {
    error_ = process_.Start(config.serve_bin, scale, mutate, pin);
    port_ = process_.port();
  }
  WireServer(tools::ServingDataset dataset, Tracer* tracer, bool pin)
      : host_(std::make_unique<Host>(std::move(dataset), tracer, pin)) {
    error_ = host_->Start(pin);
    port_ = host_->port();
  }

  const std::string& error() const { return error_; }
  uint16_t port() const { return port_; }
  Host* host() { return host_.get(); }
  /// Server CPU seconds so far (the whole process when hosted; the
  /// caller subtracts its load threads).
  double CpuSeconds() const {
    return host_ != nullptr ? ProcessCpu() : ProcessCpuSeconds(process_.pid());
  }
  double PeakRss() const {
    return PeakRssMb(host_ != nullptr ? getpid() : process_.pid());
  }

 private:
  std::unique_ptr<Host> host_;
  ServeProcess process_;
  std::string error_;
  uint16_t port_ = 0;
};

// --- Writes -----------------------------------------------------------------

struct WriterResult {
  std::vector<WriteRecord> writes;
  std::vector<double> ack_s;
  std::vector<double> visible_s;
  ClientTotals totals;
  uint64_t errors = 0;
  std::string first_error;
  double cpu_s = 0.0;
  double epochs_live_max = 0.0;
};

/// A letters-only term of its own for write `n` under `seed`; generated
/// titles never contain it (RunWire checks the first few).
std::string UniqueTerm(uint64_t seed, uint64_t n) {
  std::string out = "wzq";
  for (uint64_t v = seed % 17576 * 100000 + n; ; v /= 26) {
    out.push_back(static_cast<char>('a' + v % 26));
    if (v < 26) break;
  }
  return out;
}

/// Open loop at `rate` writes/s: each write adds one paper titled with
/// a term of its own plus a citation to an existing paper, then the
/// writer polls a search for that term until the paper appears. Acks are
/// timed from each write's due time.
void RunWriter(uint16_t port, const tools::ServingDataset& ref,
               uint64_t seed, Clock::time_point start, double seconds,
               double rate, bool pin, Tracer* tracer, WriterResult& out) {
  if (pin) PinToClientCpu();
  net::BlockingClient client;
  const std::string connect = ConnectClient(client, port);
  if (!connect.empty()) {
    ++out.errors;
    out.first_error = connect;
    return;
  }
  const double cpu0 = ThreadCpuSeconds();
  const auto& types = ref.dblp->types;
  const graph::DataGraph& data = ref.dblp->dataset.data();
  std::vector<graph::NodeId> papers;
  for (graph::NodeId v = 0; v < data.num_nodes(); ++v) {
    if (data.NodeType(v) == types.paper) papers.push_back(v);
  }
  Rng rng(seed ^ 0x5bd1e995);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point due = start + period / 2;
  std::vector<Clock::time_point> acked_at;
  std::vector<std::string> terms;
  std::deque<size_t> pending;
  uint64_t next_node = data.num_nodes();
  while (true) {
    const Clock::time_point now = Clock::now();
    if (now >= end && pending.empty()) break;
    if (now > end + std::chrono::seconds(15)) break;
    if (now < end && now >= due) {
      const size_t i = out.writes.size();
      terms.push_back(UniqueTerm(seed, i));
      net::MutateRequest request;
      request.batch.mutations.push_back(mutate::Mutation::AddNode(
          types.paper,
          {{"title", terms[i] + " " + ref.head_terms[i % ref.head_terms.size()]}}));
      request.batch.mutations.push_back(mutate::Mutation::AddEdge(
          next_node, papers[rng.UniformInt(papers.size())], types.cites));
      WriteRecord record;
      record.expected_node = next_node;
      StatusOr<net::MutateResponse> ack = Status::OK();
      {
        ScopedSpan span(tracer, "client.write");
        ack = client.Mutate(request);
      }
      const Clock::time_point done = Clock::now();
      acked_at.push_back(done);
      if (ack.ok()) {
        record.acked = true;
        ++next_node;
        ++out.totals.writes_acked;
        out.ack_s.push_back(SecondsBetween(due, done));
        pending.push_back(i);
      } else {
        ++out.errors;
        if (ack.status().code() == StatusCode::kUnavailable) {
          ++out.totals.writes_rejected;
        }
        if (out.first_error.empty()) out.first_error = ack.status().ToString();
      }
      out.writes.push_back(record);
      due += period;
      continue;
    }
    if (pending.empty()) {
      std::this_thread::sleep_until(std::min(due, end));
      continue;
    }
    const size_t i = pending.front();
    pending.pop_front();
    net::SearchRequest poll;
    poll.query = terms[i];
    StatusOr<net::SearchResponse> got = Status::OK();
    {
      ScopedSpan span(tracer, "client.poll");
      got = client.Search(poll);
    }
    const Clock::time_point done = Clock::now();
    if (got.ok()) {
      ++out.totals.searches_answered;
      WriteRecord& w = out.writes[i];
      w.visible = true;
      w.seen_node = got->results.empty() ? 0 : got->results[0].node;
      for (const net::WireResult& r : got->results) {
        if (r.node == w.expected_node) w.seen_node = r.node;
      }
      out.visible_s.push_back(SecondsBetween(acked_at[i], done));
      auto metrics = client.Metrics();
      if (metrics.ok()) {
        out.epochs_live_max = std::max(
            out.epochs_live_max, static_cast<double>(metrics->epochs_live));
      }
      continue;
    }
    if (got.status().code() == StatusCode::kNotFound) {
      // Not published yet: not a failure; poll again after 1 ms, or
      // sooner when the next write falls due.
      ++out.totals.searches_answered;
      pending.push_back(i);
      std::this_thread::sleep_until(
          std::min(due, done + std::chrono::milliseconds(1)));
      continue;
    }
    ++out.errors;
    if (got.status().code() == StatusCode::kUnavailable) {
      ++out.totals.searches_rejected;
      pending.push_back(i);
    }
    if (out.first_error.empty()) out.first_error = got.status().ToString();
  }
  out.cpu_s = ThreadCpuSeconds() - cpu0;
}

/// The rest of a traced run, after its timed phase: write values (the
/// workload's own, or a short unloaded write probe), feedback-loop values
/// (two sessions, unless the workload ran its own), the library and
/// serving probes; then prints the per-layer metrics and writes the spans.
void FinishTraced(const Config& config, Host& host,
                  const std::vector<std::string>& raw_frames,
                  const WriterResult* writer, bool cold, double scale,
                  double ops, Tracer& tracer, LayerValues& values,
                  Report& report) {
  const tools::ServingDataset& ds = host.dataset();
  WriterResult probe;
  if (writer == nullptr) {
    RunWriter(host.port(), ds, config.seed, Clock::now(), 1.0,
              kProbeWritesPerSecond, false, &tracer, probe);
    const std::string verdict = CheckWrites(probe.writes);
    if (!verdict.empty()) report.Fail("write probe: " + verdict);
    if (probe.errors > 0) report.Fail("write probe: " + probe.first_error);
    writer = &probe;
  }
  std::vector<double> ack_ms, visible_ms;
  for (double v : writer->ack_s) ack_ms.push_back(v * 1e3);
  for (double v : writer->visible_s) visible_ms.push_back(v * 1e3);
  values.mutate_write_ack_p50_ms = Percentile(ack_ms, 0.5);
  values.mutate_write_visible_p50_ms = Percentile(visible_ms, 0.5);
  values.mutate_write_visible_p90_ms = Percentile(visible_ms, 0.9);
  values.mutate_epochs_live_max =
      std::max(values.mutate_epochs_live_max, writer->epochs_live_max);
  if (config.workload != "feedback_session") {
    FillSessionValues(SessionRunner(ds).Run(config.seed, 1e9, 2, &tracer,
                                            report),
                      values);
  }
  // Probe queries: fresh cold queries (never sent, so never cached), or
  // the head terms.
  ColdStream cold_stream(*ds.snapshot->corpus, config.seed ^ 0x9e3779b9);
  std::vector<std::string> sample;
  for (size_t i = 0; i < 16 && i < ds.head_terms.size(); ++i) {
    sample.push_back(cold ? cold_stream.Next() : ds.head_terms[i]);
    if (cold && sample.size() == 4) break;
  }
  ProbeLibrary(host, sample, &tracer, values, report);
  std::vector<std::string> replay;
  for (int i = 0; i < (cold ? 16 : 64); ++i) {
    replay.push_back(cold_stream.Next());
  }
  ProbeServing(host, raw_frames, replay, scale, &tracer, values, report);
  values.EmitTo(report);
  FinishTrace(config, tracer, ops);
}

// --- The wire workloads -----------------------------------------------------

enum class WireKind { kHot, kCold, kWriteMix };

void RunWire(const Config& config, WireKind kind, Report& report) {
  const bool cold = kind == WireKind::kCold;
  const bool writes = kind == WireKind::kWriteMix;
  const double scale = cold ? ColdScale(config) : HotScale(config);
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>() : nullptr;
  // The hot paths keep one client core busy: give the client a CPU of its
  // own. The cold client idles, so the server keeps every core there.
  const bool pin = !cold;
  // Set-up is the serving side's alone: the first server's start (from
  // the spawn of orx_serve to its "listening" line, or the hosted stack's
  // dataset build and start) plus its warm-up. The reference dataset for
  // the checks is built before, untimed.
  tools::ServingDataset own;
  if (!config.trace) own = tools::BuildServingDataset(scale);
  const Clock::time_point start0 = Clock::now();
  std::unique_ptr<WireServer> server;
  if (config.trace) {
    server = std::make_unique<WireServer>(tools::BuildServingDataset(scale),
                                          tracer.get(), pin);
  } else {
    server = std::make_unique<WireServer>(config, scale, writes, pin);
  }
  const double start_s = SecondsBetween(start0, Clock::now());
  const tools::ServingDataset& ref =
      config.trace ? server->host()->dataset() : own;
  const text::Corpus& corpus = *ref.snapshot->corpus;
  for (size_t i = 0; writes && i < 4; ++i) {
    if (corpus.TermIdOf(UniqueTerm(config.seed, i)).has_value()) {
      report.Fail("write term " + UniqueTerm(config.seed, i) +
                  " already occurs in the corpus");
    }
  }

  ColdStream cold_stream(corpus, config.seed);
  std::set<std::string> kept_queries;
  ReadPlan plan;
  plan.connections = writes ? 3 : 4;
  plan.k = ref.snapshot->default_options.k;
  plan.pin = pin;
  plan.tracer = tracer.get();
  if (cold) {
    plan.next_query = [&cold_stream] { return cold_stream.Next(); };
  } else {
    plan.next_query = HotStream(ref.head_terms, config.seed);
  }
  // The first 8 distinct queries' answers are checked against references.
  plan.keep = [&kept_queries](const std::string& q) {
    return kept_queries.size() < 8 && kept_queries.insert(q).second;
  };

  // The timed phase runs in segments, each against a freshly started
  // server: run-to-run differences of one server process (where its
  // memory lands) then average out within a run.
  const int segments = config.trace || config.quick ? 1 : kSegments;
  plan.seconds = config.seconds / segments;
  double setup_s = 0.0;
  ReadResult reads;
  WriterResult writer;
  std::vector<double> peak_rss;
  double server_cpu = 0.0;
  double process_cpu = 0.0;
  net::MetricsResponse before;
  net::MetricsResponse after;
  for (int segment = 0; segment < segments; ++segment) {
    if (segment > 0) {
      server.reset();
      server = std::make_unique<WireServer>(config, scale, writes, pin);
    }
    if (!server->error().empty()) {
      report.Fail("server: " + server->error());
      return;
    }
    plan.port = server->port();
    // Warm-up: every head term once (fills the result cache), or a few
    // cold queries (builds the rate-resolved layout).
    net::BlockingClient client;
    const std::string connect = ConnectClient(client, server->port());
    if (!connect.empty()) {
      report.Fail("connect: " + connect);
      return;
    }
    std::vector<std::string> warm = ref.head_terms;
    if (cold) {
      warm.clear();
      for (int i = 0; i < 8; ++i) warm.push_back(cold_stream.Next());
    }
    const Clock::time_point warm0 = Clock::now();
    for (const std::string& q : warm) {
      net::SearchRequest request;
      request.query = q;
      auto r = client.Search(request);
      if (!r.ok()) {
        report.Fail("warm-up '" + q + "': " + r.status().ToString());
      }
    }
    if (segment == 0) {
      setup_s = start_s + SecondsBetween(warm0, Clock::now());
    }
    auto metrics0 = client.Metrics();
    const double server_cpu0 = server->CpuSeconds();
    const double process_cpu0 = ProcessCpu();
    WriterResult part_writer;
    std::thread writer_thread;
    const Clock::time_point start = Clock::now();
    if (writes) {
      writer_thread = std::thread([&] {
        RunWriter(server->port(), ref, config.seed + segment, start,
                  plan.seconds, kWritesPerSecond, pin, tracer.get(),
                  part_writer);
      });
    }
    ReadResult part = RunClosedLoop(plan);
    if (writer_thread.joinable()) writer_thread.join();
    std::fprintf(stderr, "segment %d: %.1f reads/s\n", segment,
                 static_cast<double>(part.samples.size()) / part.wall_s);
    server_cpu += server->CpuSeconds() - server_cpu0;
    process_cpu += ProcessCpu() - process_cpu0;
    auto metrics1 = client.Metrics();
    peak_rss.push_back(server->PeakRss());
    if (!metrics0.ok() || !metrics1.ok()) {
      report.Fail("kMetrics failed");
      return;
    }
    before = *metrics0;
    after = *metrics1;

    // Checks of the segment: independent totals and every write.
    ClientTotals totals = part_writer.totals;
    totals.searches_answered += part.answered - part.rejected;
    totals.searches_rejected += part.rejected;
    const std::string verdict = CheckTotals(totals, before, after);
    if (!verdict.empty()) report.Fail("totals: " + verdict);
    const std::string w = CheckWrites(part_writer.writes);
    if (!w.empty()) report.Fail("writes: " + w);

    reads.samples.insert(reads.samples.end(), part.samples.begin(),
                         part.samples.end());
    reads.wall_s += part.wall_s;
    reads.client_cpu_s += part.client_cpu_s;
    reads.answered += part.answered;
    reads.rejected += part.rejected;
    reads.errors += part.errors;
    reads.malformed += part.malformed;
    if (reads.first_error.empty()) reads.first_error = part.first_error;
    for (auto& k : part.kept) reads.kept.push_back(std::move(k));
    reads.raw_frames = std::move(part.raw_frames);
    writer.writes.insert(writer.writes.end(), part_writer.writes.begin(),
                         part_writer.writes.end());
    writer.ack_s.insert(writer.ack_s.end(), part_writer.ack_s.begin(),
                        part_writer.ack_s.end());
    writer.visible_s.insert(writer.visible_s.end(),
                            part_writer.visible_s.begin(),
                            part_writer.visible_s.end());
    writer.errors += part_writer.errors;
    writer.cpu_s += part_writer.cpu_s;
    writer.epochs_live_max =
        std::max(writer.epochs_live_max, part_writer.epochs_live_max);
    if (writer.first_error.empty()) writer.first_error = part_writer.first_error;
  }
  // The rankings of write_mix move with every write: no reference there.
  if (!writes) CheckRankings(ref, reads.kept, report);

  // Operations and failures: every read, plus every write.
  const uint64_t reads_failed = reads.rejected + reads.errors;
  report.attempted = reads.samples.size() + reads_failed + writer.writes.size();
  report.failed = reads_failed + writer.errors;
  if (!reads.first_error.empty()) {
    std::fprintf(stderr, "read error: %s\n", reads.first_error.c_str());
  }
  if (!writer.first_error.empty()) {
    std::fprintf(stderr, "write error: %s\n", writer.first_error.c_str());
  }
  if (reads.malformed > 0) {
    report.Fail(std::to_string(reads.malformed) +
                " answers out of order or of the wrong size");
  }

  std::vector<double> latency_s;
  for (const ReadSample& s : reads.samples) latency_s.push_back(s.latency_s);
  const PhaseStats phase = Summarize(latency_s, reads.wall_s);
  const double ops = static_cast<double>(reads.samples.size());
  const double client_cpu =
      config.trace ? reads.client_cpu_s + writer.cpu_s : process_cpu;
  const double serving_cpu =
      config.trace ? server_cpu - client_cpu : server_cpu;
  std::fprintf(stderr,
               "%s: %zu reads in %.2f s (%d segments); cpu: client %.2f s, "
               "server %.2f s\n",
               config.workload.c_str(), reads.samples.size(), reads.wall_s,
               segments, client_cpu, serving_cpu);

  std::vector<double> ack_ms, visible_ms;
  for (double v : writer.ack_s) ack_ms.push_back(v * 1e3);
  for (double v : writer.visible_s) visible_ms.push_back(v * 1e3);
  if (writes) {
    std::fprintf(stderr,
                 "write_mix: %zu writes, ack p50 %.3f ms, visible p50 %.2f "
                 "ms p90 %.2f ms\n",
                 writer.writes.size(), Percentile(ack_ms, 0.5),
                 Percentile(visible_ms, 0.5), Percentile(visible_ms, 0.9));
  }
  report.E2e("setup_s", setup_s, "s");
  report.E2e("peak_rss_mb", Median(peak_rss), "MiB");
  report.E2e("ops_per_s", phase.ops_per_s, "ops/s");
  report.E2e("op_p50_ms", phase.p50_ms, "ms");
  report.E2e("op_p90_ms", phase.p90_ms, "ms");
  std::fprintf(stderr, "%s: op p99 %.4f ms\n", config.workload.c_str(),
               phase.p99_ms);
  if (!config.trace) return;

  // Traced run: per-layer values from the wire phase, then the probes.
  LayerValues values;
  values.client_cpu_s = client_cpu;
  values.server_cpu_us_per_op = serving_cpu / ops * 1e6;
  FillWireValues(reads, before, after, values);
  FinishTraced(config, *server->host(), reads.raw_frames,
               writes ? &writer : nullptr, cold, scale, ops, *tracer, values,
               report);
}

}  // namespace

void RunHotSearch(const Config& config, Report& report) {
  RunWire(config, WireKind::kHot, report);
}
void RunColdSearch(const Config& config, Report& report) {
  RunWire(config, WireKind::kCold, report);
}
void RunWriteMix(const Config& config, Report& report) {
  RunWire(config, WireKind::kWriteMix, report);
}

// --- feedback_session -------------------------------------------------------

void RunFeedbackSession(const Config& config, Report& report) {
  const double scale = HotScale(config);
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>() : nullptr;
  std::unique_ptr<Host> host;
  tools::ServingDataset own;
  if (config.trace) {
    host = std::make_unique<Host>(tools::BuildServingDataset(scale),
                                  tracer.get(), false);
    const std::string started = host->Start(false);
    if (!started.empty()) {
      report.Fail("host: " + started);
      return;
    }
  } else {
    own = tools::BuildServingDataset(scale);
  }
  const tools::ServingDataset& ds = host != nullptr ? host->dataset() : own;
  const SessionRunner runner(ds);
  const double setup_s = SecondsBetween(config.process_start, Clock::now());

  const SessionStats stats =
      runner.Run(config.seed, config.seconds, std::numeric_limits<int>::max(),
                 tracer.get(), report);
  report.attempted = stats.attempted;
  report.failed = stats.failed;
  std::fprintf(stderr,
               "feedback_session: %d sessions, %zu rounds in %.2f s (%.2f s "
               "of checks paused); precision of the last query %.4f\n",
               stats.sessions, stats.rounds.size(), stats.wall_s,
               stats.paused_s, Mean(stats.precision));
  const PhaseStats phase = Summarize(stats.rounds, stats.wall_s);
  report.E2e("setup_s", setup_s, "s");
  report.E2e("peak_rss_mb", PeakRssMb(getpid()), "MiB");
  report.E2e("ops_per_s", phase.ops_per_s, "ops/s");
  report.E2e("op_p50_ms", phase.p50_ms, "ms");
  report.E2e("op_p90_ms", phase.p90_ms, "ms");
  std::fprintf(stderr,
               "feedback_session: op p99 %.4f ms; rankings: %d checked against "
               "the sequential push, largest score gap %.3g\n",
               phase.p99_ms, stats.rankings_checked, stats.largest_gap);
  if (!config.trace) return;

  // The library runs in this process, so its CPU per round is the
  // "server" share. The wire values come from a short closed loop of head
  // terms and a short write probe against the hosted stack, as this
  // workload sends nothing over the wire.
  LayerValues values;
  const double ops = static_cast<double>(stats.rounds.size());
  values.client_cpu_s = stats.cpu_s;
  values.server_cpu_us_per_op = stats.cpu_s / ops * 1e6;
  FillSessionValues(stats, values);
  auto metrics_now = [&] {
    net::BlockingClient c;
    ConnectClient(c, host->port());
    return c.Metrics();
  };
  auto m0 = metrics_now();
  ReadPlan plan;
  plan.port = host->port();
  plan.connections = 1;
  plan.seconds = 0.5;
  plan.tracer = tracer.get();
  plan.next_query = HotStream(ds.head_terms, config.seed);
  const ReadResult reads = RunClosedLoop(plan);
  auto m1 = metrics_now();
  if (m0.ok() && m1.ok()) FillWireValues(reads, *m0, *m1, values);
  FinishTraced(config, *host, reads.raw_frames, nullptr, false, scale, ops,
               *tracer, values, report);
}

}  // namespace orxbench
