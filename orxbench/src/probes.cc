#include "probes.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "checks.h"
#include "core/base_set.h"
#include "core/searcher.h"
#include "datasets/dblp_generator.h"
#include "eval/metrics.h"
#include "explain/explainer.h"
#include "graph/spmv_layout.h"
#include "reformulate/reformulator.h"
#include "sessions.h"

namespace orxbench {

void LayerValues::EmitTo(Report& r) const {
  r.Layer("client.cpu_s", client_cpu_s, "s");
  r.Layer("server.cpu_us_per_op", server_cpu_us_per_op, "us");
  r.Layer("net.ping_rtt_us", net_ping_rtt_us, "us");
  r.Layer("net.outside_service_us", net_outside_service_us, "us");
  r.Layer("net.codec_us", net_codec_us, "us");
  r.Layer("net.response_bytes", net_response_bytes, "B");
  r.Layer("serve.service_us", serve_service_us, "us");
  r.Layer("serve.hit_ratio", serve_hit_ratio, "ratio");
  r.Layer("serve.executed", serve_executed, "count");
  r.Layer("serve.coalesced", serve_coalesced, "count");
  r.Layer("serve.queue_ms", serve_queue_ms, "ms");
  r.Layer("core.base_set_us", core_base_set_us, "us");
  r.Layer("core.kernel_ms", core_kernel_ms, "ms");
  r.Layer("core.iterations", core_iterations, "count");
  r.Layer("core.iterations_warm", core_iterations_warm, "count");
  r.Layer("core.medges_per_s", core_medges_per_s, "Medges/s");
  r.Layer("graph.layout_build_ms", graph_layout_build_ms, "ms");
  r.Layer("explain.construction_ms", explain_construction_ms, "ms");
  r.Layer("explain.adjustment_ms", explain_adjustment_ms, "ms");
  r.Layer("explain.iterations", explain_iterations, "count");
  r.Layer("explain.subgraph_edges", explain_subgraph_edges, "count");
  r.Layer("reformulate.ms", reformulate_ms, "ms");
  r.Layer("reformulate.rate_cosine", reformulate_rate_cosine, "ratio");
  r.Layer("mutate.publications", mutate_publications, "count");
  r.Layer("mutate.batches_per_publication", mutate_batches_per_publication,
          "count");
  r.Layer("mutate.publish_ms", mutate_publish_ms, "ms");
  r.Layer("mutate.epochs_live_max", mutate_epochs_live_max, "count");
  r.Layer("mutate.write_ack_p50_ms", mutate_write_ack_p50_ms, "ms");
  r.Layer("mutate.write_visible_p50_ms", mutate_write_visible_p50_ms, "ms");
  r.Layer("mutate.write_visible_p90_ms", mutate_write_visible_p90_ms, "ms");
  r.Layer("eval.feedback_precision", eval_feedback_precision, "ratio");
  r.Layer("datasets.generate_s", datasets_generate_s, "s");
}

void FillWireValues(const ReadResult& reads, const net::MetricsResponse& before,
                    const net::MetricsResponse& after, LayerValues& values) {
  std::vector<double> outside_us, service_us, bytes;
  for (const ReadSample& s : reads.samples) {
    outside_us.push_back((s.latency_s - s.service_s) * 1e6);
    service_us.push_back(s.service_s * 1e6);
    bytes.push_back(s.frame_bytes);
  }
  values.net_outside_service_us = Median(outside_us);
  values.serve_service_us = Median(service_us);
  values.net_response_bytes = Mean(bytes);
  const serve::ServeMetrics& a = after.serve;
  const serve::ServeMetrics& b = before.serve;
  const double submitted = static_cast<double>(a.submitted - b.submitted);
  values.serve_hit_ratio =
      submitted > 0 ? (a.cache_hits - b.cache_hits) / submitted : 0.0;
  values.serve_executed = static_cast<double>(a.executed - b.executed);
  values.serve_coalesced = static_cast<double>(a.coalesced - b.coalesced);
  const double publications = static_cast<double>(
      after.snapshots_published - before.snapshots_published);
  values.mutate_publications = publications;
  values.mutate_batches_per_publication =
      publications > 0
          ? (after.mutate_accepted - before.mutate_accepted) / publications
          : 0.0;
  values.mutate_epochs_live_max = static_cast<double>(after.epochs_live);
}

void FillSessionValues(const SessionStats& stats, LayerValues& values) {
  values.core_iterations_warm = Median(stats.warm_iterations);
  values.explain_construction_ms = Median(stats.construction_ms);
  values.explain_adjustment_ms = Median(stats.adjustment_ms);
  values.explain_iterations = Median(stats.explain_iterations);
  values.explain_subgraph_edges = Median(stats.subgraph_edges);
  values.reformulate_ms = Median(stats.reformulate_ms);
  values.reformulate_rate_cosine = Mean(stats.cosine);
  values.eval_feedback_precision = Mean(stats.precision);
}

void ProbeLibrary(const Host& host, const std::vector<std::string>& queries,
                  Tracer* tracer, LayerValues& values, Report& report) {
  const serve::ServeSnapshot& snap = *host.dataset().snapshot;
  const graph::AuthorityGraph& authority = *snap.authority;
  core::SearchOptions options = snap.default_options;
  options.tier = core::SearchTier::kExact;
  std::vector<double> base_us, kernel_ms, iterations, medges;
  for (const std::string& q : queries) {
    const text::QueryVector query(text::ParseQuery(q));
    {
      ScopedSpan span(tracer, "core.base_set");
      const Clock::time_point t0 = Clock::now();
      auto base = core::BuildBaseSet(*snap.corpus, query,
                                     core::BaseSetMode::kIrWeighted,
                                     options.bm25);
      base_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
      if (!base.ok()) {
        report.Fail("probe base set '" + q + "': " + base.status().ToString());
        continue;
      }
    }
    // A fresh searcher: no warm start, so the iterations are a cold
    // search's. The snapshot's layout cache is already built.
    core::Searcher searcher(*snap.data, authority, *snap.corpus);
    searcher.AttachFusedCache(snap.fused_cache);
    ScopedSpan span(tracer, "core.search");
    auto result = searcher.Search(query, snap.rates, options);
    if (!result.ok()) {
      report.Fail("probe search '" + q + "': " + result.status().ToString());
      continue;
    }
    kernel_ms.push_back(result->seconds * 1e3);
    iterations.push_back(result->iterations);
    medges.push_back(result->iterations *
                     static_cast<double>(authority.num_edges()) /
                     result->seconds / 1e6);
  }
  values.core_base_set_us = Median(base_us);
  values.core_kernel_ms = Median(kernel_ms);
  values.core_iterations = Median(iterations);
  values.core_medges_per_s = Median(medges);

  // A layout for rates no cache has seen: the first Get builds the shared
  // SELL structure (not timed), each later one only re-resolves weights.
  graph::FusedWeightCache cache;
  cache.Get(authority, snap.rates);
  std::vector<double> build_ms;
  for (uint32_t slot = 0; slot < 3 && slot < snap.rates.num_slots();
       ++slot) {
    graph::TransferRates rates = snap.rates;
    rates.set_slot(slot, rates.slot(slot) * 0.9);
    ScopedSpan span(tracer, "graph.layout_build");
    const Clock::time_point t0 = Clock::now();
    cache.Get(authority, rates);
    build_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  values.graph_layout_build_ms = Median(build_ms);
}

void ProbeServing(Host& host, const std::vector<std::string>& raw_frames,
                  const std::vector<std::string>& cold_queries, double scale,
                  Tracer* tracer, LayerValues& values, Report& report) {
  // Ping on an idle connection.
  net::BlockingClient client;
  const std::string connect = ConnectClient(client, host.port());
  if (!connect.empty()) {
    report.Fail("probe connect: " + connect);
    return;
  }
  std::vector<double> ping_us;
  for (int i = 0; i < 200; ++i) {
    ScopedSpan span(tracer, "net.ping");
    const Clock::time_point t0 = Clock::now();
    if (!client.Ping().ok()) {
      report.Fail("ping failed");
      break;
    }
    ping_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
  }
  values.net_ping_rtt_us = Median(ping_us);

  // Codec replay of the run's own response frames; the re-encoded bytes
  // must equal what the server sent.
  std::vector<double> codec_us;
  for (const std::string& frame : raw_frames) {
    ScopedSpan span(tracer, "net.codec");
    const Clock::time_point t0 = Clock::now();
    auto header = net::DecodeHeader(frame.data());
    if (!header.ok() || header->op != net::Op::kSearch) continue;
    auto decoded = net::DecodeSearchResponse(frame.substr(net::kHeaderSize));
    if (!decoded.ok()) {
      report.Fail("codec replay: " + decoded.status().ToString());
      continue;
    }
    const std::string again = net::EncodeFrame(
        net::Op::kSearch, header->request_id,
        net::EncodeSearchResponse(*decoded));
    codec_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
    if (again != frame) report.Fail("codec replay changed a frame");
  }
  values.net_codec_us = Median(codec_us);

  // Queue wait of a cold stream replayed 4-way through the service.
  std::vector<std::vector<double>> queue_ms(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < cold_queries.size(); i += 4) {
        serve::ServeRequest request;
        request.query = text::QueryVector(text::ParseQuery(cold_queries[i]));
        ScopedSpan span(tracer, "serve.search");
        auto response = host.service().Search(std::move(request));
        if (response.ok()) {
          queue_ms[t].push_back(response->queue_seconds * 1e3);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& q : queue_ms) all.insert(all.end(), q.begin(), q.end());
  if (all.size() != cold_queries.size()) report.Fail("queue replay failed");
  values.serve_queue_ms = Median(all);

  // Unloaded publish: one batch from DeltaLog::Append until the snapshot
  // covering it is published.
  const auto& types = host.dataset().dblp->types;
  std::vector<double> publish_ms;
  host.builder().WaitForSequence(host.log().stats().next_sequence - 1, 30.0);
  for (int i = 0; i < 3; ++i) {
    const graph::NodeId node = static_cast<graph::NodeId>(
        host.service().snapshot()->data->num_nodes());
    mutate::MutationBatch batch;
    batch.mutations.push_back(mutate::Mutation::AddNode(
        types.paper, {{"title", "wzqprobe" + std::string(1, 'a' + i)}}));
    batch.mutations.push_back(
        mutate::Mutation::AddEdge(node, node - 1, types.cites));
    ScopedSpan span(tracer, "mutate.publish");
    const Clock::time_point t0 = Clock::now();
    auto sequence = host.log().Append(std::move(batch));
    if (!sequence.ok() || !host.builder().WaitForSequence(*sequence, 30.0)) {
      report.Fail("publish probe did not publish");
      break;
    }
    publish_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    if (host.service().snapshot()->data->num_nodes() != node + 1) {
      report.Fail("publish probe: paper missing from the published snapshot");
    }
  }
  values.mutate_publish_ms = Median(publish_ms);

  {
    ScopedSpan span(tracer, "datasets.generate");
    const Clock::time_point t0 = Clock::now();
    datasets::DblpDataset generated = datasets::GenerateDblp(
        bench::ScaledDblp(datasets::DblpGeneratorConfig::DblpTop(), scale));
    values.datasets_generate_s = SecondsBetween(t0, Clock::now());
  }
}

void FinishTrace(const Config& config, const Tracer& tracer, double ops) {
  std::fprintf(stderr,
               "self time by layer over %.0f operations and the probes "
               "(%zu spans):",
               ops, tracer.size());
  for (const auto& [layer, seconds] : tracer.SelfSeconds()) {
    std::fprintf(stderr, " %s=%.1fms", layer.c_str(), seconds * 1e3);
  }
  std::fprintf(stderr, "\n");
  mkdir(config.out_dir.c_str(), 0755);
  const std::string path = config.out_dir + "/trace_" + config.workload + ".csv";
  if (!tracer.WriteCsv(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

}  // namespace orxbench
