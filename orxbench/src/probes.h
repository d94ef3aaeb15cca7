// Per-layer measurements of the traced run: the values every traced run
// reports, and the in-process probes that time the benchmark's own calls
// into each module's public functions.
#ifndef ORXBENCH_PROBES_H_
#define ORXBENCH_PROBES_H_

#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"
#include "wire.h"

namespace orxbench {

/// Every per-layer metric, in BENCHMARK.json's order. A traced run fills
/// what its workload and the probes measured; see the README for which
/// workload moves which value.
struct LayerValues {
  double client_cpu_s = 0.0;
  double server_cpu_us_per_op = 0.0;
  double net_ping_rtt_us = 0.0;
  double net_outside_service_us = 0.0;
  double net_codec_us = 0.0;
  double net_response_bytes = 0.0;
  double serve_service_us = 0.0;
  double serve_hit_ratio = 0.0;
  double serve_executed = 0.0;
  double serve_coalesced = 0.0;
  double serve_queue_ms = 0.0;
  double core_base_set_us = 0.0;
  double core_kernel_ms = 0.0;
  double core_iterations = 0.0;
  double core_iterations_warm = 0.0;
  double core_medges_per_s = 0.0;
  double graph_layout_build_ms = 0.0;
  double explain_construction_ms = 0.0;
  double explain_adjustment_ms = 0.0;
  double explain_iterations = 0.0;
  double explain_subgraph_edges = 0.0;
  double reformulate_ms = 0.0;
  double reformulate_rate_cosine = 0.0;
  double mutate_publications = 0.0;
  double mutate_batches_per_publication = 0.0;
  double mutate_publish_ms = 0.0;
  double mutate_epochs_live_max = 0.0;
  double mutate_write_ack_p50_ms = 0.0;
  double mutate_write_visible_p50_ms = 0.0;
  double mutate_write_visible_p90_ms = 0.0;
  double eval_feedback_precision = 0.0;
  double datasets_generate_s = 0.0;

  void EmitTo(Report& report) const;
};

/// Wire-phase values: latency split, frame sizes, and the kMetrics deltas.
void FillWireValues(const ReadResult& reads, const net::MetricsResponse& before,
                    const net::MetricsResponse& after, LayerValues& values);

struct SessionStats;

/// Feedback-loop values (warm iterations, explain, reformulate, eval).
void FillSessionValues(const SessionStats& stats, LayerValues& values);

/// Times BuildBaseSet and an exact, cold-started Searcher::Search per
/// query on the hosted dataset, and FusedWeightCache::Get for rates no
/// cache has seen.
void ProbeLibrary(const Host& host, const std::vector<std::string>& queries,
                  Tracer* tracer, LayerValues& values, Report& report);

/// Idle-connection ping, the codec replay of `raw_frames`, a 4-way replay
/// of `cold_queries` through SearchService::Search, the unloaded publish
/// probe, and the dataset generation time for `scale`.
void ProbeServing(Host& host, const std::vector<std::string>& raw_frames,
                  const std::vector<std::string>& cold_queries, double scale,
                  Tracer* tracer, LayerValues& values, Report& report);

/// Prints the per-layer self times the spans give and writes the spans to
/// <out_dir>/trace_<workload>.csv.
void FinishTrace(const Config& config, const Tracer& tracer, double ops);

}  // namespace orxbench

#endif  // ORXBENCH_PROBES_H_
