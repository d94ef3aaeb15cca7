// The wire side of the benchmark: the server under test (a spawned
// orx_serve, or the same components hosted in-process for the traced
// run) and the one-process load client.
#ifndef ORXBENCH_WIRE_H_
#define ORXBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "dataset_spec.h"
#include "mutate/delta_log.h"
#include "net/client.h"
#include "mutate/epoch.h"
#include "mutate/snapshot_builder.h"
#include "net/frame.h"
#include "net/serve_handler.h"
#include "net/server.h"
#include "serve/search_service.h"
#include "trace.h"

namespace orxbench {

/// CPU placement of the wire workloads whose client is busy: the server
/// keeps all CPUs but the last, the load threads take the last one, so
/// the client never competes with the server for a core. Each call pins
/// the calling thread (and what it starts later).
void PinToServerCpus();
void PinToClientCpu();
void UnpinThisThread();

/// orx_serve as shipped, started with only --port 0, --scale and (for
/// writes) --mutate, so every other default it has shows in the numbers.
class ServeProcess {
 public:
  ServeProcess() = default;
  ~ServeProcess() { Stop(); }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Starts the binary (on the server CPUs when `pin`) and waits for its
  /// "listening" line.
  std::string Start(const std::string& binary, double scale, bool mutate,
                    bool pin);
  /// SIGTERM, then waits for the drain (SIGKILL after 20 s).
  void Stop();

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// The components orx_serve wires together, hosted in the benchmark
/// process with orx_serve's default settings, so the traced run can read
/// their state directly. The write path is always attached (idle unless
/// writes arrive), so the publish probe can run on every workload.
class Host {
 public:
  /// `pin`: start every component thread on the server CPUs.
  Host(tools::ServingDataset dataset, Tracer* tracer, bool pin);
  ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  std::string Start(bool pin);
  uint16_t port() const { return server_->port(); }
  const tools::ServingDataset& dataset() const { return dataset_; }
  serve::SearchService& service() { return *service_; }
  mutate::DeltaLog& log() { return *log_; }
  mutate::SnapshotBuilder& builder() { return *builder_; }
  mutate::EpochManager& epochs() { return *epochs_; }

 private:
  tools::ServingDataset dataset_;
  std::unique_ptr<serve::SearchService> service_;
  std::unique_ptr<net::ServeHandler> handler_;
  std::unique_ptr<mutate::DeltaLog> log_;
  std::unique_ptr<mutate::EpochManager> epochs_;
  std::unique_ptr<mutate::SnapshotBuilder> builder_;
  std::unique_ptr<net::Server> server_;
};

/// One answered search of the timed phase.
struct ReadSample {
  double latency_s = 0.0;
  /// The server-reported total_seconds (submit to fulfilment).
  double service_s = 0.0;
  uint32_t frame_bytes = 0;
};

struct ReadResult {
  std::vector<ReadSample> samples;
  uint64_t sent = 0;
  /// Frames answered by the server (searches, kUnavailable and errors).
  uint64_t answered = 0;
  uint64_t rejected = 0;
  /// Errors other than kUnavailable (each one a failed operation).
  uint64_t errors = 0;
  std::string first_error;
  /// Answers whose scores violate the structural checks (order, size).
  uint64_t malformed = 0;
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
  /// Answers the workload chose to keep for the reference checks.
  std::vector<std::pair<std::string, net::SearchResponse>> kept;
  /// Raw response frames kept for the codec replay of the traced run.
  std::vector<std::string> raw_frames;
};

struct ReadPlan {
  uint16_t port = 0;
  int connections = 4;
  double seconds = 1.0;
  /// Next query of the stream (called on the load thread only).
  std::function<std::string()> next_query;
  /// Whether to keep (query, response) for the reference checks.
  std::function<bool(const std::string&)> keep;
  size_t k = 10;
  /// Run the load thread on the client CPU (see PinToClientCpu).
  bool pin = false;
  Tracer* tracer = nullptr;
};

/// Closed loop: one load thread drives `connections` connections, each
/// with one search outstanding, for `seconds`; then waits for the
/// answers still in flight.
ReadResult RunClosedLoop(const ReadPlan& plan);

/// Opens a blocking connection, retrying briefly.
std::string ConnectClient(net::BlockingClient& client, uint16_t port);

}  // namespace orxbench

#endif  // ORXBENCH_WIRE_H_
