// In-memory span recorder of the traced run.
//
// Spans come from the benchmark's own code, around its calls into the
// program's modules; a span's name is "<layer>.<what>", the layer being
// the module under src/ (or "client" for the benchmark itself). Spans stay
// in memory and are written out once, when the run ends.
#ifndef ORXBENCH_TRACE_H_
#define ORXBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace orxbench {

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id = 0;
  /// 0 = a root span.
  uint64_t parent = 0;
  /// The request (or feedback round) the span belongs to; 0 = none.
  uint64_t request = 0;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Thread-safe.
  void Record(const Span& span);

  /// Self time per layer, seconds: each span's duration minus the part of
  /// its interval that its child spans cover, summed by layer.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes the spans as CSV lines (name, start and end in ns since the
  /// first span, id, parent, request): every span outside the wire load,
  /// and those of its first 50 000 requests. Returns false on an I/O
  /// error.
  bool WriteCsv(const std::string& path) const;

  size_t size() const;

 private:
  /// Ids above 2^48 so they never collide with wire request ids, which
  /// double as the span ids of client requests.
  std::atomic<uint64_t> next_id_{uint64_t{1} << 48};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction; a no-op without a
/// tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.start = Clock::now();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end = Clock::now();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace orxbench

#endif  // ORXBENCH_TRACE_H_
