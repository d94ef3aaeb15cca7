#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace orxbench {
namespace {

/// The file keeps the spans of the first wire requests only: a hot run
/// sends millions, and its self times come from every span in memory.
constexpr uint64_t kFirstWireRequest = uint64_t{1} << 32;
constexpr uint64_t kWrittenRequests = 50000;

}  // namespace

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point reach = s.start;
      for (const auto& [a, b] : iv) {
        const Clock::time_point from = std::max(a, reach);
        if (b > from) {
          covered += SecondsBetween(from, b);
          reach = b;
        }
      }
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += std::max(0.0, SecondsBetween(s.start, s.end) - covered);
  }
  return self;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count());
  };
  std::fprintf(f, "name,start_ns,end_ns,id,parent,request\n");
  for (const Span& s : spans_) {
    if (s.request >= kFirstWireRequest + kWrittenRequests) continue;
    std::fprintf(f, "%s,%lld,%lld,%llu,%llu,%llu\n", s.name, ns(s.start),
                 ns(s.end), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace orxbench
