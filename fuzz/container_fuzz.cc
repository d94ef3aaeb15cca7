// Fuzz target for the mmap container loaders (io/container.h +
// io/snapshot_io.h, "ORXD2"/"ORXC2" formats). These face arbitrary
// on-disk bytes through OpenMappedDataset / OpenMappedRankCache: hostile
// section offsets/sizes/counts must be rejected by bounds arithmetic
// before any typed span is formed, because a bad span is an out-of-bounds
// *read through the mapping*. The harness materializes the input as a
// memfd (the loaders only speak paths) and asserts:
//  * no crash / sanitizer report on any input;
//  * anything the deep-validating open accepts also passes the structural
//    validator cross-checks (trap otherwise);
//  * any rank cache the fast open accepts keeps FromParts' structural
//    promises — non-empty terms, num_nodes scores per dense entry,
//    in-range compressed node ids with matching value arrays — since a
//    violation would make Query read out of bounds (trap otherwise);
//    value-level garbage (NaN masses/scores) is merely exercised;
//  * the fast path (deep_validate=false) accepts a superset of what the
//    deep path accepts — deep validation only ever tightens.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/status.h"
#include "core/rank_cache.h"
#include "io/container.h"
#include "io/snapshot_io.h"
#include "text/query.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace {

/// Writes the input where MmapFile::Open can reach it. memfd keeps the
/// whole round-trip in memory; the /tmp fallback covers kernels without
/// memfd_create.
std::string MaterializeInput(const uint8_t* data, size_t size) {
#ifdef __linux__
  const int fd = memfd_create("container_fuzz", 0);
  if (fd >= 0) {
    size_t written = 0;
    while (written < size) {
      const ssize_t n = write(fd, data + written, size - written);
      if (n <= 0) break;
      written += static_cast<size_t>(n);
    }
    if (written == size) {
      return "/proc/self/fd/" + std::to_string(fd);
    }
    close(fd);
  }
#endif
  std::string path =
      "/tmp/orx_container_fuzz_" + std::to_string(getpid()) + ".bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return std::string();
  std::fwrite(data, 1, size, f);
  std::fclose(f);
  return path;
}

/// Largest node count whose Query the harness runs (32 MiB of scores).
constexpr size_t kMaxQueryNodes = size_t{1} << 22;

/// FromParts' structural promises, checked through the public packed
/// view: PackEntries refuses a dense row that is not num_nodes() long,
/// every term is non-empty, and compressed node ids are in range with
/// one value each.
bool KeepsStructuralPromises(const orx::core::RankCache& cache) {
  auto packed = cache.PackEntries();
  if (!packed.ok()) return false;
  for (size_t t = 0; t + 1 < packed->offsets.size(); ++t) {
    if (packed->offsets[t] >= packed->offsets[t + 1]) return false;
  }
  for (const auto* nodes : {&packed->head_nodes, &packed->tail_nodes}) {
    for (const uint32_t v : *nodes) {
      if (v >= cache.num_nodes()) return false;
    }
  }
  return packed->head_scores.size() == packed->head_nodes.size() &&
         packed->tail_quants.size() == packed->tail_nodes.size();
}

void ReleaseInput(const std::string& path) {
  if (path.rfind("/proc/self/fd/", 0) == 0) {
    close(std::atoi(path.c_str() + sizeof("/proc/self/fd/") - 1));
  } else if (!path.empty()) {
    std::remove(path.c_str());
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (4u << 20)) return 0;
  const std::string path = MaterializeInput(data, size);
  if (path.empty()) return 0;

  // Structural layer alone: hostile TOC/section arithmetic, hash checks.
  for (const auto* magic : {&orx::io::kDatasetMagic,
                            &orx::io::kRankCacheMagic}) {
    auto container = orx::io::MappedContainer::Open(path, *magic);
    if (container.ok()) orx::IgnoreError(container->VerifyHashes());
  }

  orx::io::MappedDatasetOptions fast;
  fast.deep_validate = false;
  fast.advise = false;

  if (size >= 5 && std::memcmp(data, "ORXD2", 5) == 0) {
    auto deep = orx::io::OpenMappedDataset(path);
    auto shallow = orx::io::OpenMappedDataset(path, fast);
    // Deep validation only tightens: it must never accept a container
    // the shape-check-only path rejects.
    if (deep.ok() && !shallow.ok()) __builtin_trap();
    if (deep.ok()) {
      const auto& d = **deep;
      if (d.data().num_nodes() != d.authority().num_nodes()) {
        __builtin_trap();
      }
      if (d.layout() == nullptr) __builtin_trap();
    }
  } else if (size >= 5 && std::memcmp(data, "ORXC2", 5) == 0) {
    auto deep = orx::io::OpenMappedRankCache(path);
    auto shallow = orx::io::OpenMappedRankCache(path, fast);
    if (deep.ok() && !shallow.ok()) __builtin_trap();
    if (shallow.ok()) {
      if (!KeepsStructuralPromises(*shallow)) __builtin_trap();
      orx::IgnoreError(shallow->ValidateInvariants());
      // Value-level garbage (NaN scores) is reachable on the fast path;
      // Query must degrade to a Status, never crash. Query allocates one
      // double per node, and an all-compressed cache may claim any node
      // count, so caches claiming more than kMaxQueryNodes are not
      // queried (serving pairs a cache with its dataset's node count).
      if (shallow->num_nodes() <= kMaxQueryNodes) {
        orx::text::QueryVector query(
            orx::text::ParseQuery("olap data cube"));
        orx::IgnoreError(shallow->Query(query));
      }
    }
  }

  ReleaseInput(path);
  return 0;
}
