#ifndef ORX_IO_SNAPSHOT_IO_H_
#define ORX_IO_SNAPSHOT_IO_H_

#include <memory>
#include <string>

#include "core/rank_cache.h"
#include "datasets/dataset.h"
#include "graph/authority_graph.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "graph/spmv_layout.h"
#include "graph/transfer_rates.h"
#include "io/container.h"
#include "serve/snapshot.h"
#include "text/corpus.h"

namespace orx::io {

/// ORXD2: a complete serving dataset as one mmap-friendly container —
/// data graph (packed attributes + text heap), authority CSR (both
/// halves), SELL structure, fused weights for the serving rates, corpus
/// CSR + term heap, and a meta blob (name, schema, rates, avdl). Every
/// derived index is stored, so an attach re-derives nothing: it is a
/// handful of shape checks over mmap'd arrays — milliseconds,
/// independent of dataset size — and the page cache streams the rest on
/// demand. ORXD2 and ORXC2 are ORX's only binary file formats; io/graph_tsv
/// is the human-editable interchange format for heap Datasets.

/// Writes `dataset` (finalized) with its serving `rates` to `path`.
/// Builds the SELL structure + fused weights so the loader gets them for
/// free. O(|E|) time; the big arrays are written straight from the
/// dataset's storage without duplication.
Status WriteDatasetContainer(const datasets::Dataset& dataset,
                             const graph::TransferRates& rates,
                             const std::string& path);

struct MappedDatasetOptions {
  /// Full O(|E|) validation on attach: section hashes, per-edge schema
  /// conformance, CSR cross-consistency, SELL bijection, corpus bounds.
  /// The fast path (false) does only the O(|V|)-ish shape checks the
  /// factories run — trusted snapshots produced by our own writer.
  /// orx_serve and `orx_cli validate` keep this on; benchmarks measuring
  /// attach latency turn it off.
  bool deep_validate = true;
  /// Apply madvise hints: WILLNEED on the small hot sections (offsets,
  /// meta), SEQUENTIAL on the big SpMV-streamed arrays (SELL sources /
  /// weights / edges) so an out-of-core power iteration streams the file
  /// through the page cache instead of thrashing readahead.
  bool advise = true;
};

/// A dataset attached zero-copy to a mapped ORXD2 container. Owns the
/// mapping plus the small rebuilt-owned pieces (schema, vocabulary);
/// every large array in the graphs/corpus borrows file-backed storage.
/// Immutable; share via shared_ptr (SnapshotFromMapped aliases it).
class MappedDataset {
 private:
  /// Passkey: makes the public constructor callable only from
  /// OpenMappedDataset (via make_shared).
  struct Private {};

 public:
  explicit MappedDataset(Private) {}

  const std::string& name() const { return name_; }
  const graph::SchemaGraph& schema() const { return *schema_; }
  const graph::DataGraph& data() const { return *data_; }
  const graph::AuthorityGraph& authority() const { return *authority_; }
  const text::Corpus& corpus() const { return *corpus_; }
  const graph::TransferRates& rates() const { return rates_; }
  /// The mmap-backed fused layout for rates() (shared SELL structure).
  const std::shared_ptr<const graph::FusedLayout>& layout() const {
    return layout_;
  }
  const MappedContainer& container() const { return container_; }

 private:
  friend StatusOr<std::shared_ptr<MappedDataset>> OpenMappedDataset(
      const std::string& path, const MappedDatasetOptions& options);

  MappedContainer container_;
  std::string name_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  std::unique_ptr<graph::DataGraph> data_;
  std::unique_ptr<graph::AuthorityGraph> authority_;
  std::unique_ptr<text::Corpus> corpus_;
  graph::TransferRates rates_;
  std::shared_ptr<const graph::SellStructure> structure_;
  std::shared_ptr<const graph::FusedLayout> layout_;
};

/// Maps and attaches an ORXD2 container. Fast path: O(shape checks);
/// with options.deep_validate also one full validation pass (see above).
StatusOr<std::shared_ptr<MappedDataset>> OpenMappedDataset(
    const std::string& path,
    const MappedDatasetOptions& options = MappedDatasetOptions());

/// Builds a ServeSnapshot whose graph components alias `mapped` and
/// whose fused-weight cache is pre-seeded with the mmap-backed layout —
/// the first query under the serving rates streams weights straight from
/// the file instead of re-resolving them.
serve::ServeSnapshot SnapshotFromMapped(
    std::shared_ptr<const MappedDataset> mapped);

/// ORXC2: a precomputed RankCache as a container — term heap + offsets,
/// per-term masses, and the dense terms x nodes float score matrix
/// (the dominant payload, attached zero-copy). kInternal, before the
/// file is touched, if a dense entry's score vector is not num_nodes()
/// long (see RankCache::PackEntries).
Status WriteRankCacheContainer(const core::RankCache& cache,
                               const std::string& path);

/// Maps and attaches an ORXC2 container. With options.deep_validate the
/// cache's full invariant check (every score finite and non-negative)
/// runs on attach; note that pass touches every page of the score
/// matrix.
StatusOr<core::RankCache> OpenMappedRankCache(
    const std::string& path,
    const MappedDatasetOptions& options = MappedDatasetOptions());

}  // namespace orx::io

#endif  // ORX_IO_SNAPSHOT_IO_H_
