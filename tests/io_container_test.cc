#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/searcher.h"
#include "datasets/bio_generator.h"
#include "datasets/bio_schema.h"
#include "datasets/dblp_generator.h"
#include "datasets/dblp_schema.h"
#include "datasets/figure1.h"
#include "io/container.h"
#include "io/snapshot_io.h"
#include "text/query.h"

namespace orx::io {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

ContainerHeader HeaderOf(const std::string& bytes) {
  ContainerHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  return h;
}

void PutHeader(std::string& bytes, const ContainerHeader& h) {
  std::memcpy(bytes.data(), &h, sizeof(h));
}

/// Index of the TOC entry named `name`, or -1.
int FindSection(const std::string& bytes, const char* name) {
  const ContainerHeader h = HeaderOf(bytes);
  for (uint32_t i = 0; i < h.section_count; ++i) {
    SectionEntry e;
    std::memcpy(&e, bytes.data() + h.toc_offset + i * sizeof(SectionEntry),
                sizeof(e));
    if (std::strncmp(e.name, name, sizeof(e.name)) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

SectionEntry GetSection(const std::string& bytes, int index) {
  SectionEntry e;
  std::memcpy(&e,
              bytes.data() + HeaderOf(bytes).toc_offset +
                  static_cast<size_t>(index) * sizeof(SectionEntry),
              sizeof(e));
  return e;
}

void PutSection(std::string& bytes, int index, const SectionEntry& e) {
  std::memcpy(bytes.data() + HeaderOf(bytes).toc_offset +
                  static_cast<size_t>(index) * sizeof(SectionEntry),
              &e, sizeof(e));
}

/// A Figure 1 dataset written as an ORXD2 container.
struct PackedFigure1 {
  datasets::Figure1Dataset fig;
  graph::TransferRates rates;
  std::string path;
};

PackedFigure1 MakePackedFigure1(const std::string& filename) {
  PackedFigure1 p{datasets::MakeFigure1Dataset(), {}, TempPath(filename)};
  p.rates =
      datasets::DblpGroundTruthRates(p.fig.dataset.schema(), p.fig.types);
  EXPECT_TRUE(WriteDatasetContainer(p.fig.dataset, p.rates, p.path).ok());
  return p;
}

TEST(ContainerFormatTest, HeaderAndEntryAre64Bytes) {
  EXPECT_EQ(sizeof(ContainerHeader), 64u);
  EXPECT_EQ(sizeof(SectionEntry), 64u);
}

TEST(ContainerWriterTest, SectionsAreAlignedAndHashed) {
  const std::string path = TempPath("writer_basic.orxd2");
  std::vector<uint32_t> a = {1, 2, 3};
  std::vector<double> b = {0.5, 0.25};
  ContainerWriter writer(kDatasetMagic);
  writer.Add<uint32_t>("a", a);
  writer.Add<double>("b", b);
  ASSERT_TRUE(writer.WriteTo(path).ok());

  auto mapped = MappedContainer::Open(path, kDatasetMagic);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->VerifyHashes().ok());
  auto sa = mapped->Section<uint32_t>("a");
  ASSERT_TRUE(sa.ok());
  ASSERT_EQ(sa->size(), 3u);
  EXPECT_EQ((*sa)[2], 3u);
  // Zero-copy: the section aliases the mapping and is 64-byte aligned.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(sa->data()) % kSectionAlign, 0u);
  auto sb = mapped->Section<double>("b");
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ((*sb)[1], 0.25);
  // Wrong element type and missing names are errors, not garbage reads.
  EXPECT_FALSE(mapped->Section<uint64_t>("a").ok());
  EXPECT_EQ(mapped->Bytes("nope").status().code(), StatusCode::kNotFound);
}

TEST(ContainerWriterTest, RepackKeepsAnExistingMappingIntact) {
  // Dataset A is mapped (as by a running orx_serve) while a different,
  // larger dataset B is packed over the same path. The writer must
  // replace the file by rename, so the mapping keeps reading A's inode;
  // rewriting the file in place would change bytes under the reader.
  const std::string path = TempPath("repack.orxd2");
  PackedFigure1 a = MakePackedFigure1("repack.orxd2");
  const std::string a_bytes = ReadFileBytes(path);
  auto mapped = OpenMappedDataset(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  datasets::DblpDataset b = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/300, /*seed=*/17));
  ASSERT_NE(b.dataset.name(), a.fig.dataset.name());
  ASSERT_TRUE(WriteDatasetContainer(
                  b.dataset,
                  datasets::DblpGroundTruthRates(b.dataset.schema(), b.types),
                  path)
                  .ok());

  const MappedDataset& m = **mapped;
  ASSERT_TRUE(std::string(m.container().file()->data(),
                          m.container().file()->size()) == a_bytes)
      << "the mapped bytes changed under the reader";
  EXPECT_TRUE(m.container().VerifyHashes().ok());
  EXPECT_EQ(m.name(), a.fig.dataset.name());
  EXPECT_EQ(m.data().num_nodes(), a.fig.dataset.data().num_nodes());
  EXPECT_EQ(m.data().Text(a.fig.v7_data_cube),
            a.fig.dataset.data().Text(a.fig.v7_data_cube));
  // The path now holds B, complete, and no temp file is left beside it.
  auto reopened = OpenMappedDataset(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->name(), b.dataset.name());
  EXPECT_EQ((*reopened)->data().num_nodes(), b.dataset.data().num_nodes());
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    EXPECT_EQ(entry.path().filename().string().find("repack.orxd2.tmp"),
              std::string::npos);
  }
}

TEST(ContainerWriterTest, FailedWriteLeavesTargetAndNoTempFile) {
  // A directory at the target path makes the final rename fail after
  // the temp file is fully written: the error must surface, the target
  // must be untouched, and the temp file must be removed.
  const std::string path = TempPath("occupied_target.orxd2");
  std::filesystem::remove_all(path);
  ASSERT_TRUE(std::filesystem::create_directories(path + "/occupied"));
  std::vector<uint32_t> a = {1, 2, 3};
  ContainerWriter writer(kDatasetMagic);
  writer.Add<uint32_t>("a", a);
  const Status status = writer.WriteTo(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rename failed"), std::string::npos)
      << status.message();
  EXPECT_TRUE(std::filesystem::is_directory(path + "/occupied"));
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    EXPECT_EQ(
        entry.path().filename().string().find("occupied_target.orxd2.tmp"),
        std::string::npos);
  }
  std::filesystem::remove_all(path);
}

TEST(MappedDatasetTest, PackIsDeterministicAndKeepsSchemaHandles) {
  // Packing is a pure function of the dataset and rates, and a non-DBLP
  // schema survives it with its type handles recoverable.
  datasets::BioDataset bio = datasets::GenerateBio(
      datasets::BioGeneratorConfig::Tiny(/*pubs=*/200, /*seed=*/13));
  const graph::TransferRates rates(bio.dataset.schema(), 0.3);
  const std::string first = TempPath("bio_first.orxd2");
  const std::string second = TempPath("bio_second.orxd2");
  ASSERT_TRUE(WriteDatasetContainer(bio.dataset, rates, first).ok());
  ASSERT_TRUE(WriteDatasetContainer(bio.dataset, rates, second).ok());
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(second));

  auto mapped = OpenMappedDataset(first);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->data().num_nodes(), bio.dataset.data().num_nodes());
  EXPECT_EQ((*mapped)->data().num_edges(), bio.dataset.data().num_edges());
  auto types = datasets::BioTypesFromSchema((*mapped)->schema());
  ASSERT_TRUE(types.ok()) << types.status().ToString();
  EXPECT_EQ(types->gene, bio.types.gene);
}

TEST(MappedDatasetTest, RoundTripMatchesInMemoryDataset) {
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/300, /*seed=*/17));
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  const std::string path = TempPath("roundtrip.orxd2");
  ASSERT_TRUE(WriteDatasetContainer(dblp.dataset, rates, path).ok());

  auto mapped = OpenMappedDataset(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const MappedDataset& m = **mapped;
  EXPECT_EQ(m.name(), dblp.dataset.name());

  const graph::DataGraph& a = dblp.dataset.data();
  const graph::DataGraph& b = m.data();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.NodeType(v), b.NodeType(v));
    ASSERT_EQ(a.Text(v), b.Text(v)) << "node " << v;
  }
  ASSERT_EQ(m.corpus().vocab_size(), dblp.dataset.corpus().vocab_size());
  EXPECT_EQ(m.corpus().avdl(), dblp.dataset.corpus().avdl());
  ASSERT_EQ(m.rates().slots(), rates.slots());

  // The acceptance bar: scores computed over the mmap-attached dataset
  // are bit-identical to the in-memory path (same arrays, same SELL
  // order, -ffp-contract=off kernels).
  core::Searcher original(a, dblp.dataset.authority(),
                          dblp.dataset.corpus());
  core::Searcher loaded(b, m.authority(), m.corpus());
  for (const char* q : {"database", "query optimization", "streams"}) {
    text::QueryVector query(text::ParseQuery(q));
    auto ra = original.Search(query, rates);
    auto rb = loaded.Search(query, rates);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_EQ(ra->scores.size(), rb->scores.size());
    for (size_t v = 0; v < ra->scores.size(); ++v) {
      ASSERT_EQ(ra->scores[v], rb->scores[v]) << "query " << q << " node "
                                              << v;
    }
  }
}

TEST(MappedDatasetTest, SnapshotAliasesMappingAndSeedsWeightCache) {
  PackedFigure1 p = MakePackedFigure1("snapshot.orxd2");
  auto mapped = OpenMappedDataset(p.path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  serve::ServeSnapshot snapshot = SnapshotFromMapped(*mapped);
  ASSERT_TRUE(snapshot.Complete());
  EXPECT_EQ(snapshot.data.get(), &(*mapped)->data());
  // The weight cache hands back the mmap-backed layout for the serving
  // rates without building anything.
  auto layout = snapshot.fused_cache->Get(*snapshot.authority,
                                          snapshot.rates);
  EXPECT_EQ(layout.get(), (*mapped)->layout().get());

  core::Searcher searcher(*snapshot.data, *snapshot.authority,
                          *snapshot.corpus);
  text::QueryVector query(text::ParseQuery("olap"));
  auto result = searcher.Search(query, snapshot.rates);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->scores[p.fig.v7_data_cube], 0.083, 0.001);
}

TEST(MappedDatasetTest, MissingFileIsNotFound) {
  EXPECT_EQ(OpenMappedDataset("/nonexistent/x.orxd2").status().code(),
            StatusCode::kNotFound);
}

TEST(MappedDatasetTest, RejectsWrongMagic) {
  PackedFigure1 p = MakePackedFigure1("wrong_magic.orxd2");
  // An ORXD2 file is not an ORXC2 rank cache.
  EXPECT_EQ(OpenMappedRankCache(p.path).status().code(),
            StatusCode::kDataLoss);
  std::string bytes = ReadFileBytes(p.path);
  bytes[0] = 'X';
  WriteFileBytes(p.path, bytes);
  EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
            StatusCode::kDataLoss);
}

TEST(MappedDatasetTest, RejectsTruncation) {
  PackedFigure1 p = MakePackedFigure1("truncated.orxd2");
  const std::string bytes = ReadFileBytes(p.path);
  for (size_t cut : {size_t{0}, size_t{17}, sizeof(ContainerHeader) - 1,
                     bytes.size() / 2, bytes.size() - 1}) {
    WriteFileBytes(p.path, bytes.substr(0, cut));
    auto result = OpenMappedDataset(p.path);
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut;
  }
}

TEST(MappedDatasetTest, RejectsHostileTocOffsets) {
  PackedFigure1 p = MakePackedFigure1("hostile_toc.orxd2");
  const std::string pristine = ReadFileBytes(p.path);

  {
    // TOC offset beyond the file.
    std::string bytes = pristine;
    ContainerHeader h = HeaderOf(bytes);
    h.toc_offset = h.file_size + kSectionAlign;
    PutHeader(bytes, h);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Misaligned TOC.
    std::string bytes = pristine;
    ContainerHeader h = HeaderOf(bytes);
    h.toc_offset += 8;
    PutHeader(bytes, h);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Section count engineered so count * sizeof(SectionEntry) overflows
    // if computed naively.
    std::string bytes = pristine;
    ContainerHeader h = HeaderOf(bytes);
    h.section_count = 0x40000000u;
    PutHeader(bytes, h);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // file_size lies about the mapping length.
    std::string bytes = pristine;
    ContainerHeader h = HeaderOf(bytes);
    h.file_size -= 1;
    PutHeader(bytes, h);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(MappedDatasetTest, RejectsHostileSectionEntries) {
  PackedFigure1 p = MakePackedFigure1("hostile_section.orxd2");
  const std::string pristine = ReadFileBytes(p.path);
  const int edges = FindSection(pristine, "edges");
  ASSERT_GE(edges, 0);

  {
    // Payload escaping the file: offset + size overflows past the end.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    e.offset = HeaderOf(bytes).file_size - kSectionAlign;
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Offset engineered so offset + size wraps around 2^64.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    e.offset = ~uint64_t{0} - kSectionAlign + 1;
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Misaligned payload breaks the zero-copy casts.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    e.offset += 4;
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Element accounting that disagrees with the byte size.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    e.elem_count += 1;
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // A name without a NUL terminator must not be read as a string.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    std::memset(e.name, 'A', sizeof(e.name));
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(MappedDatasetTest, DeepValidationCatchesPayloadCorruption) {
  PackedFigure1 p = MakePackedFigure1("corrupt_payload.orxd2");
  std::string bytes = ReadFileBytes(p.path);
  const int edges = FindSection(bytes, "edges");
  ASSERT_GE(edges, 0);
  const SectionEntry e = GetSection(bytes, edges);
  // Flip one payload byte without updating the hash.
  bytes[e.offset] ^= 0x01;
  WriteFileBytes(p.path, bytes);
  auto result = OpenMappedDataset(p.path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().ToString().find("hash"), std::string::npos);
}

TEST(MappedDatasetTest, DeepValidationCatchesSchemaViolatingEdges) {
  PackedFigure1 p = MakePackedFigure1("bad_edge.orxd2");
  std::string bytes = ReadFileBytes(p.path);
  const int edges = FindSection(bytes, "edges");
  ASSERT_GE(edges, 0);
  SectionEntry e = GetSection(bytes, edges);
  ASSERT_GT(e.elem_count, 0u);
  // Point the first edge's target at a nonexistent node, then recompute
  // the section hash so only the deep per-edge validator can object.
  graph::DataEdge first;
  std::memcpy(&first, bytes.data() + e.offset, sizeof(first));
  first.to = 0xFFFFFF00u;
  std::memcpy(bytes.data() + e.offset, &first, sizeof(first));
  e.hash = Fnv1a({bytes.data() + e.offset, static_cast<size_t>(e.size)});
  PutSection(bytes, edges, e);
  WriteFileBytes(p.path, bytes);

  auto deep = OpenMappedDataset(p.path);
  ASSERT_FALSE(deep.ok());
  // The fast path skips per-edge validation by design (trusted inputs).
  MappedDatasetOptions fast;
  fast.deep_validate = false;
  EXPECT_TRUE(OpenMappedDataset(p.path, fast).ok());
}

/// Writes `cache` as an ORXC2 container, attaches it, and asserts the
/// round trip is exact: header fields and BM25 parameters, every packed
/// array bit for bit, the answer to `query`, and a byte-identical file
/// when the attached cache is written again.
void ExpectRankCacheRoundTrip(const core::RankCache& cache,
                              const std::string& name, const char* query) {
  SCOPED_TRACE(name);
  const std::string path = TempPath(name + ".orxc2");
  ASSERT_TRUE(WriteRankCacheContainer(cache, path).ok());
  auto loaded = OpenMappedRankCache(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_nodes(), cache.num_nodes());
  EXPECT_EQ(loaded->rates_fingerprint(), cache.rates_fingerprint());
  EXPECT_EQ(loaded->bm25_params().k1, cache.bm25_params().k1);
  EXPECT_EQ(loaded->bm25_params().b, cache.bm25_params().b);
  EXPECT_EQ(loaded->bm25_params().k3, cache.bm25_params().k3);
  EXPECT_EQ(loaded->num_compressed_terms(), cache.num_compressed_terms());
  ASSERT_EQ(loaded->Terms(), cache.Terms());

  auto a = cache.PackEntries();
  auto b = loaded->PackEntries();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->offsets, b->offsets);
  EXPECT_EQ(a->heap, b->heap);
  EXPECT_EQ(a->masses, b->masses);
  EXPECT_TRUE(a->scores == b->scores);
  EXPECT_EQ(a->kinds, b->kinds);
  ASSERT_EQ(a->descs.size(), b->descs.size());
  EXPECT_TRUE(a->descs.empty() ||
              std::memcmp(a->descs.data(), b->descs.data(),
                          a->descs.size() * sizeof(a->descs[0])) == 0);
  EXPECT_EQ(a->head_nodes, b->head_nodes);
  EXPECT_TRUE(a->head_scores == b->head_scores);
  EXPECT_EQ(a->tail_nodes, b->tail_nodes);
  EXPECT_EQ(a->tail_quants, b->tail_quants);

  const text::QueryVector q(text::ParseQuery(query));
  auto ra = cache.Query(q);
  auto rb = loaded->Query(q);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->scores, rb->scores);
  EXPECT_EQ(ra->error_bound, rb->error_bound);
  EXPECT_EQ(ra->missing_terms, rb->missing_terms);

  const std::string again = TempPath(name + "_again.orxc2");
  ASSERT_TRUE(WriteRankCacheContainer(*loaded, again).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(again));
}

TEST(MappedRankCacheTest, RoundTripIsExact) {
  // Every Figure 1 term, dense.
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  core::RankCache figure1 =
      core::RankCache::Build(fig.dataset.authority(), fig.dataset.corpus(),
                             rates, core::RankCache::Options());
  ASSERT_GT(figure1.Terms().size(), 0u);
  EXPECT_EQ(figure1.rates_fingerprint(), rates.Fingerprint());
  ExpectRankCacheRoundTrip(figure1, "figure1", "olap data cube");

  // A generated DBLP under non-default BM25 parameters.
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/300, /*seed=*/17));
  graph::TransferRates dblp_rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  core::RankCache::Options options;
  options.bm25.k1 = 1.7;
  options.bm25.b = 0.5;
  options.bm25.k3 = 3.0;
  core::RankCache tuned = core::RankCache::BuildForTerms(
      dblp.dataset.authority(), dblp.dataset.corpus(), dblp_rates,
      {"data", "mining", "query"}, options);
  ASSERT_EQ(tuned.num_terms(), 3u);
  ASSERT_FALSE(tuned.MatchesBm25(text::Bm25Params()));
  ExpectRankCacheRoundTrip(tuned, "dblp_bm25", "data mining");

  // The same cache compressed: head + quantized tail + drop bound.
  core::RankCache::CompressionOptions squeeze;
  squeeze.head = 2;
  squeeze.drop_threshold = 1e-3;
  squeeze.min_ratio = 1.0;
  ASSERT_GT(tuned.Compress(squeeze).terms_compressed, 0u);
  ExpectRankCacheRoundTrip(tuned, "dblp_compressed", "data mining query");
}

/// A two-term Figure 1 cache written as an ORXC2 container whose
/// rc_offsets[1] is then patched to `offset` (section hash left stale).
std::string CacheWithPatchedTermOffset(const std::string& name,
                                       uint64_t offset) {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  core::RankCache cache = core::RankCache::BuildForTerms(
      fig.dataset.authority(), fig.dataset.corpus(), rates,
      {"cube", "olap"}, core::RankCache::Options());
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteRankCacheContainer(cache, path).ok());
  std::string bytes = ReadFileBytes(path);
  const int offsets = FindSection(bytes, "rc_offsets");
  EXPECT_GE(offsets, 0);
  const SectionEntry e = GetSection(bytes, offsets);
  std::memcpy(bytes.data() + e.offset + sizeof(uint64_t), &offset,
              sizeof(offset));
  WriteFileBytes(path, bytes);
  return path;
}

TEST(MappedRankCacheTest, RejectsEmptyTerm) {
  // offsets[1] = 0: term 0 becomes empty, which would shadow real
  // lookups. The attach must refuse it even on the fast path, which
  // skips hashes and deep validation.
  const std::string path =
      CacheWithPatchedTermOffset("empty_term.orxc2", 0);
  MappedDatasetOptions fast;
  fast.deep_validate = false;
  auto result = OpenMappedRankCache(path, fast);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("empty"), std::string::npos)
      << result.status().message();
}

TEST(MappedRankCacheTest, RejectsTermOffsetPastHeap) {
  // Regression (found by container_fuzz): an interior offset past the
  // term heap was read before the monotonicity check rejected it.
  const std::string path =
      CacheWithPatchedTermOffset("offset_past_heap.orxc2", 1u << 30);
  MappedDatasetOptions fast;
  fast.deep_validate = false;
  auto result = OpenMappedRankCache(path, fast);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(MappedRankCacheTest, RejectsTruncationAndWrongMagic) {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  core::RankCache cache =
      core::RankCache::Build(fig.dataset.authority(), fig.dataset.corpus(),
                             rates, core::RankCache::Options());
  const std::string path = TempPath("cache_hostile.orxc2");
  ASSERT_TRUE(WriteRankCacheContainer(cache, path).ok());
  // An ORXC2 file is not a dataset.
  EXPECT_EQ(OpenMappedDataset(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(OpenMappedRankCache("/nonexistent/c.orxc2").status().code(),
            StatusCode::kNotFound);
  // Every truncation is kDataLoss, never a crash (the suite runs under
  // ASan in CI).
  const std::string bytes = ReadFileBytes(path);
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    WriteFileBytes(path, bytes.substr(0, cut));
    EXPECT_EQ(OpenMappedRankCache(path).status().code(),
              StatusCode::kDataLoss)
        << "cut at " << cut;
  }
}

}  // namespace
}  // namespace orx::io
