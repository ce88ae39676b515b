// Paged-store equivalence tests (DESIGN §3k): the acceptance criterion of
// the storage engine is that at every page size × pool size × shard count,
// the disk-backed store answers bit-identically to the RAM store built by
// ImageStore::Generate from the same seed. AuditPagingEquivalence does the
// exhaustive comparison; this file sweeps it over the configuration matrix
// and covers the store-level lifecycle (version stamp, metadata, Close,
// LoadToMemory, eviction pressure).
//
// Set FUZZYDB_STORAGE_STRESS=1 to widen the sweep (more pool sizes, more
// targets) — the ASan verify leg runs with it on.

#include "storage/paged_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/storage_audit.h"
#include "image/image_store.h"
#include "storage/buffer_pool.h"
#include "storage/column_file.h"
#include "storage/ingest.h"
#include "tests/cascade_oracle.h"

namespace fuzzydb {
namespace storage {
namespace {

ImageStoreOptions SmallCollection() {
  ImageStoreOptions options;
  options.num_images = 400;
  options.palette_size = 16;
  options.seed = 20230807;
  options.tune_cascade = false;  // tuning changes costs, never answers
  return options;
}

bool StressMode() {
  const char* env = std::getenv("FUZZYDB_STORAGE_STRESS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "paged_" + name + ".fzdb";
}

// One ingest per page size, reused across pool configurations.
struct Fixture {
  ImageStore ram;
  IngestedCollection ingested;
  std::string path;
};

Fixture MakeFixture(const std::string& name, size_t page_bytes) {
  const ImageStoreOptions options = SmallCollection();
  Result<ImageStore> ram = ImageStore::Generate(options);
  EXPECT_TRUE(ram.ok()) << ram.status().ToString();
  ColumnFileOptions file_options;
  file_options.page_bytes = page_bytes;
  file_options.store_version = 42;
  const std::string path = TestPath(name);
  Result<IngestedCollection> ingested =
      IngestGeneratedCollection(options, path, file_options);
  EXPECT_TRUE(ingested.ok()) << ingested.status().ToString();
  return Fixture{std::move(ram).value(), std::move(ingested).value(), path};
}

StorageAuditOptions AuditOptions(const ImageStore& ram) {
  StorageAuditOptions options;
  const size_t probes = StressMode() ? 6 : 3;
  for (size_t t = 0; t < probes; ++t) {
    const size_t i = (t * 131) % ram.size();
    options.targets.push_back(
        ram.color_distance().Embed(ram.image(i).histogram));
  }
  options.k = 10;
  options.shard_counts = {2, 3};
  return options;
}

TEST(PagedStoreTest, BitIdenticalAcrossPageAndPoolSizes) {
  const std::vector<size_t> page_sizes = {4096, 64 * 1024};
  for (size_t page_bytes : page_sizes) {
    Fixture fx = MakeFixture("sweep_" + std::to_string(page_bytes), page_bytes);
    const StorageAuditOptions audit = AuditOptions(fx.ram);

    // Pool caps: tiny (4 pages — smaller than the file, so the scan
    // evicts) and default (everything fits). Stress adds an in-between.
    std::vector<size_t> pool_bytes = {4 * page_bytes, 256ull * 1024 * 1024};
    if (StressMode()) pool_bytes.insert(pool_bytes.begin() + 1, 8 * page_bytes);

    for (size_t pool_cap : pool_bytes) {
      SCOPED_TRACE("page_bytes=" + std::to_string(page_bytes) +
                   " pool_bytes=" + std::to_string(pool_cap));
      PagedStoreOptions store_options;
      store_options.pool_bytes = pool_cap;
      Result<std::unique_ptr<PagedEmbeddingStore>> paged =
          PagedEmbeddingStore::Open(fx.path, store_options);
      ASSERT_TRUE(paged.ok()) << paged.status().ToString();

      AuditReport report =
          AuditPagingEquivalence(**paged, fx.ram.embeddings(), audit);
      EXPECT_TRUE(report.ok()) << report.ToString();

      if (pool_cap == 4 * page_bytes && page_bytes == 4096) {
        // The tiny pool genuinely paged: the file is 13 pages, the pool 4.
        BufferPoolStats s = (*paged)->pool_stats();
        EXPECT_GT(s.evictions, 0u);
        EXPECT_GT(s.bytes_read_disk, 0u);
      }
    }
    std::remove(fx.path.c_str());
  }
}

TEST(PagedStoreTest, VersionAndMetadataSurviveTheRoundTrip) {
  Fixture fx = MakeFixture("meta", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ((*paged)->version(), 42u);
  // The eigenbasis spectrum rides in the file's metadata block.
  EXPECT_EQ((*paged)->metadata(), fx.ram.color_distance().eigenvalues());
  EXPECT_EQ((*paged)->size(), fx.ram.size());
  EXPECT_EQ((*paged)->dim(), fx.ram.embeddings().dim());
  EXPECT_TRUE((*paged)->has_quantized());
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, SingleRowDistanceMatchesRam) {
  Fixture fx = MakeFixture("probe", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(5).histogram);
  std::vector<double> expected(fx.ram.size());
  fx.ram.embeddings().BatchDistances(target, expected);
  for (size_t i : {size_t{0}, size_t{5}, size_t{131}, fx.ram.size() - 1}) {
    Result<double> d = (*paged)->Distance(target, i);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(*d, expected[i]) << "row " << i;
  }
  EXPECT_EQ((*paged)->Distance(target, fx.ram.size()).status().code(),
            StatusCode::kOutOfRange);
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, LoadToMemoryReconstitutesTheRamStore) {
  Fixture fx = MakeFixture("load", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  Result<EmbeddingStore> loaded = (*paged)->LoadToMemory();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The materialized store is itself a valid RAM reference: auditing the
  // paged store against it closes the loop disk → RAM → disk.
  AuditReport report =
      AuditPagingEquivalence(**paged, *loaded, AuditOptions(fx.ram));
  EXPECT_TRUE(report.ok()) << report.ToString();
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, WarmCascadeReadsZeroDiskBytesAtLevelMinusOne) {
  Fixture fx = MakeFixture("warm", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);  // default pool: whole file fits
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(9).histogram);
  CascadeOptions cascade;
  cascade.use_quantized = true;
  // Cold query faults in whatever survivor pages it needs.
  CascadeStats cold;
  ASSERT_TRUE((*paged)->CascadeKnn(target, 10, cascade, &cold).ok());
  // Warm repeat of the same query: the int8 level is RAM-resident and the
  // survivor pages are retained, so zero bytes come off disk.
  CascadeStats warm;
  ASSERT_TRUE((*paged)->CascadeKnn(target, 10, cascade, &warm).ok());
  EXPECT_EQ(warm.bytes_read_disk, 0u);
  EXPECT_EQ(warm.buffer_pool_misses, 0u);
  EXPECT_GT(warm.buffer_pool_hits, 0u);
  EXPECT_GT(cold.bytes_read_disk, 0u);
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, QueriesAfterCloseFailCleanly) {
  Fixture fx = MakeFixture("close", 4096);
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path);
  ASSERT_TRUE(paged.ok());
  const std::vector<double> target(
      (*paged)->dim(), 0.25);
  (*paged)->Close();
  std::vector<double> out((*paged)->size());
  EXPECT_EQ((*paged)->BatchDistances(target, out).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*paged)->ExactKnn(target, 5).status().code(),
            StatusCode::kFailedPrecondition);
  (*paged)->Close();  // idempotent
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, QuantizedTierCanBeDisabledAtOpen) {
  Fixture fx = MakeFixture("noquant", 4096);
  PagedStoreOptions options;
  options.load_quantized = false;
  Result<std::unique_ptr<PagedEmbeddingStore>> paged =
      PagedEmbeddingStore::Open(fx.path, options);
  ASSERT_TRUE(paged.ok());
  EXPECT_FALSE((*paged)->has_quantized());
  // Cascade still answers (it degrades to the float levels) and still
  // matches exact.
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(3).histogram);
  auto exact = (*paged)->ExactKnn(target, 10);
  auto cascade = (*paged)->CascadeKnn(target, 10);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(cascade.ok());
  EXPECT_EQ(*exact, *cascade);
  std::remove(fx.path.c_str());
}

// ---- The threshold-first walk against the full-sort oracle --------------
//
// The paged cascade must visit the same rows in the same order as the
// full-sort walk, so from equal fresh pools even the buffer-pool counters
// agree. The oracle reads rows through its own BufferPool of the store's
// geometry, filled by the store's raw page reads.

using testing_oracle::WalkLabel;
using testing_oracle::WalkOptions;

class OracleRows {
 public:
  OracleRows(BufferPool* pool, size_t rows_per_page, size_t stride)
      : pool_(pool), rows_per_page_(rows_per_page), stride_(stride) {}

  // Like the store's own accessor, the next page is pinned before the
  // current one is released, so both pools see the same pin pattern.
  const double* Acquire(size_t i) {
    const uint64_t page = i / rows_per_page_;
    if (!handle_.valid() || page != page_) {
      Result<PageHandle> fetched = pool_->Fetch(page);
      if (!fetched.ok()) return nullptr;
      handle_ = std::move(fetched).value();
      page_ = page;
    }
    return handle_.doubles() + (i - page * rows_per_page_) * stride_;
  }

 private:
  BufferPool* pool_;
  size_t rows_per_page_;
  size_t stride_;
  uint64_t page_ = 0;
  PageHandle handle_;
};

std::string WriteRows(const std::string& name,
                      const std::vector<std::vector<double>>& rows) {
  const std::string path = TestPath(name);
  ColumnFileOptions file_options;
  file_options.page_bytes = 4096;
  auto writer = ColumnFileWriter::Create(path, rows.front().size(),
                                         file_options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const std::vector<double>& row : rows) {
    EXPECT_TRUE((*writer)->AppendRow(row).ok());
  }
  EXPECT_TRUE((*writer)->Finish().ok());
  return path;
}

// Opens `path` twice with a `pool_pages`-page pool, runs CascadeKnn on one
// and the oracle on a fresh pool over the other, and compares everything.
void ExpectOracleWalk(const std::string& path, size_t pool_pages,
                      std::span<const double> target, size_t k,
                      const CascadeOptions& options, size_t shards,
                      const std::string& label) {
  PagedStoreOptions store_options;
  store_options.pool_bytes = pool_pages * 4096;
  auto store = PagedEmbeddingStore::Open(path, store_options);
  auto oracle_store = PagedEmbeddingStore::Open(path, store_options);
  ASSERT_TRUE(store.ok() && oracle_store.ok()) << label;
  const PagedEmbeddingStore& paged = **store;
  const PagedEmbeddingStore& source = **oracle_store;

  BufferPoolOptions pool_options;
  pool_options.page_bytes = source.pool().page_bytes();
  pool_options.capacity_pages = source.pool().capacity_pages();
  BufferPool oracle_pool(pool_options,
                         [&source](uint64_t page, std::span<char> dest) {
                           return source.ReadPage(page, dest);
                         });
  const size_t rows_per_page =
      pool_options.page_bytes / (source.stride() * sizeof(double));
  CascadeStats want;
  const auto expected = testing_oracle::FullSortCascadeKnn(
      [&] { return OracleRows(&oracle_pool, rows_per_page, source.stride()); },
      source.size(), source.dim(), target, k, options,
      source.has_quantized() ? &source.quantized() : nullptr, shards, &want);
  const BufferPoolStats pool_stats = oracle_pool.stats();
  want.bytes_read_disk = pool_stats.bytes_read_disk;
  want.buffer_pool_hits = pool_stats.hits;
  want.buffer_pool_misses = pool_stats.misses;
  want.buffer_pool_evictions = pool_stats.evictions;

  CascadeStats got;
  Result<std::vector<std::pair<size_t, double>>> actual =
      paged.CascadeKnn(target, k, options, &got, /*pool=*/nullptr, shards);
  ASSERT_TRUE(actual.ok()) << label << ": " << actual.status().ToString();
  EXPECT_EQ(*actual, expected) << label;
  testing_oracle::ExpectSameWalk(
      got, want, options.use_quantized && paged.has_quantized(),
      std::clamp<size_t>(options.prefix_dim, 1, paged.dim()), label);
}

TEST(PagedStoreTest, ThresholdWalkMatchesFullSortOracle) {
  Fixture fx = MakeFixture("oracle", 4096);
  const size_t n = fx.ram.size();
  const std::vector<double> target =
      fx.ram.color_distance().Embed(fx.ram.image(17).histogram);
  for (const CascadeOptions& options : WalkOptions()) {
    for (size_t k : {size_t{1}, size_t{10}, n - 1, n + 2}) {
      for (size_t shards : {1u, 2u, 7u}) {
        // A 4-page pool over a 13-page file: the walk's probes evict.
        ExpectOracleWalk(fx.path, 4, target, k, options, shards,
                         WalkLabel("collection", options, k, shards));
      }
    }
  }
  std::remove(fx.path.c_str());
}

TEST(PagedStoreTest, FallbackWalksMatchFullSortOracle) {
  // A zero-bound tie storm (no level bound can halt the walk, so the
  // fallback pass runs) and 21 copies of 5 rows (bounds and distances tie).
  const testing_oracle::ZeroBoundStorm storm =
      testing_oracle::MakeZeroBoundStorm(300, 24, /*shared_dims=*/8, 6101);
  std::vector<std::vector<double>> duplicates;
  for (int copy = 0; copy < 21; ++copy) {
    for (size_t r = 0; r < 5; ++r) duplicates.push_back(storm.rows[r * 7]);
  }
  struct Case {
    std::string name;
    std::string path;
    size_t n;
  };
  const Case cases[] = {
      {"storm", WriteRows("oracle_storm", storm.rows), storm.rows.size()},
      {"duplicates", WriteRows("oracle_dups", duplicates), duplicates.size()}};
  for (const Case& c : cases) {
    for (const CascadeOptions& options : WalkOptions()) {
      for (size_t k : {size_t{1}, size_t{5}, c.n - 1, c.n}) {
        for (size_t shards : {1u, 2u, 7u}) {
          ExpectOracleWalk(c.path, 3, storm.target, k, options, shards,
                           WalkLabel(c.name, options, k, shards));
        }
      }
    }
    std::remove(c.path.c_str());
  }
}

}  // namespace
}  // namespace storage
}  // namespace fuzzydb
