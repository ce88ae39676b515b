#include "storage/paged_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/squared_distance.h"

namespace fuzzydb {
namespace storage {

namespace {

using knn_internal::KeepKSmallest;
using knn_internal::ToOutput;

constexpr uint64_t kNoPage = ~uint64_t{0};

// How a PagedRows reads pages: probes (cascade refinement, single-row
// Distance) go through Fetch and stay cached; full scans go through
// ScanRead, which never evicts a resident page for a page the scan will
// not read again.
enum class PageAccess { kProbe, kScan };

// The paged RowAccessor (see image/knn_kernel.h): holds one pinned page at
// a time (or, for a scan miss the pool had no free frame for, one page in
// its own buffer) and swaps on page crossings. One instance per shard, one
// thread each; the pool underneath is what's shared.
class PagedRows {
 public:
  PagedRows(const ColumnFile& file, BufferPool& pool, size_t readahead,
            PageAccess access)
      : file_(file), pool_(pool), rows_per_page_(file.rows_per_page()),
        stride_(file.stride()), readahead_(readahead),
        scratch_(access == PageAccess::kScan ? file.page_bytes() : 0) {}

  const double* Acquire(size_t i) {
    const uint64_t page = i / rows_per_page_;
    if (page != current_page_) {
      if (readahead_ > 0 &&
          (current_page_ == kNoPage || page % readahead_ == 0)) {
        // Advice, not I/O: the kernel may prefetch into its own page cache;
        // the pool's budget is untouched.
        file_.Advise(page, readahead_);
      }
      if (!Load(page)) return nullptr;
      current_page_ = page;
    }
    return rows_ + (i - page * rows_per_page_) * stride_;
  }

  /// The error that made Acquire return nullptr (OK until then).
  const Status& status() const { return status_; }

 private:
  bool Load(uint64_t page) {
    if (!scratch_.empty()) {
      Result<const char*> bytes = pool_.ScanRead(page, scratch_, &handle_);
      if (!bytes.ok()) {
        status_ = bytes.status();
        return false;
      }
      rows_ = reinterpret_cast<const double*>(*bytes);
      return true;
    }
    Result<PageHandle> fetched = pool_.Fetch(page);
    if (!fetched.ok()) {
      status_ = fetched.status();
      return false;
    }
    handle_ = std::move(fetched).value();
    rows_ = handle_.doubles();
    return true;
  }

  const ColumnFile& file_;
  BufferPool& pool_;
  const size_t rows_per_page_;
  const size_t stride_;
  const size_t readahead_;
  uint64_t current_page_ = kNoPage;
  PageHandle handle_;
  std::vector<char> scratch_;  // scan mode only: a page the pool did not keep
  const double* rows_ = nullptr;
  Status status_;
};

// First non-OK status in shard order — deterministic, unlike first-to-fail.
Status FirstError(const std::vector<Status>& per_shard) {
  for (const Status& s : per_shard) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PagedEmbeddingStore>> PagedEmbeddingStore::Open(
    const std::string& path, PagedStoreOptions options) {
  auto opened = ColumnFile::Open(path);
  if (!opened.ok()) return opened.status();

  auto store = std::unique_ptr<PagedEmbeddingStore>(new PagedEmbeddingStore());
  store->file_ = std::move(opened).value();
  store->options_ = options;

  if (options.load_quantized) {
    auto quantized = store->file_->LoadQuantized();
    if (!quantized.ok()) return quantized.status();
    store->quantized_ = std::move(quantized).value();
  }

  BufferPoolOptions pool_options;
  pool_options.page_bytes = store->file_->page_bytes();
  pool_options.capacity_pages =
      std::max<size_t>(1, options.pool_bytes / pool_options.page_bytes);
  // The fetcher shares ownership of the file: a pool load that is in
  // flight when the store is destroyed still has a live descriptor.
  std::shared_ptr<ColumnFile> file = store->file_;
  store->pool_ = std::make_unique<BufferPool>(
      pool_options, [file](uint64_t page, std::span<char> dest) {
        return file->ReadPage(page, dest);
      });
  return store;
}

void PagedEmbeddingStore::Close() {
  if (pool_ != nullptr) pool_->Close();
  if (file_ != nullptr) file_->Close();
}

Result<double> PagedEmbeddingStore::Distance(std::span<const double> target,
                                             size_t i) const {
  assert(target.size() == dim());
  if (i >= size()) return Status::OutOfRange("row index past store size");
  PagedRows rows(*file_, *pool_, /*readahead=*/0, PageAccess::kProbe);
  const double* row = rows.Acquire(i);
  if (row == nullptr) return rows.status();
  return std::sqrt(SquaredDistance(row, target.data(), dim()));
}

Status PagedEmbeddingStore::BatchDistances(std::span<const double> target,
                                           std::span<double> out) const {
  return BatchDistances(target, out, /*pool=*/nullptr, /*shards=*/1);
}

Status PagedEmbeddingStore::BatchDistances(std::span<const double> target,
                                           std::span<double> out,
                                           ThreadPool* pool,
                                           size_t shards) const {
  assert(target.size() == dim() && out.size() == size());
  const double* FUZZYDB_RESTRICT t = target.data();
  const size_t d = dim();
  const std::vector<ShardRange> ranges =
      MakeShards(size(), ResolveShards(shards, pool, size()));
  std::vector<Status> errors(ranges.size());
  RunShards(pool, ranges.size(), [&](size_t s) {
    PagedRows rows(*file_, *pool_, options_.readahead_pages,
                   PageAccess::kScan);
    for (size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
      const double* FUZZYDB_RESTRICT row = rows.Acquire(i);
      if (row == nullptr) {
        errors[s] = rows.status();
        return;
      }
      out[i] = std::sqrt(SquaredDistance(row, t, d));
    }
  });
  return FirstError(errors);
}

Result<std::vector<std::pair<size_t, double>>> PagedEmbeddingStore::ExactKnn(
    std::span<const double> target, size_t k) const {
  return ExactKnn(target, k, /*pool=*/nullptr, /*shards=*/1);
}

Result<std::vector<std::pair<size_t, double>>> PagedEmbeddingStore::ExactKnn(
    std::span<const double> target, size_t k, ThreadPool* pool,
    size_t shards) const {
  if (k == 0 || size() == 0) return std::vector<std::pair<size_t, double>>{};
  k = std::min(k, size());
  assert(target.size() == dim());

  const std::vector<ShardRange> ranges =
      MakeShards(size(), ResolveShards(shards, pool, size()));
  std::vector<std::vector<std::pair<double, size_t>>> local(ranges.size());
  std::vector<Status> errors(ranges.size());
  RunShards(pool, ranges.size(), [&](size_t s) {
    PagedRows rows(*file_, *pool_, options_.readahead_pages,
                   PageAccess::kScan);
    if (!knn_internal::ExactKnnShard(rows, target.data(), dim(), k, ranges[s],
                                     &local[s])) {
      errors[s] = rows.status();
    }
  });
  FUZZYDB_RETURN_NOT_OK(FirstError(errors));

  std::vector<std::pair<double, size_t>> merged;
  merged.reserve(ranges.size() * k);
  for (const auto& mine : local) {
    merged.insert(merged.end(), mine.begin(), mine.end());
  }
  KeepKSmallest(&merged, k);
  return ToOutput(std::move(merged));
}

Result<std::vector<std::pair<size_t, double>>> PagedEmbeddingStore::CascadeKnn(
    std::span<const double> target, size_t k, const CascadeOptions& options,
    CascadeStats* stats) const {
  return CascadeKnn(target, k, options, stats, /*pool=*/nullptr, /*shards=*/1);
}

Result<std::vector<std::pair<size_t, double>>> PagedEmbeddingStore::CascadeKnn(
    std::span<const double> target, size_t k, const CascadeOptions& options,
    CascadeStats* stats, ThreadPool* pool, size_t shards) const {
  if (k == 0 || size() == 0) return std::vector<std::pair<size_t, double>>{};
  k = std::min(k, size());
  assert(target.size() == dim());

  const QuantizedStore* qs =
      options.use_quantized && has_quantized() ? &quantized_ : nullptr;
  QuantizedStore::EncodedQuery qquery;
  if (qs != nullptr) qquery = qs->EncodeQuery(target);

  const BufferPoolStats before = pool_->stats();

  const std::vector<ShardRange> ranges =
      MakeShards(size(), ResolveShards(shards, pool, size()));
  std::vector<std::vector<std::pair<double, size_t>>> local(ranges.size());
  std::vector<CascadeStats> local_stats(ranges.size());
  std::vector<Status> errors(ranges.size());
  RunShards(pool, ranges.size(), [&](size_t s) {
    PagedRows rows(*file_, *pool_, options_.readahead_pages,
                   PageAccess::kProbe);
    if (!knn_internal::CascadeShard(rows, target.data(), dim(), k, options, qs,
                                    qs != nullptr ? &qquery : nullptr,
                                    ranges[s], &local[s], &local_stats[s])) {
      errors[s] = rows.status();
    }
  });
  FUZZYDB_RETURN_NOT_OK(FirstError(errors));

  std::vector<std::pair<double, size_t>> merged;
  merged.reserve(ranges.size() * k);
  for (const auto& mine : local) {
    merged.insert(merged.end(), mine.begin(), mine.end());
  }
  KeepKSmallest(&merged, k);
  if (stats != nullptr) {
    for (const CascadeStats& ls : local_stats) {
      stats->Absorb(ls);
    }
    const BufferPoolStats after = pool_->stats();
    stats->bytes_read_disk += after.bytes_read_disk - before.bytes_read_disk;
    stats->buffer_pool_hits += after.hits - before.hits;
    stats->buffer_pool_misses += after.misses - before.misses;
    stats->buffer_pool_evictions += after.evictions - before.evictions;
  }
  return ToOutput(std::move(merged));
}

Result<EmbeddingStore> PagedEmbeddingStore::LoadToMemory() const {
  EmbeddingStore store(size(), dim());
  // Page-by-page sequential copy through a private buffer, bypassing the
  // pool: every byte lands in the RAM store, so no frame would be reused.
  std::vector<char> page(file_->page_bytes());
  const size_t rpp = file_->rows_per_page();
  const size_t row_bytes = stride() * sizeof(double);
  for (uint64_t p = 0; p < file_->num_pages(); ++p) {
    file_->Advise(p + 1, options_.readahead_pages);
    FUZZYDB_RETURN_NOT_OK(ReadPage(p, page));
    const size_t begin = p * rpp;
    const size_t n = std::min(rpp, size() - begin);
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(store.MutableRow(begin + i).data(),
                  page.data() + i * row_bytes, dim() * sizeof(double));
    }
  }
  store.BuildQuantized();
  return store;
}

Status PagedEmbeddingStore::ReadPage(uint64_t page,
                                     std::span<char> dest) const {
  return file_->ReadPage(page, dest);
}

}  // namespace storage
}  // namespace fuzzydb
