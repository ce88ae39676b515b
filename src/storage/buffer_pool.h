// A fixed-capacity page cache between the query kernels and a column file
// (DESIGN §3k).
//
// The pool owns `capacity_pages` frames of `page_bytes` each — that product
// is the entire file-data memory budget, fixed at construction; everything
// else about the file stays on disk. Fetch(page) returns a pinned
// PageHandle: the frame cannot be evicted while any handle to it lives,
// and the handle's bytes stay valid even after the pool (or the store that
// owns it) is closed or destroyed, because handles share ownership of the
// pool's state. Releasing the last handle merely unpins; the page stays
// resident until the clock sweep reclaims its frame.
//
// A miss first takes a free frame (one holding no page, lowest index
// first); only when none is left does it evict. Eviction is clock (second
// chance): each frame has a reference bit set on every touch; the sweep
// clears set bits and evicts the first unpinned, unreferenced frame. Clock
// approximates LRU with O(1) state per frame and no list splicing in the
// hot path.
//
// Full scans read through ScanRead, which never evicts: a resident page is
// a pinned hit, a missing page takes a free frame if one exists, and
// otherwise it is read straight into the scan's own page buffer, counted
// as a miss with its bytes, and no frame, table entry or clock bit changes.
// A one-pass scan of a file larger than the pool would otherwise evict
// every frame once per pass for pages it never reads again, displacing the
// probe pages (cascade refinement, single-row Distance) that do repeat.
//
// Concurrency protocol (one mutex, everything GUARDED_BY it):
//   - a miss marks the chosen frame `loading`, then drops the lock for the
//     disk read — I/O never runs under the mutex;
//   - a concurrent Fetch of the same page finds the loading frame and
//     waits on the CondVar; of a different page, it picks its own victim;
//   - `loading` frames are invisible to the clock sweep, and a failed load
//     unmaps the page and wakes waiters so they can retry or fail;
//   - Close() invalidates the fetcher and waits out in-flight loads,
//     scan reads into caller buffers included.
// When every frame is pinned or loading, Fetch returns ResourceExhausted
// instead of deadlocking — the caller sized the pool too small for its
// working set, and the kernels treat that as a hard error, not a wait.
// ScanRead never does: with no frame to spare it reads into the caller's
// buffer.

#ifndef FUZZYDB_STORAGE_BUFFER_POOL_H_
#define FUZZYDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "common/status.h"

namespace fuzzydb {
namespace storage {

namespace internal {
struct PoolState;  // defined in buffer_pool.cc; annotated GUARDED_BY there
}

/// Counters for one pool, monotone since construction. Read via
/// BufferPool::stats(); per-query deltas are snapshot differences.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes_read_disk = 0;
};

struct BufferPoolOptions {
  size_t page_bytes = 64 * 1024;
  size_t capacity_pages = 64;
};

/// A pinned reference to one cached page. Move-only RAII: destruction (or
/// move-assignment over) unpins the frame. The bytes are immutable and
/// outlive Close()/destruction of the pool — the handle co-owns the state.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle();
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return state_ != nullptr; }
  uint64_t page() const { return page_; }
  /// The page's bytes (page_bytes of them), 64-byte aligned.
  const char* data() const { return data_; }
  size_t size() const { return size_; }
  /// The page viewed as doubles — what the embedding kernels consume.
  const double* doubles() const {
    return reinterpret_cast<const double*>(data_);
  }

  /// Explicit early unpin (what the destructor does).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(std::shared_ptr<internal::PoolState> state, size_t frame,
             uint64_t page, const char* data, size_t size)
      : state_(std::move(state)), frame_(frame), page_(page), data_(data),
        size_(size) {}

  std::shared_ptr<internal::PoolState> state_;
  size_t frame_ = 0;
  uint64_t page_ = 0;
  const char* data_ = nullptr;
  size_t size_ = 0;
};

class BufferPool {
 public:
  /// Reads one page's bytes from backing storage into `dest` (exactly
  /// page_bytes). Called with no pool lock held; must be thread-safe.
  using Fetcher = std::function<Status(uint64_t page, std::span<char> dest)>;

  BufferPool(BufferPoolOptions options, Fetcher fetcher);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t page_bytes() const;
  size_t capacity_pages() const;

  /// Returns a pinned handle to `page`, reading it from backing storage on
  /// a miss. ResourceExhausted when every frame is pinned or loading;
  /// FailedPrecondition after Close(); otherwise the fetcher's error.
  Result<PageHandle> Fetch(uint64_t page);

  /// The full-scan read, which never evicts. Releases `*pin` first. A
  /// resident page, or a missing one loaded into a free frame, comes back
  /// pinned in `*pin`, as from Fetch. Otherwise the page is read into
  /// `scratch` (exactly page_bytes long) and `*pin` stays empty. Returns
  /// the page's bytes, valid while `*pin` or `scratch` is untouched.
  /// FailedPrecondition after Close(); InvalidArgument for a wrong-sized
  /// `scratch`; otherwise the fetcher's error, with no pin held.
  Result<const char*> ScanRead(uint64_t page, std::span<char> scratch,
                               PageHandle* pin);

  /// Snapshot of the monotone counters.
  BufferPoolStats stats() const;

  /// Pages currently resident (diagnostic; racy by nature).
  size_t resident_pages() const;

  /// Invalidates the fetcher and waits for in-flight loads to finish.
  /// Subsequent Fetch calls fail FailedPrecondition; outstanding handles
  /// remain valid. Idempotent.
  void Close();

 private:
  /// Fetch when `scratch` is empty; otherwise ScanRead's miss policy, and
  /// an empty handle means the bytes landed in `scratch`.
  Result<PageHandle> Load(uint64_t page, std::span<char> scratch);

  std::shared_ptr<internal::PoolState> state_;
};

}  // namespace storage
}  // namespace fuzzydb

#endif  // FUZZYDB_STORAGE_BUFFER_POOL_H_
