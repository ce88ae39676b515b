#include "storage/buffer_pool.h"

#include <vector>
#include <unordered_map>

#include "common/aligned_buffer.h"
#include "common/sync.h"

namespace fuzzydb {
namespace storage {
namespace internal {

namespace {
constexpr uint64_t kNoPage = ~uint64_t{0};
}

// One cache frame. The data buffer is allocated on first use, so a pool
// sized for the worst case costs only slots until pages actually land.
struct Frame {
  uint64_t page = kNoPage;
  uint32_t pins = 0;
  bool loading = false;
  bool ref = false;  // clock second-chance bit
  AlignedArray<char> data;
};

// All pool state behind one mutex, held by shared_ptr so PageHandles keep
// the frames (and their bytes) alive after the pool itself is gone.
struct PoolState {
  explicit PoolState(BufferPoolOptions opts, BufferPool::Fetcher f)
      : options(opts), fetcher(std::move(f)), frames(opts.capacity_pages) {
    // Popped from the back: the lowest index first, the order the clock
    // hand would have filled an empty pool in.
    free_frames.reserve(frames.size());
    for (size_t i = frames.size(); i-- > 0;) free_frames.push_back(i);
  }

  const BufferPoolOptions options;

  Mutex mu;
  CondVar cv;  // signalled when a load finishes (ok or not) — waiters retry
  BufferPool::Fetcher fetcher GUARDED_BY(mu);
  std::vector<Frame> frames GUARDED_BY(mu);
  std::unordered_map<uint64_t, size_t> table GUARDED_BY(mu);  // page -> frame
  std::vector<size_t> free_frames GUARDED_BY(mu);  // frames holding no page
  size_t clock_hand GUARDED_BY(mu) = 0;
  size_t loads_in_flight GUARDED_BY(mu) = 0;
  BufferPoolStats stats GUARDED_BY(mu);
  bool closed GUARDED_BY(mu) = false;

  // Clock sweep: at most two full revolutions (the first clears ref bits,
  // the second must then find any unpinned frame). Returns the frame index
  // or capacity when everything is pinned or loading.
  size_t FindVictim() REQUIRES(mu) {
    const size_t n = frames.size();
    for (size_t step = 0; step < 2 * n; ++step) {
      Frame& f = frames[clock_hand];
      const size_t idx = clock_hand;
      clock_hand = (clock_hand + 1) % n;
      if (f.pins > 0 || f.loading) continue;
      if (f.ref) {
        f.ref = false;
        continue;
      }
      return idx;
    }
    return n;
  }

  // A frame holding no page, or capacity when there is none.
  size_t TakeFreeFrame() REQUIRES(mu) {
    if (free_frames.empty()) return frames.size();
    const size_t idx = free_frames.back();
    free_frames.pop_back();
    return idx;
  }

  // Maps `page` into `frame` (free or just evicted), marks it loading and
  // pinned, and returns where the fetcher should write it.
  char* BeginLoad(size_t frame, uint64_t page) REQUIRES(mu) {
    Frame& f = frames[frame];
    if (f.data.size() == 0) f.data = AlignedArray<char>(options.page_bytes);
    f.page = page;
    f.loading = true;
    f.pins = 1;  // pinned by this fetch; also shields the frame from clock
    table.emplace(page, frame);
    ++loads_in_flight;
    return f.data.data();  // stable: loading frames are never touched
  }

  // Settles a load begun by BeginLoad (re-locked after the read): on
  // success the frame is referenced and stays pinned; on failure the page
  // is unmapped and the frame is free again. Wakes waiters either way.
  void EndLoad(size_t frame, uint64_t page, const Status& read) REQUIRES(mu) {
    --loads_in_flight;
    Frame& f = frames[frame];
    f.loading = false;
    if (read.ok()) {
      ++stats.misses;
      stats.bytes_read_disk += options.page_bytes;
      f.ref = true;
    } else {
      table.erase(page);
      f.page = kNoPage;
      f.pins = 0;
      free_frames.push_back(frame);
    }
    cv.NotifyAll();
  }

  void Unpin(size_t frame) {
    MutexLock lock(mu);
    --frames[frame].pins;
  }
};

}  // namespace internal

using internal::kNoPage;
using internal::PoolState;

// ---------------------------------------------------------------------------
// PageHandle

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : state_(std::move(other.state_)), frame_(other.frame_),
      page_(other.page_), data_(other.data_), size_(other.size_) {
  other.state_.reset();
  other.data_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    state_ = std::move(other.state_);
    frame_ = other.frame_;
    page_ = other.page_;
    data_ = other.data_;
    size_ = other.size_;
    other.state_.reset();
    other.data_ = nullptr;
  }
  return *this;
}

void PageHandle::Release() {
  if (state_ != nullptr) {
    state_->Unpin(frame_);
    state_.reset();
    data_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// BufferPool

BufferPool::BufferPool(BufferPoolOptions options, Fetcher fetcher)
    : state_(std::make_shared<PoolState>(options, std::move(fetcher))) {}

BufferPool::~BufferPool() { Close(); }

size_t BufferPool::page_bytes() const { return state_->options.page_bytes; }
size_t BufferPool::capacity_pages() const {
  return state_->options.capacity_pages;
}

Result<PageHandle> BufferPool::Fetch(uint64_t page) {
  return Load(page, /*scratch=*/{});
}

Result<const char*> BufferPool::ScanRead(uint64_t page,
                                         std::span<char> scratch,
                                         PageHandle* pin) {
  pin->Release();
  if (scratch.size() != state_->options.page_bytes) {
    return Status::InvalidArgument("scan scratch must be one page long");
  }
  Result<PageHandle> loaded = Load(page, scratch);
  if (!loaded.ok()) return loaded.status();
  *pin = std::move(loaded).value();
  return pin->valid() ? pin->data() : scratch.data();
}

Result<PageHandle> BufferPool::Load(uint64_t page, std::span<char> scratch) {
  PoolState& s = *state_;
  MutexLock lock(s.mu);
  for (;;) {
    if (s.closed) {
      return Status::FailedPrecondition("buffer pool is closed");
    }
    auto it = s.table.find(page);
    if (it != s.table.end()) {
      internal::Frame& f = s.frames[it->second];
      if (f.loading) {
        // Another thread is reading this page right now; wait for the load
        // to settle either way, then re-resolve from the table (a failed
        // load erases the mapping).
        s.cv.Wait(s.mu, lock);
        continue;
      }
      ++s.stats.hits;
      f.ref = true;
      ++f.pins;
      return PageHandle(state_, it->second, page, f.data.data(),
                        s.options.page_bytes);
    }

    // A free frame displaces nothing, so even a scan takes one: a file
    // that fits in the pool still warms it. Only Fetch evicts.
    size_t frame = s.TakeFreeFrame();
    if (frame == s.frames.size() && scratch.empty()) {
      frame = s.FindVictim();
      if (frame == s.frames.size()) {
        return Status::ResourceExhausted(
            "buffer pool: all " + std::to_string(s.frames.size()) +
            " frames pinned or loading; pool too small for the working set");
      }
      s.table.erase(s.frames[frame].page);
      ++s.stats.evictions;
    }
    const bool into_frame = frame != s.frames.size();
    char* dest = scratch.data();
    if (into_frame) {
      dest = s.BeginLoad(frame, page);
    } else {
      ++s.loads_in_flight;  // Close() waits this read out too
    }
    Fetcher fetch = s.fetcher;  // copy under the lock; Close() nulls it

    lock.Unlock();
    Status read = fetch
                      ? fetch(page, std::span<char>(dest,
                                                    s.options.page_bytes))
                      : Status::FailedPrecondition("buffer pool is closed");
    lock.Lock();

    if (into_frame) {
      s.EndLoad(frame, page, read);
      if (!read.ok()) return read;
      return PageHandle(state_, frame, page, dest, s.options.page_bytes);
    }
    // Read straight into the scan's own buffer: no frame, table entry or
    // clock bit changed, so nothing resident was displaced.
    if (--s.loads_in_flight == 0) s.cv.NotifyAll();
    if (!read.ok()) return read;
    ++s.stats.misses;
    s.stats.bytes_read_disk += s.options.page_bytes;
    return PageHandle();
  }
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(state_->mu);
  return state_->stats;
}

size_t BufferPool::resident_pages() const {
  MutexLock lock(state_->mu);
  return state_->table.size();
}

void BufferPool::Close() {
  PoolState& s = *state_;
  MutexLock lock(s.mu);
  s.closed = true;
  s.fetcher = nullptr;
  // In-flight loads still hold a copy of the old fetcher; wait them out so
  // the caller can safely close the backing file afterwards.
  while (s.loads_in_flight > 0) s.cv.Wait(s.mu, lock);
}

}  // namespace storage
}  // namespace fuzzydb
