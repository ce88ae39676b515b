// Buffer-pool tests (DESIGN §3k): counters, pinning vs the clock sweep,
// handle lifetime past Close() (the ASan-sensitive case), the concurrency
// protocol — same-page fetch coalescing and failed-load recovery — and the
// scan read that never evicts, alone and racing probes. Runs under TSan via
// the `concurrency` label.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/status.h"

namespace fuzzydb {
namespace storage {
namespace {

constexpr size_t kPage = 256;

// A fetcher over a synthetic "file": page p is filled with bytes whose
// values encode p, so any cross-wiring of frames is detectable.
BufferPool::Fetcher PatternFetcher(std::atomic<uint64_t>* fetches = nullptr) {
  return [fetches](uint64_t page, std::span<char> dest) {
    if (fetches != nullptr) fetches->fetch_add(1);
    for (size_t i = 0; i < dest.size(); ++i) {
      dest[i] = static_cast<char>((page * 31 + i) & 0xff);
    }
    return Status::OK();
  };
}

bool BytesLookRight(const char* data, uint64_t page) {
  if (data == nullptr) return false;
  for (size_t i = 0; i < kPage; ++i) {
    if (data[i] != static_cast<char>((page * 31 + i) & 0xff)) return false;
  }
  return true;
}

bool PageLooksRight(const PageHandle& h, uint64_t page) {
  return h.valid() && h.size() == kPage && BytesLookRight(h.data(), page);
}

BufferPoolOptions SmallPool(size_t capacity) {
  BufferPoolOptions options;
  options.page_bytes = kPage;
  options.capacity_pages = capacity;
  return options;
}

TEST(BufferPoolTest, HitMissAndByteCounters) {
  BufferPool pool(SmallPool(4), PatternFetcher());
  {
    auto h = pool.Fetch(7);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_TRUE(PageLooksRight(*h, 7));
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.bytes_read_disk, kPage);

  // Released but still resident: the second fetch is a hit, zero disk.
  auto again = pool.Fetch(7);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(PageLooksRight(*again, 7));
  s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.bytes_read_disk, kPage);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

TEST(BufferPoolTest, ClockEvictsUnpinnedPages) {
  BufferPool pool(SmallPool(2), PatternFetcher());
  // Fill both frames, release, then fault a third page: someone is evicted.
  { ASSERT_TRUE(pool.Fetch(0).ok()); }
  { ASSERT_TRUE(pool.Fetch(1).ok()); }
  auto h2 = pool.Fetch(2);
  ASSERT_TRUE(h2.ok());
  EXPECT_TRUE(PageLooksRight(*h2, 2));
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(pool.resident_pages(), 2u);
}

TEST(BufferPoolTest, PinnedPagesAreNeverEvicted) {
  BufferPool pool(SmallPool(2), PatternFetcher());
  auto pinned = pool.Fetch(10);
  ASSERT_TRUE(pinned.ok());
  // Cycle many other pages through the single remaining frame; page 10's
  // bytes must survive untouched.
  for (uint64_t p = 0; p < 20; ++p) {
    auto h = pool.Fetch(p);
    ASSERT_TRUE(h.ok()) << "page " << p << ": " << h.status().ToString();
    EXPECT_TRUE(PageLooksRight(*h, p));
  }
  EXPECT_TRUE(PageLooksRight(*pinned, 10));
  // And fetching it again while pinned is a hit, not a re-read.
  const uint64_t bytes_before = pool.stats().bytes_read_disk;
  auto again = pool.Fetch(10);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool.stats().bytes_read_disk, bytes_before);
}

TEST(BufferPoolTest, AllPinnedIsResourceExhaustedNotDeadlock) {
  BufferPool pool(SmallPool(2), PatternFetcher());
  auto a = pool.Fetch(0);
  auto b = pool.Fetch(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pool.Fetch(2);
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Releasing one pin unblocks the next fetch.
  a->Release();
  auto d = pool.Fetch(2);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(PageLooksRight(*d, 2));
}

TEST(BufferPoolTest, HandleOutlivesClose) {
  // The ASan-sensitive contract: a handle's bytes stay readable after the
  // pool is closed AND destroyed, because the handle co-owns pool state.
  PageHandle survivor;
  {
    BufferPool pool(SmallPool(2), PatternFetcher());
    auto h = pool.Fetch(3);
    ASSERT_TRUE(h.ok());
    survivor = std::move(*h);
    pool.Close();
    // Fetch after Close fails cleanly.
    EXPECT_EQ(pool.Fetch(4).status().code(), StatusCode::kFailedPrecondition);
    pool.Close();  // idempotent
  }
  // Pool destroyed; the bytes must still be there.
  EXPECT_TRUE(PageLooksRight(survivor, 3));
  survivor.Release();
  EXPECT_FALSE(survivor.valid());
}

TEST(BufferPoolTest, FailedFetchPropagatesAndRetrySucceeds) {
  std::atomic<bool> fail{true};
  BufferPool pool(SmallPool(2),
                  [&fail](uint64_t page, std::span<char> dest) {
                    if (fail.load()) return Status::Internal("disk on fire");
                    return PatternFetcher()(page, dest);
                  });
  auto broken = pool.Fetch(5);
  EXPECT_EQ(broken.status().code(), StatusCode::kInternal);
  // The failed load must not leave a poisoned mapping behind.
  fail.store(false);
  auto retry = pool.Fetch(5);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(PageLooksRight(*retry, 5));
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);  // only the successful load counts as a miss
  EXPECT_EQ(s.bytes_read_disk, kPage);
}

TEST(BufferPoolTest, ConcurrentSamePageFetchLoadsOnce) {
  std::atomic<uint64_t> fetches{0};
  // A fetcher slow enough that threads genuinely overlap in the loading
  // window.
  BufferPool pool(SmallPool(4), [&fetches](uint64_t page,
                                           std::span<char> dest) {
    fetches.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return PatternFetcher()(page, dest);
  });
  constexpr int kThreads = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ok_count] {
      auto h = pool.Fetch(9);
      if (h.ok() && PageLooksRight(*h, 9)) ok_count.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), kThreads);
  // Coalescing: one disk read regardless of the racing fetchers.
  EXPECT_EQ(fetches.load(), 1u);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(BufferPoolTest, ConcurrentMixedWorkloadIsCoherent) {
  std::atomic<uint64_t> fetches{0};
  BufferPool pool(SmallPool(8), PatternFetcher(&fetches));
  constexpr int kThreads = 4;
  constexpr uint64_t kPages = 32;
  constexpr int kIters = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failures, t] {
      uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t page = x % kPages;
        auto h = pool.Fetch(page);
        // ResourceExhausted is impossible here: 4 pins vs 8 frames.
        if (!h.ok() || !PageLooksRight(*h, page)) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<uint64_t>(kThreads * kIters));
  EXPECT_EQ(s.misses, fetches.load());
  EXPECT_EQ(s.bytes_read_disk, fetches.load() * kPage);
  EXPECT_LE(pool.resident_pages(), 8u);
}

TEST(BufferPoolTest, CloseRacingFetchesShutsDownCleanly) {
  BufferPool pool(SmallPool(4), [](uint64_t page, std::span<char> dest) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return PatternFetcher()(page, dest);
  });
  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&pool, t] {
      for (uint64_t p = 0; p < 16; ++p) {
        auto h = pool.Fetch(p + static_cast<uint64_t>(t) * 16);
        if (h.ok()) {
          // Either a real page or a clean FailedPrecondition; both fine.
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pool.Close();
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.Fetch(0).status().code(), StatusCode::kFailedPrecondition);
}

// ---- ScanRead: the full-scan read that never evicts ----------------------

TEST(BufferPoolScanTest, ResidentPageIsAPinnedHit) {
  BufferPool pool(SmallPool(2), PatternFetcher());
  { ASSERT_TRUE(pool.Fetch(4).ok()); }
  std::vector<char> scratch(kPage);
  PageHandle pin;
  Result<const char*> bytes = pool.ScanRead(4, scratch, &pin);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(PageLooksRight(pin, 4));
  EXPECT_EQ(*bytes, pin.data());
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.bytes_read_disk, kPage);
  // Pinned like a Fetch: with the other frame pinned too, nothing is
  // evictable.
  auto other = pool.Fetch(5);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(pool.Fetch(6).status().code(), StatusCode::kResourceExhausted);
  pin.Release();
  EXPECT_TRUE(pool.Fetch(6).ok());
}

TEST(BufferPoolScanTest, MissWithAFreeFrameIsAdmitted) {
  BufferPool pool(SmallPool(2), PatternFetcher());
  std::vector<char> scratch(kPage);
  PageHandle pin;
  Result<const char*> bytes = pool.ScanRead(8, scratch, &pin);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(PageLooksRight(pin, 8));
  EXPECT_EQ(*bytes, pin.data());
  pin.Release();
  EXPECT_EQ(pool.resident_pages(), 1u);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.bytes_read_disk, kPage);
  // The admitted page now serves Fetch from RAM.
  ASSERT_TRUE(pool.Fetch(8).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().bytes_read_disk, kPage);
}

TEST(BufferPoolScanTest, MissWithAFullPoolReadsIntoTheCallersBuffer) {
  BufferPool pool(SmallPool(2), PatternFetcher());
  { ASSERT_TRUE(pool.Fetch(0).ok()); }
  { ASSERT_TRUE(pool.Fetch(1).ok()); }
  const BufferPoolStats before = pool.stats();

  std::vector<char> scratch(kPage);
  PageHandle pin;
  for (uint64_t page = 2; page < 10; ++page) {
    Result<const char*> bytes = pool.ScanRead(page, scratch, &pin);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*bytes, scratch.data());
    EXPECT_FALSE(pin.valid());
    EXPECT_TRUE(BytesLookRight(*bytes, page));
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.evictions, before.evictions);
  EXPECT_EQ(s.misses, before.misses + 8);
  EXPECT_EQ(s.bytes_read_disk, before.bytes_read_disk + 8 * kPage);
  // The resident set is untouched: both original pages still hit.
  EXPECT_EQ(pool.resident_pages(), 2u);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());
  EXPECT_EQ(pool.stats().hits, before.hits + 2);
  EXPECT_EQ(pool.stats().bytes_read_disk, s.bytes_read_disk);
}

TEST(BufferPoolScanTest, FailingFetcherLeaksNoPin) {
  std::atomic<bool> fail{false};
  BufferPool pool(SmallPool(1),
                  [&fail](uint64_t page, std::span<char> dest) {
                    if (fail.load()) return Status::Internal("disk on fire");
                    return PatternFetcher()(page, dest);
                  });
  std::vector<char> scratch(kPage);
  PageHandle pin;

  // Failed admission into the free frame: the frame is free again.
  fail.store(true);
  EXPECT_EQ(pool.ScanRead(3, scratch, &pin).status().code(),
            StatusCode::kInternal);
  EXPECT_FALSE(pin.valid());
  EXPECT_EQ(pool.resident_pages(), 0u);
  fail.store(false);
  ASSERT_TRUE(pool.ScanRead(3, scratch, &pin).ok());
  ASSERT_TRUE(PageLooksRight(pin, 3));

  // Failed read into the caller's buffer, entered holding a pin on the
  // only frame: the pin is released all the same.
  fail.store(true);
  EXPECT_EQ(pool.ScanRead(4, scratch, &pin).status().code(),
            StatusCode::kInternal);
  EXPECT_FALSE(pin.valid());
  fail.store(false);
  // The next Fetch can evict page 3, so no pin was left behind on it.
  auto next = pool.Fetch(5);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(PageLooksRight(*next, 5));
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 2u);  // failed reads are not misses
  EXPECT_EQ(s.bytes_read_disk, 2 * kPage);
}

TEST(BufferPoolScanTest, ScanReadAfterCloseFailsPrecondition) {
  BufferPool pool(SmallPool(2), PatternFetcher());
  std::vector<char> scratch(kPage);
  PageHandle pin;
  ASSERT_TRUE(pool.ScanRead(1, scratch, &pin).ok());
  pool.Close();
  EXPECT_EQ(pool.ScanRead(2, scratch, &pin).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(pin.valid());
}

TEST(BufferPoolScanTest, WrongSizedScratchIsInvalidArgument) {
  BufferPool pool(SmallPool(2), PatternFetcher());
  std::vector<char> scratch(kPage / 2);
  PageHandle pin;
  EXPECT_EQ(pool.ScanRead(1, scratch, &pin).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPoolScanTest, ConcurrentScansAndProbesAreCoherent) {
  std::atomic<uint64_t> fetches{0};
  BufferPool pool(SmallPool(8), PatternFetcher(&fetches));
  constexpr uint64_t kPages = 40;  // 5x the pool
  constexpr int kScanners = 2;
  constexpr int kProbers = 2;
  constexpr int kPasses = 5;
  constexpr int kProbes = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kScanners + kProbers);
  for (int t = 0; t < kScanners; ++t) {
    threads.emplace_back([&pool, &failures] {
      std::vector<char> scratch(kPage);
      PageHandle pin;
      for (int pass = 0; pass < kPasses; ++pass) {
        for (uint64_t page = 0; page < kPages; ++page) {
          Result<const char*> bytes = pool.ScanRead(page, scratch, &pin);
          if (!bytes.ok() || !BytesLookRight(*bytes, page)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (int t = 0; t < kProbers; ++t) {
    threads.emplace_back([&pool, &failures, t] {
      uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 7);
      for (int i = 0; i < kProbes; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t page = x % kPages;
        auto h = pool.Fetch(page);
        // At most four pins against eight frames: never exhausted.
        if (!h.ok() || !PageLooksRight(*h, page)) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<uint64_t>(kScanners * kPasses * kPages +
                                  kProbers * kProbes));
  EXPECT_EQ(s.misses, fetches.load());
  EXPECT_EQ(s.bytes_read_disk, fetches.load() * kPage);
  EXPECT_LE(pool.resident_pages(), 8u);
}

}  // namespace
}  // namespace storage
}  // namespace fuzzydb
