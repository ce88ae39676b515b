// Tests for the resumable FaginCursor ("continue where we left off",
// paper §4.1).

#include <gtest/gtest.h>

#include <set>

#include "middleware/fagin.h"
#include "middleware/naive.h"
#include "sim/experiment.h"
#include "sim/workload.h"

namespace fuzzydb {
namespace {

TEST(FaginCursorTest, BatchesReproduceTheFullRanking) {
  Rng rng(271);
  Workload w = IndependentUniform(&rng, 300, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);

  Result<GradedSet> truth = NaiveAllGrades(ptrs, *MinRule());
  ASSERT_TRUE(truth.ok());
  std::vector<GradedObject> expected = truth->Sorted();

  Result<FaginCursor> cursor = FaginCursor::Create(ptrs, MinRule());
  ASSERT_TRUE(cursor.ok());
  std::vector<GradedObject> streamed;
  while (streamed.size() < 300) {
    Result<TopKResult> batch = cursor->NextBatch(25);
    ASSERT_TRUE(batch.ok());
    ASSERT_FALSE(batch->items.empty());
    streamed.insert(streamed.end(), batch->items.begin(), batch->items.end());
  }
  ASSERT_EQ(streamed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // Grades are continuous uniforms: ties have probability 0, so the order
    // must match exactly.
    EXPECT_EQ(streamed[i].id, expected[i].id) << "position " << i;
    EXPECT_NEAR(streamed[i].grade, expected[i].grade, 1e-12);
  }
}

TEST(FaginCursorTest, BatchesNeverRepeatObjects) {
  Rng rng(277);
  Workload w = IndependentUniform(&rng, 200, 3);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<FaginCursor> cursor = FaginCursor::Create(ptrs, MinRule());
  ASSERT_TRUE(cursor.ok());
  std::set<ObjectId> seen;
  for (int b = 0; b < 8; ++b) {
    Result<TopKResult> batch = cursor->NextBatch(10);
    ASSERT_TRUE(batch.ok());
    for (const GradedObject& g : batch->items) {
      EXPECT_TRUE(seen.insert(g.id).second) << "duplicate id " << g.id;
    }
  }
}

TEST(FaginCursorTest, BatchHoldsExactlyK) {
  // Each batch is selected from every graded, un-emitted object; the
  // returned vector must not keep that pool's capacity.
  Rng rng(283);
  Workload w = IndependentUniform(&rng, 5000, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<FaginCursor> cursor = FaginCursor::Create(ptrs, MinRule());
  ASSERT_TRUE(cursor.ok());
  for (int b = 0; b < 3; ++b) {
    Result<TopKResult> batch = cursor->NextBatch(10);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->items.size(), 10u);
    EXPECT_LE(batch->items.capacity(), 10u);
  }
}

TEST(FaginCursorTest, CostGrowsIncrementally) {
  // The second batch should cost much less than running A0 from scratch
  // for 2k, because sorted access resumes and random accesses are cached.
  Rng rng(281);
  Workload w = IndependentUniform(&rng, 5000, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);

  Result<FaginCursor> cursor = FaginCursor::Create(ptrs, MinRule());
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->NextBatch(10).ok());
  uint64_t after_first = cursor->cost().total();
  ASSERT_TRUE(cursor->NextBatch(10).ok());
  uint64_t after_second = cursor->cost().total();

  // One-shot run for 2k from scratch.
  Result<TopKResult> oneshot = FaginTopK(ptrs, *MinRule(), 20);
  ASSERT_TRUE(oneshot.ok());
  // Resumed total should not exceed the one-shot cost by more than the
  // first batch's overhead (they see the same sorted prefixes).
  EXPECT_LE(after_second, oneshot->cost.total() + after_first);
  EXPECT_GT(after_second, after_first);
}

TEST(FaginCursorTest, DrainsTheWholeDatabaseThenReturnsEmpty) {
  Rng rng(283);
  Workload w = IndependentUniform(&rng, 50, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  Result<FaginCursor> cursor = FaginCursor::Create(ptrs, MinRule());
  ASSERT_TRUE(cursor.ok());
  Result<TopKResult> all = cursor->NextBatch(100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->items.size(), 50u);
  Result<TopKResult> empty = cursor->NextBatch(10);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->items.empty());
}

TEST(FaginCursorTest, RejectsBadArguments) {
  Rng rng(293);
  Workload w = IndependentUniform(&rng, 10, 2);
  Result<std::vector<VectorSource>> sources = w.MakeSources();
  ASSERT_TRUE(sources.ok());
  std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
  EXPECT_FALSE(FaginCursor::Create({}, MinRule()).ok());
  Result<FaginCursor> cursor = FaginCursor::Create(ptrs, MinRule());
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE(cursor->NextBatch(0).ok());
}

}  // namespace
}  // namespace fuzzydb
