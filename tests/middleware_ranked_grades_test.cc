// RankedGrades against a full-sort oracle: the lazy heap stream must equal
// std::sort(..., GradeDescending) over all N item for item, whatever the
// ties, the id mode, and the interleaving of sorted, filter and random
// access.

#include "middleware/ranked_grades.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/random.h"

namespace fuzzydb {
namespace {

enum class Grades { kRandom, kAllEqual, kQuantized };

std::vector<double> MakeGrades(Grades kind, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> g(n);
  for (double& x : g) {
    switch (kind) {
      case Grades::kRandom:
        x = rng.NextDouble();
        break;
      case Grades::kAllEqual:
        x = 0.5;
        break;
      case Grades::kQuantized:  // 5 levels, so ties everywhere
        x = static_cast<double>(rng.NextBounded(5)) / 4.0;
        break;
    }
  }
  return g;
}

// Distinct ids in no monotone relation to row order.
std::vector<ObjectId> ShuffledIds(size_t n, uint64_t seed) {
  std::vector<ObjectId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = 1000 + 7 * i;
  Rng rng(seed);
  rng.Shuffle(&ids);
  return ids;
}

std::vector<GradedObject> Oracle(const std::vector<double>& grades,
                                 const std::vector<ObjectId>& ids) {
  std::vector<GradedObject> out(grades.size());
  for (size_t i = 0; i < grades.size(); ++i) out[i] = {ids[i], grades[i]};
  std::sort(out.begin(), out.end(), GradeDescending);
  return out;
}

std::vector<ObjectId> AffineIds(size_t n, ObjectId first) {
  std::vector<ObjectId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = first + i;
  return ids;
}

bool BitEqual(const std::vector<GradedObject>& a,
              const std::vector<GradedObject>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].grade, &b[i].grade, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<GradedObject> Drain(GradedSource& src) {
  std::vector<GradedObject> out;
  while (std::optional<GradedObject> next = src.NextSorted()) {
    out.push_back(*next);
  }
  return out;
}

// The constructors are for sources that grade; a test list just holds grades.
class List : public RankedGrades {
 public:
  List() = default;
  List(std::vector<double> grades, ObjectId first_id)
      : RankedGrades(std::move(grades), first_id, "x") {}
  List(std::vector<double> grades, std::vector<ObjectId> ids)
      : RankedGrades(std::move(grades), std::move(ids), "x") {}
  using RankedGrades::has_duplicate_ids;
};

// One list under test plus the oracle it must match.
struct Case {
  List ranked;
  std::vector<GradedObject> oracle;
  std::vector<ObjectId> ids;  // by row
  std::vector<double> grades;  // by row
};

Case MakeCase(Grades kind, size_t n, bool explicit_ids, uint64_t seed) {
  Case c;
  c.grades = MakeGrades(kind, n, seed);
  if (explicit_ids) {
    c.ids = ShuffledIds(n, seed + 1);
    c.ranked = List(c.grades, c.ids);
    EXPECT_FALSE(c.ranked.has_duplicate_ids());
  } else {
    c.ids = AffineIds(n, 42);
    c.ranked = List(c.grades, 42);
  }
  c.oracle = Oracle(c.grades, c.ids);
  return c;
}

struct Param {
  Grades kind;
  size_t n;
  bool explicit_ids;
};

void PrintTo(const Param& p, std::ostream* os) {
  *os << "kind " << static_cast<int>(p.kind) << " n " << p.n
      << (p.explicit_ids ? " explicit ids" : " affine ids");
}

std::string ParamName(const testing::TestParamInfo<Param>& info) {
  const char* kind = info.param.kind == Grades::kRandom     ? "Random"
                     : info.param.kind == Grades::kAllEqual ? "AllEqual"
                                                            : "Quantized";
  std::string name(kind);
  name += "N";
  name += std::to_string(info.param.n);
  name += info.param.explicit_ids ? "Explicit" : "Affine";
  return name;
}

class RankedGradesOracleTest : public testing::TestWithParam<Param> {
 protected:
  Case Make(uint64_t seed = 11) {
    return MakeCase(GetParam().kind, GetParam().n, GetParam().explicit_ids,
                    seed);
  }
};

TEST_P(RankedGradesOracleTest, FullStreamEqualsSort) {
  Case c = Make();
  EXPECT_TRUE(BitEqual(Drain(c.ranked), c.oracle));
  EXPECT_FALSE(c.ranked.NextSorted().has_value());  // stays exhausted
}

TEST_P(RankedGradesOracleTest, SizeRanksNothing) {
  Case c = Make();
  EXPECT_EQ(c.ranked.Size(), GetParam().n);
  EXPECT_EQ(c.ranked.ranked(), 0u);
  c.ranked.RandomAccess(c.ids.empty() ? 0 : c.ids[0]);
  EXPECT_EQ(c.ranked.ranked(), 0u);
  if (GetParam().n > 0) {
    c.ranked.NextSorted();
    EXPECT_EQ(c.ranked.ranked(), 1u);  // one pop per sorted access
    EXPECT_EQ(c.ranked.Size(), GetParam().n);
  }
}

TEST_P(RankedGradesOracleTest, RestartMidStreamReplays) {
  Case c = Make();
  const size_t n = GetParam().n;
  for (size_t stop : {size_t{0}, n / 3, n}) {
    c.ranked.RestartSorted();
    std::vector<GradedObject> head;
    for (size_t i = 0; i < stop; ++i) head.push_back(*c.ranked.NextSorted());
    EXPECT_TRUE(BitEqual(
        head, {c.oracle.begin(), c.oracle.begin() + static_cast<long>(stop)}));
    c.ranked.RestartSorted();
    EXPECT_TRUE(BitEqual(Drain(c.ranked), c.oracle)) << "restart at " << stop;
  }
}

TEST_P(RankedGradesOracleTest, AtLeastKeepsCursorAndMatchesPartition) {
  Case c = Make();
  const size_t n = GetParam().n;
  std::vector<double> thresholds = {1.5, std::nextafter(1.0, 2.0), 0.0, -0.5};
  for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 7)) {
    thresholds.push_back(c.grades[i]);  // equal to a present grade
  }
  const size_t consumed = n / 4;
  for (size_t i = 0; i < consumed; ++i) c.ranked.NextSorted();
  for (double t : thresholds) {
    auto end = std::partition_point(
        c.oracle.begin(), c.oracle.end(),
        [t](const GradedObject& g) { return g.grade >= t; });
    EXPECT_TRUE(BitEqual(c.ranked.AtLeast(t), {c.oracle.begin(), end}))
        << "threshold " << t;
    // The cursor has not moved: sorted access resumes at `consumed`.
    std::optional<GradedObject> next = c.ranked.NextSorted();
    if (consumed < n) {
      ASSERT_TRUE(next.has_value());
      EXPECT_EQ(*next, c.oracle[consumed]) << "threshold " << t;
    } else {
      EXPECT_FALSE(next.has_value());
    }
    c.ranked.RestartSorted();
    for (size_t i = 0; i < consumed; ++i) c.ranked.NextSorted();
  }
  c.ranked.RestartSorted();
  EXPECT_TRUE(BitEqual(Drain(c.ranked), c.oracle));
}

TEST_P(RankedGradesOracleTest, RandomAccessByRowAndZeroElsewhere) {
  Case c = Make();
  const size_t n = GetParam().n;
  // Before and after ranking: random access never depends on the stream.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t row = 0; row < n; ++row) {
      const double got = c.ranked.RandomAccess(c.ids[row]);
      EXPECT_EQ(std::memcmp(&got, &c.grades[row], sizeof(double)), 0);
    }
    Drain(c.ranked);
  }
  EXPECT_EQ(c.ranked.RandomAccess(0), 0.0);       // below first_id / unknown
  EXPECT_EQ(c.ranked.RandomAccess(41), 0.0);      // first_id - 1
  EXPECT_EQ(c.ranked.RandomAccess(42 + n), 0.0);  // past the end
  EXPECT_EQ(c.ranked.RandomAccess(1000 + 7 * n), 0.0);
  EXPECT_EQ(c.ranked.RandomAccess(1001), 0.0);  // between explicit ids
  EXPECT_EQ(c.ranked.RandomAccess(~ObjectId{0}), 0.0);
}

std::vector<Param> AllParams() {
  std::vector<Param> out;
  for (Grades kind : {Grades::kRandom, Grades::kAllEqual, Grades::kQuantized}) {
    for (size_t n : {0, 1, 2, 513}) {
      for (bool explicit_ids : {false, true}) {
        out.push_back({kind, n, explicit_ids});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Lists, RankedGradesOracleTest,
                         testing::ValuesIn(AllParams()), ParamName);

TEST(RankedGradesTest, RepeatedIdIsReportedAndKeepsItsFirstRow) {
  List repeated({0.1, 0.2}, std::vector<ObjectId>{3, 3});
  EXPECT_TRUE(repeated.has_duplicate_ids());
  EXPECT_EQ(repeated.RandomAccess(3), 0.1);
  EXPECT_FALSE(
      List({0.1, 0.2}, std::vector<ObjectId>{3, 4}).has_duplicate_ids());
  EXPECT_FALSE(List({0.1, 0.2}, 3).has_duplicate_ids());
}

TEST(RankedGradesTest, DefaultIsEmpty) {
  RankedGrades empty;
  EXPECT_EQ(empty.Size(), 0u);
  EXPECT_FALSE(empty.NextSorted().has_value());
  EXPECT_TRUE(empty.AtLeast(0.0).empty());
  EXPECT_EQ(empty.RandomAccess(0), 0.0);
}

TEST(RankedGradesTest, CopyCarriesTheRankedPrefixAndCursor) {
  Case c = MakeCase(Grades::kQuantized, 100, true, 5);
  for (int i = 0; i < 10; ++i) c.ranked.NextSorted();
  List copy = c.ranked;
  EXPECT_EQ(copy.NextSorted(), c.oracle[10]);
  copy.RestartSorted();
  EXPECT_TRUE(BitEqual(Drain(copy), c.oracle));
  EXPECT_EQ(c.ranked.NextSorted(), c.oracle[10]);  // original untouched
}

// The serving layer builds a source on the submitting thread and ranks it
// on a worker; random access may run meanwhile on another thread. Under
// TSan this pins the thread contract of the header.
TEST(RankedGradesTest, RanksOnAnotherThreadWhileRandomAccessReads) {
  Case c = MakeCase(Grades::kRandom, 4096, true, 9);
  std::vector<GradedObject> streamed;
  std::thread ranker([&] { streamed = Drain(c.ranked); });
  for (size_t row = 0; row < c.ids.size(); ++row) {
    const double got = c.ranked.RandomAccess(c.ids[row]);
    EXPECT_EQ(std::memcmp(&got, &c.grades[row], sizeof(double)), 0);
  }
  EXPECT_EQ(c.ranked.Size(), 4096u);
  ranker.join();
  EXPECT_TRUE(BitEqual(streamed, c.oracle));
}

}  // namespace
}  // namespace fuzzydb
