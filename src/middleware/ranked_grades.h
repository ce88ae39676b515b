// The one ranked list behind every materialized sorted-access source (QBIC
// color/texture/shape, paged color, explicit lists, lifted subobjects).
//
// A0 and TA read only a prefix of each list (paper §4), so sorting all N
// grades up front pays O(N log N) for a few hundred reads. RankedGrades
// keeps the grades by row and ranks on demand: the first sorted or filter
// access heapifies the row numbers in O(N), and each further rank pops the
// heap's top into the array's tail, which thus holds the replayable ranked
// prefix. The order is exactly GradeDescending (grade descending, ties by id
// ascending) over distinct ids, so the stream equals a full std::sort's.
//
// Size and RandomAccess read only what the constructor fixed, so they may
// run while another thread ranks; NextSorted, RestartSorted and AtLeast need
// one caller at a time, like every GradedSource.

#ifndef FUZZYDB_MIDDLEWARE_RANKED_GRADES_H_
#define FUZZYDB_MIDDLEWARE_RANKED_GRADES_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "middleware/source.h"

namespace fuzzydb {

/// A graded source over grades stored by row, ranked lazily.
class RankedGrades : public GradedSource {
 public:
  /// Rows are numbered with uint32_t in the heap.
  static constexpr size_t kMaxRows = std::numeric_limits<uint32_t>::max();

  RankedGrades() = default;

  /// Ranks nothing.
  size_t Size() const override { return grades_.size(); }
  std::optional<GradedObject> NextSorted() override;
  void RestartSorted() override { cursor_ = 0; }
  double RandomAccess(ObjectId id) override;
  /// Ranks until the best unranked grade is below `threshold`; the sorted
  /// access cursor does not move.
  std::vector<GradedObject> AtLeast(double threshold) override;
  std::string name() const override { return label_; }

  /// Rows ranked so far: the replayable prefix.
  size_t ranked() const { return rows_.size() - heap_end_; }

 protected:
  /// Row r is object `first_id + r`: random access is a bounds check and an
  /// index.
  RankedGrades(std::vector<double> grades, ObjectId first_id,
               std::string label);
  /// Row r is object `ids[r]`: random access hashes the id to its row (the
  /// first row, should an id repeat). Precondition for both: at most
  /// kMaxRows rows.
  RankedGrades(std::vector<double> grades, std::vector<ObjectId> ids,
               std::string label);
  bool has_duplicate_ids() const { return row_of_.size() != ids_.size(); }

 private:
  ObjectId IdOf(uint32_t row) const {
    return ids_.empty() ? first_id_ + row : ids_[row];
  }
  /// Heapifies on first use, then ranks rows until `stop()` or none is left.
  template <typename Stop>
  void RankUntil(Stop stop);

  std::vector<double> grades_;
  /// Explicit ids by row and their inverse; both empty for affine ids.
  std::vector<ObjectId> ids_;
  std::unordered_map<ObjectId, uint32_t> row_of_;
  ObjectId first_id_ = 0;
  /// Empty until the first ranked access; then [0, heap_end_) is a heap of
  /// the unranked rows and the tail the ranked prefix, rank i at N-1-i.
  std::vector<uint32_t> rows_;
  size_t heap_end_ = 0;
  size_t cursor_ = 0;
  std::string label_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_RANKED_GRADES_H_
