// In-memory GradedSource backed by an explicit grade list. The workhorse for
// synthetic workloads and tests; subsystems with real feature data provide
// their own adapters (see image/qbic_source.h, relational/relational_source.h).

#ifndef FUZZYDB_MIDDLEWARE_VECTOR_SOURCE_H_
#define FUZZYDB_MIDDLEWARE_VECTOR_SOURCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "middleware/ranked_grades.h"

namespace fuzzydb {

/// A graded source materialized from (id, grade) pairs.
class VectorSource final : public RankedGrades {
 public:
  /// Validates grades in [0,1] and id uniqueness; the ranking is built
  /// lazily by sorted access.
  static Result<VectorSource> Create(std::vector<GradedObject> items,
                                     std::string name = "source");

  /// The full graded list in sorted order (test/verification helper; not an
  /// access mode and not charged). Ranked from a copy on first call and
  /// kept, so the lazy stream is untouched and references stay valid.
  const std::vector<GradedObject>& sorted_items() const;

 private:
  using RankedGrades::RankedGrades;
  mutable std::vector<GradedObject> sorted_items_;
};

/// Builds one VectorSource per grade column: `columns[j][i]` is the grade of
/// object `ids[i]` under subquery j.
Result<std::vector<VectorSource>> MakeSources(
    const std::vector<ObjectId>& ids,
    const std::vector<std::vector<double>>& columns);

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_VECTOR_SOURCE_H_
