// Complex objects with shared components (paper §4.2): "let us assume that
// the system contains information about Advertisements, which are complex
// objects with AdPhotos among their subobjects ... we need to be able to
// obtain object id's for Advertisements from the object id's of their
// AdPhotos ... this is complicated by the fact that different multimedia
// objects can share the same component objects."
//
// SubobjectMapping is the many-to-many parent<->component relation;
// SubobjectSource lifts a component-level graded source (e.g. AdPhoto
// redness) to parent level: the parent's grade is the combination (max by
// default — "an Advertisement with a red AdPhoto") of its components'
// grades, computed correctly even when components are shared between
// parents.

#ifndef FUZZYDB_CATALOG_SUBOBJECT_H_
#define FUZZYDB_CATALOG_SUBOBJECT_H_

#include <unordered_map>
#include <vector>

#include "core/scoring.h"
#include "middleware/ranked_grades.h"

namespace fuzzydb {

/// Many-to-many parent <-> component id relation.
class SubobjectMapping {
 public:
  /// Declares `component` to be a subobject of `parent`; duplicate pairs are
  /// rejected. A component may belong to several parents (sharing) and a
  /// parent may own several components.
  Status Add(ObjectId parent, ObjectId component);

  /// Components of a parent (empty when unknown), insertion order.
  std::vector<ObjectId> ComponentsOf(ObjectId parent) const;

  /// Parents owning a component (empty when unknown), insertion order.
  std::vector<ObjectId> ParentsOf(ObjectId component) const;

  /// All parent ids, insertion order.
  const std::vector<ObjectId>& parents() const { return parent_order_; }

  size_t num_pairs() const { return num_pairs_; }

 private:
  std::unordered_map<ObjectId, std::vector<ObjectId>> components_of_;
  std::unordered_map<ObjectId, std::vector<ObjectId>> parents_of_;
  std::vector<ObjectId> parent_order_;
  size_t num_pairs_ = 0;
};

/// Lifts a component-level source to parent level.
///
/// The parent grade is `combiner` applied to the grades of its components
/// (components absent from the inner source contribute grade 0); parents
/// with no components grade 0. The lifted grades are computed at
/// construction by streaming the component source once — the realistic
/// strategy when no component->parent index exists, which is exactly the
/// difficulty §4.2 describes — and ranked lazily by sorted access.
class SubobjectSource final : public RankedGrades {
 public:
  /// `inner` and `mapping` must outlive the source.
  static Result<SubobjectSource> Create(GradedSource* inner,
                                        const SubobjectMapping* mapping,
                                        ScoringRulePtr combiner = MaxRule(),
                                        std::string label = "parent");

 private:
  using RankedGrades::RankedGrades;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_CATALOG_SUBOBJECT_H_
