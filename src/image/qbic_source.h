// Graded-source adapters for the image substrate: the "QBIC side" of the
// paper's running example. Each adapter answers one atomic similarity query
// (Color, Texture or Shape ~ target) through the middleware's sorted/random
// access interface: Create grades every image once (the subsystem's own
// query evaluation) and RankedGrades ranks lazily as sorted access reads.

#ifndef FUZZYDB_IMAGE_QBIC_SOURCE_H_
#define FUZZYDB_IMAGE_QBIC_SOURCE_H_

#include <string>

#include "image/bounding.h"
#include "image/image_store.h"
#include "middleware/ranked_grades.h"

namespace fuzzydb {

/// Color-similarity source: grade(x) = 1 - d(x, target)/d_max under the
/// quadratic-form distance of the store's palette.
class QbicColorSource final : public RankedGrades {
 public:
  /// `store` is read only during the call.
  static Result<QbicColorSource> Create(const ImageStore* store,
                                        Histogram target,
                                        std::string label = "Color");

 private:
  using RankedGrades::RankedGrades;
};

/// Texture-similarity source: grade(x) = 1 / (1 + feature-space distance to
/// the target texture).
class QbicTextureSource final : public RankedGrades {
 public:
  static Result<QbicTextureSource> Create(const ImageStore* store,
                                          const TextureFeatures& target,
                                          std::string label = "Texture");

 private:
  using RankedGrades::RankedGrades;
};

/// Which of the paper's cited shape-closeness methods (§2) the shape
/// source grades with.
enum class ShapeMethod {
  kTurningFunction,  ///< [ACH+90]: rotation- and scale-invariant.
  kHuMoments,        ///< [KK97, TC91]: full similarity-transform invariance.
  kHausdorff,        ///< [HRK92]: translation-invariant only.
};

/// Shape-similarity source: grade(x) = 1 / (1 + shape distance to the
/// target shape) under the chosen method.
class QbicShapeSource final : public RankedGrades {
 public:
  static Result<QbicShapeSource> Create(
      const ImageStore* store, const Polygon& target,
      std::string label = "Shape", size_t turning_samples = 64,
      ShapeMethod method = ShapeMethod::kTurningFunction);

 private:
  using RankedGrades::RankedGrades;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_IMAGE_QBIC_SOURCE_H_
