#include "image/qbic_source.h"

namespace fuzzydb {

namespace {

// ImageStore assigns ids contiguously from its first image's id, so row r of
// a per-image grade vector is object FirstId + r.
ObjectId FirstId(const ImageStore& store) {
  return store.size() == 0 ? 0 : store.image(0).id;
}

}  // namespace

Result<QbicColorSource> QbicColorSource::Create(const ImageStore* store,
                                                Histogram target,
                                                std::string label) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  FUZZYDB_RETURN_NOT_OK(ValidateHistogram(target));
  if (target.size() != store->palette().size()) {
    return Status::InvalidArgument("target histogram has wrong bin count");
  }
  // Grade through the embedding layer: one O(bins^2) projection of the
  // target, then one batched O(bins)-per-image pass over the store's
  // contiguous embedding buffer, sharded across the shared pool. Distances
  // become grades in place.
  std::vector<double> target_embedding = store->color_distance().Embed(target);
  std::vector<double> grades(store->size());
  store->embeddings().BatchDistances(target_embedding, grades,
                                     ThreadPool::Shared());
  for (double& g : grades) g = store->ColorGradeFromDistance(g);
  return QbicColorSource(std::move(grades), FirstId(*store), std::move(label));
}

Result<QbicTextureSource> QbicTextureSource::Create(
    const ImageStore* store, const TextureFeatures& target,
    std::string label) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  std::vector<double> grades(store->size());
  for (size_t i = 0; i < grades.size(); ++i) {
    grades[i] = TextureGradeFromDistance(
        TextureDistance(store->image(i).texture, target));
  }
  return QbicTextureSource(std::move(grades), FirstId(*store),
                           std::move(label));
}

Result<QbicShapeSource> QbicShapeSource::Create(
    const ImageStore* store, const Polygon& target, std::string label,
    size_t turning_samples, ShapeMethod method) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (turning_samples < 4) {
    return Status::InvalidArgument("turning_samples must be >= 4");
  }
  std::vector<double> target_turning;
  HuMoments target_hu{};
  if (method == ShapeMethod::kTurningFunction) {
    target_turning = TurningFunction(target, turning_samples);
  } else if (method == ShapeMethod::kHuMoments) {
    target_hu = ComputeHuMoments(target);
  }
  std::vector<double> grades(store->size());
  for (size_t i = 0; i < grades.size(); ++i) {
    const Polygon& shape = store->image(i).shape;
    double d = 0.0;
    switch (method) {
      case ShapeMethod::kTurningFunction:
        d = TurningDistance(TurningFunction(shape, turning_samples),
                            target_turning);
        break;
      case ShapeMethod::kHuMoments:
        d = HuMomentDistance(ComputeHuMoments(shape), target_hu);
        break;
      case ShapeMethod::kHausdorff:
        d = HausdorffShapeDistance(shape, target, turning_samples);
        break;
    }
    grades[i] = ShapeGradeFromDistance(d);
  }
  return QbicShapeSource(std::move(grades), FirstId(*store), std::move(label));
}

}  // namespace fuzzydb
