#include "storage/paged_source.h"

#include "image/image_store.h"

namespace fuzzydb {
namespace storage {

Result<PagedColorSource> PagedColorSource::Create(
    const PagedEmbeddingStore* store, std::span<const double> target_embedding,
    double max_distance, std::string label, std::vector<ObjectId> ids) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (target_embedding.size() != store->dim()) {
    return Status::InvalidArgument("target embedding has wrong dimension");
  }
  if (!(max_distance > 0.0)) {
    return Status::InvalidArgument("max_distance must be positive");
  }
  if (!ids.empty() && ids.size() != store->size()) {
    return Status::InvalidArgument("ids size disagrees with store size");
  }
  if (store->size() > RankedGrades::kMaxRows) {
    return Status::InvalidArgument("too many rows to rank");
  }
  // One sequential scan over the rows (the only disk the source ever
  // costs; it evicts nothing), sharded across the shared thread pool like
  // QbicColorSource's pass.
  // Distances become grades in place.
  std::vector<double> grades(store->size());
  FUZZYDB_RETURN_NOT_OK(
      store->BatchDistances(target_embedding, grades, ThreadPool::Shared()));
  for (double& g : grades) g = GradeFromDistance(g, max_distance);
  if (ids.empty()) {
    return PagedColorSource(std::move(grades), 0, std::move(label));
  }
  return PagedColorSource(std::move(grades), std::move(ids), std::move(label));
}

}  // namespace storage
}  // namespace fuzzydb
