#include "middleware/vector_source.h"

namespace fuzzydb {

Result<VectorSource> VectorSource::Create(std::vector<GradedObject> items,
                                          std::string name) {
  if (items.size() > kMaxRows) return Status::InvalidArgument("too many items");
  std::vector<double> grades(items.size());
  std::vector<ObjectId> ids(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (!(items[i].grade >= 0.0 && items[i].grade <= 1.0)) {
      return Status::InvalidArgument("grade must be in [0,1]");
    }
    grades[i] = items[i].grade;
    ids[i] = items[i].id;
  }
  VectorSource src(std::move(grades), std::move(ids), std::move(name));
  if (src.has_duplicate_ids()) {
    return Status::AlreadyExists("duplicate object id in source");
  }
  return src;
}

const std::vector<GradedObject>& VectorSource::sorted_items() const {
  if (sorted_items_.size() == Size()) return sorted_items_;
  RankedGrades copy = *this;  // ranks a copy: this stream stays as it is
  copy.RestartSorted();
  sorted_items_.clear();
  while (std::optional<GradedObject> next = copy.NextSorted()) {
    sorted_items_.push_back(*next);
  }
  return sorted_items_;
}

Result<std::vector<VectorSource>> MakeSources(
    const std::vector<ObjectId>& ids,
    const std::vector<std::vector<double>>& columns) {
  std::vector<VectorSource> out;
  out.reserve(columns.size());
  for (size_t j = 0; j < columns.size(); ++j) {
    if (columns[j].size() != ids.size()) {
      return Status::InvalidArgument("grade column size mismatch");
    }
    std::vector<GradedObject> items(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      items[i] = {ids[i], columns[j][i]};
    }
    Result<VectorSource> src =
        VectorSource::Create(std::move(items), "list" + std::to_string(j));
    if (!src.ok()) return src.status();
    out.push_back(std::move(src).value());
  }
  return out;
}

}  // namespace fuzzydb
