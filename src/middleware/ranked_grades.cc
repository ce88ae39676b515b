#include "middleware/ranked_grades.h"

#include <algorithm>
#include <numeric>

#include "common/contract.h"

namespace fuzzydb {

RankedGrades::RankedGrades(std::vector<double> grades, ObjectId first_id,
                           std::string label)
    : grades_(std::move(grades)),
      first_id_(first_id),
      label_(std::move(label)) {
  FUZZYDB_DCHECK(grades_.size() <= kMaxRows, "too many rows to rank");
}

RankedGrades::RankedGrades(std::vector<double> grades,
                           std::vector<ObjectId> ids, std::string label)
    : RankedGrades(std::move(grades), 0, std::move(label)) {
  FUZZYDB_DCHECK(ids.size() == grades_.size(), "one id per row");
  row_of_.reserve(ids.size());
  for (size_t row = 0; row < ids.size(); ++row) {
    row_of_.emplace(ids[row], static_cast<uint32_t>(row));
  }
  ids_ = std::move(ids);
}

template <typename Stop>
void RankedGrades::RankUntil(Stop stop) {
  // The comparator says "a ranks after b" under GradeDescending; with affine
  // ids, id order is row order.
  const double* g = grades_.data();
  auto rank = [&](auto ranks_after) {
    if (rows_.size() != grades_.size()) {
      rows_.resize(grades_.size());
      std::iota(rows_.begin(), rows_.end(), 0u);
      std::make_heap(rows_.begin(), rows_.end(), ranks_after);
      heap_end_ = rows_.size();
    }
    while (heap_end_ > 0 && !stop()) {
      std::pop_heap(rows_.begin(), rows_.begin() + heap_end_, ranks_after);
      --heap_end_;
    }
  };
  if (ids_.empty()) {
    rank([g](uint32_t a, uint32_t b) {
      return g[a] != g[b] ? g[a] < g[b] : a > b;
    });
  } else {
    const ObjectId* id = ids_.data();
    rank([g, id](uint32_t a, uint32_t b) {
      return g[a] != g[b] ? g[a] < g[b] : id[a] > id[b];
    });
  }
}

std::optional<GradedObject> RankedGrades::NextSorted() {
  if (cursor_ == ranked()) RankUntil([this] { return ranked() > cursor_; });
  if (cursor_ == ranked()) return std::nullopt;
  const uint32_t row = rows_[rows_.size() - 1 - cursor_++];
  return GradedObject{IdOf(row), grades_[row]};
}

double RankedGrades::RandomAccess(ObjectId id) {
  if (ids_.empty()) {
    if (id < first_id_ || id - first_id_ >= grades_.size()) return 0.0;
    return grades_[id - first_id_];
  }
  auto it = row_of_.find(id);
  return it == row_of_.end() ? 0.0 : grades_[it->second];
}

std::vector<GradedObject> RankedGrades::AtLeast(double threshold) {
  // Afterwards every unranked grade is below the threshold.
  RankUntil([&] { return !(grades_[rows_[0]] >= threshold); });
  std::vector<GradedObject> out;
  for (size_t i = 0; i < ranked(); ++i) {
    const uint32_t row = rows_[rows_.size() - 1 - i];
    if (!(grades_[row] >= threshold)) break;
    out.push_back({IdOf(row), grades_[row]});
  }
  return out;
}

}  // namespace fuzzydb
