#include "catalog/subobject.h"

#include <algorithm>

namespace fuzzydb {

Status SubobjectMapping::Add(ObjectId parent, ObjectId component) {
  auto& comps = components_of_[parent];
  if (std::find(comps.begin(), comps.end(), component) != comps.end()) {
    return Status::AlreadyExists("component already attached to parent");
  }
  if (comps.empty()) parent_order_.push_back(parent);
  comps.push_back(component);
  parents_of_[component].push_back(parent);
  ++num_pairs_;
  return Status::OK();
}

std::vector<ObjectId> SubobjectMapping::ComponentsOf(ObjectId parent) const {
  auto it = components_of_.find(parent);
  return it == components_of_.end() ? std::vector<ObjectId>{} : it->second;
}

std::vector<ObjectId> SubobjectMapping::ParentsOf(ObjectId component) const {
  auto it = parents_of_.find(component);
  return it == parents_of_.end() ? std::vector<ObjectId>{} : it->second;
}

Result<SubobjectSource> SubobjectSource::Create(
    GradedSource* inner, const SubobjectMapping* mapping,
    ScoringRulePtr combiner, std::string label) {
  if (inner == nullptr) return Status::InvalidArgument("null inner source");
  if (mapping == nullptr) return Status::InvalidArgument("null mapping");
  if (combiner == nullptr) return Status::InvalidArgument("null combiner");

  // One pass of sorted access over the component source collects every
  // component's grade; unknown components keep grade 0.
  std::unordered_map<ObjectId, double> component_grades;
  inner->RestartSorted();
  while (std::optional<GradedObject> next = inner->NextSorted()) {
    component_grades.emplace(next->id, next->grade);
  }
  inner->RestartSorted();

  const std::vector<ObjectId>& parents = mapping->parents();
  std::vector<double> grades(parents.size());
  std::vector<double> scores;
  for (size_t i = 0; i < parents.size(); ++i) {
    scores.clear();
    for (ObjectId component : mapping->ComponentsOf(parents[i])) {
      auto it = component_grades.find(component);
      scores.push_back(it == component_grades.end() ? 0.0 : it->second);
    }
    grades[i] = scores.empty() ? 0.0 : combiner->Apply(scores);
  }
  return SubobjectSource(std::move(grades), parents, std::move(label));
}

}  // namespace fuzzydb
