#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

int64_t Trace::Add(std::string name, int64_t start_ns, int64_t end_ns,
                   int64_t parent, uint64_t request) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Trace::DurationsMs(const std::string& name,
                                       uint64_t first_request,
                                       uint64_t end_request) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name || s.request < first_request ||
        s.request >= end_request) {
      continue;
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::vector<double> Trace::SelfTimesMs(const std::string& name,
                                       uint64_t first_request,
                                       uint64_t end_request) const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.request < first_request ||
        s.request >= end_request) {
      continue;
    }
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6);
  }
  return out;
}

bool Trace::Write(const std::string& path, const std::string& host_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"host\": " << host_json << ", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
