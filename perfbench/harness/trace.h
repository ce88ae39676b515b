// Spans recorded by the benchmark around its calls into each layer's public
// functions. A span has a name, start and end on the steady clock, the
// index of the span that caused it (-1 for a root) and the request it
// belongs to. Spans stay in memory and are written once, when the run ends.

#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

class Trace {
 public:
  /// Appends a span and returns its index (the handle children name as
  /// their parent).
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request);

  /// Durations in ms of every span called `name` whose request id lies in
  /// [first_request, end_request).
  std::vector<double> DurationsMs(const std::string& name,
                                  uint64_t first_request = 0,
                                  uint64_t end_request = UINT64_MAX) const;

  /// Self times in ms of the same spans: each one's duration minus the part
  /// of its interval covered by its children.
  std::vector<double> SelfTimesMs(const std::string& name,
                                  uint64_t first_request = 0,
                                  uint64_t end_request = UINT64_MAX) const;

  /// Writes every span as one JSON document to `path` (host facts first).
  bool Write(const std::string& path, const std::string& host_json) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
