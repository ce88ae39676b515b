// Shared pieces of the benchmark harness: run arguments, the clock, sample
// statistics, the metric sink, host facts, and the synthetic row generator
// the paged workloads ingest.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "storage/paged_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the clock QueryServer stamps
/// ServedResult::completed_at with, so the two compare directly).
inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline int64_t NowNs() { return ToNs(Clock::now()); }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Command-line arguments of one harness process (one workload, one run).
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for column files and the span dump; created by the caller.
  std::string scratch;
  /// "full" (the frozen benchmark sizes) or "tiny" (self-test sizes).
  std::string scale = "full";
  /// Self-test hook: flip one bit of one reference answer so the checker
  /// must report a failed operation.
  bool perturb_reference = false;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Median of `v`: the mean of the two middle values when their count is
/// even (0 when empty).
double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1] (0 when empty).
double Percentile(std::vector<double> v, double q);
/// Mean of `v` (0 when empty).
double Mean(const std::vector<double>& v);

/// Named metrics with units, printed as the harness's result line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": u}, ...}
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Host facts stamped on every result: nproc, SIMD level, build type.
std::string HostFactsJson();

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double PeakRssMb();

/// Per-dimension scales decaying like an eigenbasis embedding's spectrum,
/// so the cascade's prefix bounds have the structure they were built for.
std::vector<double> Spectrum(size_t dim);

/// One synthetic row: uniform in [-s_j, s_j] per dimension.
void SyntheticRow(fuzzydb::Rng* rng, const std::vector<double>& spectrum,
                  std::span<double> row);

/// Upper bound of the distance between two synthetic rows (the grade map's
/// d_max for sources over synthetic rows).
double SyntheticMaxDistance(const std::vector<double>& spectrum);

/// Set-up of a paged workload, repeated kSetupReps times: stream `n`
/// synthetic rows of `dim` doubles (seeded by `seed`) through
/// ColumnFileWriter into `path`, Finish, then PagedEmbeddingStore::Open
/// behind a `pool_bytes` pool. The last store stays open; the figures are
/// medians over the repetitions.
struct PagedSetup {
  std::unique_ptr<fuzzydb::storage::PagedEmbeddingStore> store;
  double setup_s = 0.0;  ///< ingest + Finish + Open.
  double ingest_rows_per_s = 0.0;
  double open_ms = 0.0;
};
PagedSetup SetUpPagedStore(const std::string& path, size_t n, size_t dim,
                           size_t pool_bytes, uint64_t seed);

/// Unlinks `path` when the process ends: at normal exit, on exit() after
/// an error, and on SIGINT / SIGTERM. Holds up to four paths.
void RemoveAtExit(const std::string& path);

/// Seconds taken by `fn`.
double TimeSeconds(const std::function<void()>& fn);

/// Exits the process with a message when `status` is not OK. The harness
/// treats any set-up or I/O error as a broken run, never as a result.
void CheckOk(const fuzzydb::Status& status, const char* what);

template <typename T>
T Checked(fuzzydb::Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
