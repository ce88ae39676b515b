#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "common/simd_dispatch.h"
#include "common/thread_pool.h"
#include "storage/column_file.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  // Even count: the mean of the two middle values.
  const double upper = v[mid];
  return (upper + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Metrics::Json() const {
  std::ostringstream out;
  out << std::setprecision(10) << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << entries_[i].name << "\": {\"value\": " << entries_[i].value
        << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::string HostFactsJson() {
  std::ostringstream out;
  out << "{\"nproc\": " << fuzzydb::ThreadPool::HardwareConcurrency()
      << ", \"simd\": \""
      << fuzzydb::simd::Name(fuzzydb::simd::Active())
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::vector<double> Spectrum(size_t dim) {
  std::vector<double> s(dim);
  for (size_t j = 0; j < dim; ++j) {
    s[j] = std::exp(-0.18 * static_cast<double>(j));
  }
  return s;
}

void SyntheticRow(fuzzydb::Rng* rng, const std::vector<double>& spectrum,
                  std::span<double> row) {
  for (size_t j = 0; j < row.size(); ++j) {
    row[j] = (2.0 * rng->NextDouble() - 1.0) * spectrum[j];
  }
}

double SyntheticMaxDistance(const std::vector<double>& spectrum) {
  double sum = 0.0;
  for (double s : spectrum) sum += 4.0 * s * s;
  return std::sqrt(sum);
}

PagedSetup SetUpPagedStore(const std::string& path, size_t n, size_t dim,
                           size_t pool_bytes, uint64_t seed) {
  const std::vector<double> spectrum = Spectrum(dim);
  fuzzydb::storage::PagedStoreOptions store_options;
  store_options.pool_bytes = pool_bytes;
  PagedSetup out;
  std::vector<double> setup, ingest, open;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    out.store.reset();
    std::remove(path.c_str());
    fuzzydb::Rng rng(seed);
    std::vector<double> row(dim);
    const double ingest_s = TimeSeconds([&] {
      fuzzydb::storage::ColumnFileOptions file_options;
      file_options.metadata = spectrum;
      auto writer = Checked(
          fuzzydb::storage::ColumnFileWriter::Create(path, dim, file_options),
          "column file writer");
      for (size_t i = 0; i < n; ++i) {
        SyntheticRow(&rng, spectrum, row);
        CheckOk(writer->AppendRow(row), "append row");
      }
      CheckOk(writer->Finish(), "finish column file");
    });
    const double open_s = TimeSeconds([&] {
      out.store = Checked(
          fuzzydb::storage::PagedEmbeddingStore::Open(path, store_options),
          "open paged store");
    });
    ingest.push_back(ingest_s);
    open.push_back(open_s);
    setup.push_back(ingest_s + open_s);
  }
  out.setup_s = Median(setup);
  out.ingest_rows_per_s = static_cast<double>(n) / Median(ingest);
  out.open_ms = Median(open) * 1e3;
  return out;
}

double TimeSeconds(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

constexpr int kMaxExitFiles = 4;
char g_exit_files[kMaxExitFiles][4096];
// Read by the signal handler; written only before any client thread starts.
volatile std::sig_atomic_t g_exit_file_count = 0;

void UnlinkExitFiles() {
  for (int i = 0; i < g_exit_file_count; ++i) unlink(g_exit_files[i]);
}

void OnSignal(int sig) {
  UnlinkExitFiles();  // unlink is async-signal-safe
  _exit(128 + sig);
}

}  // namespace

void RemoveAtExit(const std::string& path) {
  if (g_exit_file_count == 0) {
    std::atexit(UnlinkExitFiles);
    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);
  }
  if (g_exit_file_count >= kMaxExitFiles ||
      path.size() >= sizeof(g_exit_files[0])) {
    std::fprintf(stderr, "perfbench: cannot register %s\n", path.c_str());
    std::exit(3);
  }
  std::snprintf(g_exit_files[g_exit_file_count], sizeof(g_exit_files[0]),
                "%s", path.c_str());
  g_exit_file_count = g_exit_file_count + 1;
}

void CheckOk(const fuzzydb::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(3);
}

}  // namespace perfbench
