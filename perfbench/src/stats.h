// Small numeric and output helpers shared by the perfbench workloads.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "wsq/relation/tuple.h"

namespace perfbench {

/// Nanoseconds on the steady clock since an arbitrary process epoch.
int64_t NowNs();

/// Seconds elapsed since `start_ns` (a NowNs() stamp).
double SecondsSince(int64_t start_ns);

/// Linear-interpolated quantile (q in [0, 1]) of `values`, which it
/// sorts in place; 0 for an empty vector.
double Quantile(std::vector<double>* values, double q);

double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Order-sensitive FNV-1a checksum over rows. Doubles are folded in at
/// cent precision, the precision the SOAP text codec carries them at,
/// so a row checksums the same whichever codec delivered it.
class RowChecksum {
 public:
  void Add(const wsq::Tuple& row);
  uint64_t value() const { return hash_; }
  int64_t rows() const { return rows_; }

 private:
  void Fold(const void* data, size_t len);

  uint64_t hash_ = 14695981039346656037ull;
  int64_t rows_ = 0;
};

/// Thread-safe sample collector; callers batch locally and append in
/// bulk where they can, so the lock is taken rarely. Count and sum cover
/// every sample; only the first kKeep values are kept for quantiles, which
/// bounds memory on the fleet workload's tens of millions of steps.
class Samples {
 public:
  static constexpr size_t kKeep = 1u << 20;

  void Add(double value);
  void AddAll(const std::vector<double>& values);
  std::vector<double> Snapshot() const;
  int64_t count() const;
  double sum() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
  int64_t count_ = 0;
  double sum_ = 0.0;
};

/// One printed metric: name, value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints each metric as a human-readable line, then the result object
/// the benchmark contract asks for as the last line of stdout.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
