#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <variant>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RowChecksum::Fold(const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

void RowChecksum::Add(const wsq::Tuple& row) {
  for (const wsq::Value& value : row.values()) {
    if (const auto* i = std::get_if<int64_t>(&value)) {
      Fold(i, sizeof(*i));
    } else if (const auto* d = std::get_if<double>(&value)) {
      const int64_t cents = std::llround(*d * 100.0);
      Fold(&cents, sizeof(cents));
    } else {
      const std::string& s = std::get<std::string>(value);
      const uint64_t len = s.size();
      Fold(&len, sizeof(len));
      Fold(s.data(), s.size());
    }
  }
  ++rows_;
}

void Samples::Add(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (values_.size() < kKeep) values_.push_back(value);
  ++count_;
  sum_ += value;
}

void Samples::AddAll(const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t room = kKeep - std::min(kKeep, values_.size());
  values_.insert(values_.end(), values.begin(),
                 values.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(room, values.size())));
  count_ += static_cast<int64_t>(values.size());
  for (double v : values) sum_ += v;
}

int64_t Samples::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Samples::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

std::vector<double> Samples::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
