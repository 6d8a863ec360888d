#ifndef WSQ_BENCH_BENCH_UTIL_H_
#define WSQ_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wsq/api.h"
#include "wsq/common/flags.h"

namespace wsq::bench {

/// Command-line session for bench binaries: execution parallelism,
/// observability, chaos and codec selection, and the machine-readable
/// perf summary. One FlagTable parse covers these standard flags and the
/// bench's own (`bench_flags`); `--help` lists them all, and a bad
/// command line exits 2 with the usage.
///
/// When an observability flag is present a RunObserver over the global
/// metrics registry and a private tracer is installed as the
/// process-global observer, so every backend run the bench performs
/// emits into it with zero bench-specific plumbing. Without flags the
/// global observer stays null and the bench output is byte-identical to
/// an unobserved binary.
class BenchSession {
 public:
  BenchSession(int argc, char** argv, FlagTable bench_flags = FlagTable())
      : bench_name_(Basename(argc > 0 ? argv[0] : "bench")),
        start_(std::chrono::steady_clock::now()),
        jobs_(exec::ThreadPool::HardwareConcurrency()) {
    bench_flags
        .Add("jobs", &jobs_, "run lanes; 1 = serial (same figures either way)")
        .Add("bench-json", &bench_json_path_, "write a BENCH_*.json at exit")
        .Add("metrics-out", &metrics_path_,
             "write a metrics snapshot at exit (.json, .csv, else text)")
        .Add("trace-out", &trace_path_,
             "write the run trace at exit (.jsonl, else Chrome JSON)")
        .Add("fault-plan", &fault_plan_,
             "FaultPlan preset scripted into every run; none = off")
        .Add("max-retries", &max_retries_,
             "chaos retry budget; -1 = the preset's")
        .Add("breaker-threshold", &breaker_threshold_,
             "chaos breaker threshold; 0 = off, -1 = the preset's")
        .Add("codec", &codec_name_, "block codec: soap, binary or binary+lz");
    ParseFlagsOrExit(bench_flags, argc, argv);
    if (!codec_name_.empty()) {
      Result<codec::CodecChoice> parsed =
          codec::CodecChoice::FromName(codec_name_);
      if (!parsed.ok()) {
        std::fprintf(stderr, "invalid --codec=%s; using soap\n",
                     codec_name_.c_str());
        codec_name_.clear();
      } else {
        codec_ = parsed.value();
      }
    }
    if (jobs_ < 1) {
      std::fprintf(stderr, "invalid --jobs=%d; using 1\n", jobs_);
      jobs_ = 1;
    }
    exec::SetDefaultJobs(jobs_);

    if (!bench_json_path_.empty()) {
      timings_ = std::make_unique<exec::RunTimings>();
      exec::SetGlobalRunTimings(timings_.get());
    }
    if (!metrics_path_.empty() || !trace_path_.empty()) {
      tracer_ = std::make_unique<Tracer>();
      observer_ = std::make_unique<RunObserver>(
          metrics_path_.empty() ? nullptr : &MetricsRegistry::Global(),
          trace_path_.empty() ? nullptr : tracer_.get());
      SetGlobalRunObserver(observer_.get());
    }
  }

  ~BenchSession() {
    if (observer_ != nullptr) {
      SetGlobalRunObserver(nullptr);
      if (!metrics_path_.empty()) {
        Report(MetricsRegistry::Global().WriteFile(metrics_path_), "metrics",
               metrics_path_);
      }
      if (!trace_path_.empty()) {
        const bool jsonl = EndsWith(trace_path_, ".jsonl");
        Report(jsonl ? tracer_->WriteJsonl(trace_path_)
                     : tracer_->WriteChromeJson(trace_path_),
               "trace", trace_path_);
      }
    }
    if (timings_ != nullptr) {
      ClosePhase();
      exec::SetGlobalRunTimings(nullptr);
      if (!phases_.empty()) {
        // Multi-phase bench: one composite {"reports":[...]} document,
        // one entry per phase, named "<bench>/<phase>".
        std::vector<std::pair<exec::BenchReport, const exec::RunTimings*>>
            entries;
        entries.reserve(phases_.size());
        for (const std::unique_ptr<Phase>& phase : phases_) {
          exec::BenchReport report;
          report.bench = bench_name_ + "/" + phase->name;
          report.jobs = jobs_;
          report.hardware_concurrency = exec::ThreadPool::HardwareConcurrency();
          report.wall_time_s = phase->wall_s;
          entries.emplace_back(std::move(report), phase->timings.get());
        }
        Report(exec::WriteCompositeBenchReport(bench_json_path_, entries),
               "bench summary", bench_json_path_);
      } else {
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start_;
        exec::BenchReport report;
        report.bench = bench_name_;
        report.jobs = jobs_;
        report.hardware_concurrency = exec::ThreadPool::HardwareConcurrency();
        report.wall_time_s = wall.count();
        Report(exec::WriteBenchReport(bench_json_path_, report, *timings_),
               "bench summary", bench_json_path_);
      }
    }
  }

  /// Begins a named bench phase. With --bench-json, each phase collects
  /// its own RunTimings and wall-clock window, and the exit summary
  /// becomes the composite {"schema_version":1,"reports":[...]} form
  /// with one entry "<bench>/<phase>" per phase (the flat single-report
  /// form when no phase was ever begun). The previous phase, if any,
  /// ends here; without --bench-json this is a no-op.
  void BeginPhase(const std::string& name) {
    if (timings_ == nullptr) return;
    ClosePhase();
    auto phase = std::make_unique<Phase>();
    phase->name = name;
    phase->start = std::chrono::steady_clock::now();
    phase->timings = std::make_unique<exec::RunTimings>();
    exec::SetGlobalRunTimings(phase->timings.get());
    phases_.push_back(std::move(phase));
  }

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  int jobs() const { return jobs_; }

  /// Chaos flags. fault_plan() is empty (or "none") when chaos mode is
  /// off; max_retries()/breaker_threshold() are -1 when not overridden.
  const std::string& fault_plan() const { return fault_plan_; }
  int max_retries() const { return max_retries_; }
  int breaker_threshold() const { return breaker_threshold_; }

  /// The block wire codec --codec selected (SOAP when the flag is
  /// absent or unparsable — the historical default).
  const codec::CodecChoice& wire_codec() const { return codec_; }

  /// True when --trace-out was given: live benches then negotiate
  /// trace-context propagation so the exported trace carries the
  /// server-side spans alongside the client ones.
  bool tracing_requested() const { return !trace_path_.empty(); }

  /// The resilience configuration the chaos flags describe: Chaos()
  /// with any --max-retries / --breaker-threshold overrides applied.
  ResilienceConfig ChaosResilience() const {
    ResilienceConfig config = ResilienceConfig::Chaos();
    if (max_retries_ >= 0) config.max_retries_per_call = max_retries_;
    if (breaker_threshold_ >= 0) config.breaker_threshold = breaker_threshold_;
    return config;
  }

 private:
  struct Phase {
    std::string name;
    std::chrono::steady_clock::time_point start;
    double wall_s = 0.0;
    std::unique_ptr<exec::RunTimings> timings;
  };

  /// Stamps the open phase's wall window and restores the session-level
  /// timing sink (so out-of-phase runs still land somewhere).
  void ClosePhase() {
    if (phases_.empty() || phases_.back()->wall_s > 0.0) return;
    Phase& phase = *phases_.back();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - phase.start;
    phase.wall_s = wall.count();
    exec::SetGlobalRunTimings(timings_.get());
  }

  static std::string Basename(const std::string& path) {
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }

  static bool EndsWith(const std::string& s, const char* suffix) {
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
  }

  static void Report(const Status& status, const char* what,
                     const std::string& path) {
    if (status.ok()) {
      std::fprintf(stderr, "(%s written to %s)\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "%s write failed: %s\n", what,
                   status.ToString().c_str());
    }
  }

  std::string bench_name_;
  std::chrono::steady_clock::time_point start_;
  int jobs_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string bench_json_path_;
  std::string fault_plan_;
  std::string codec_name_;
  codec::CodecChoice codec_;
  int max_retries_ = -1;
  int breaker_threshold_ = -1;
  std::unique_ptr<exec::RunTimings> timings_;
  std::vector<std::unique_ptr<Phase>> phases_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<RunObserver> observer_;
};

inline SimOptions OptionsFor(const ConfiguredProfile& conf,
                             uint64_t seed = 11) {
  SimOptions options;
  options.noise_amplitude = conf.noise_amplitude;
  options.seed = seed;
  return options;
}

inline GroundTruth GroundTruthFor(const ConfiguredProfile& conf, int runs = 5,
                                  int64_t grid_step = 500) {
  Result<GroundTruth> gt = ComputeGroundTruth(
      *conf.profile, conf.limits, grid_step, runs, OptionsFor(conf, 3));
  if (!gt.ok()) {
    std::fprintf(stderr, "ground truth failed: %s\n",
                 gt.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(gt).value();
}

/// Prints a standard bench header.
inline void PrintHeader(const std::string& id, const std::string& what,
                        const std::string& paper_expectation) {
  std::printf("==== %s ====\n%s\n", id.c_str(), what.c_str());
  std::printf("paper expectation: %s\n\n", paper_expectation.c_str());
}

/// When WSQ_BENCH_CSV_DIR is set, writes `csv` to <dir>/<name>.csv so the
/// series behind a figure can be plotted externally.
inline void MaybeDumpCsv(const CsvWriter& csv, const std::string& name) {
  const char* dir = std::getenv("WSQ_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  Status status = csv.WriteToFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "csv dump failed: %s\n",
                 status.ToString().c_str());
  } else {
    std::printf("(series dumped to %s)\n", path.c_str());
  }
}

/// Renders mean decisions per adaptivity step as a compact series,
/// sampling every `stride` steps.
inline std::string DecisionSeries(const std::vector<double>& decisions,
                                  size_t stride) {
  std::string out;
  for (size_t i = 0; i < decisions.size(); i += stride) {
    if (!out.empty()) out += ' ';
    out += FormatDouble(decisions[i], 0);
  }
  return out;
}

}  // namespace wsq::bench

#endif  // WSQ_BENCH_BENCH_UTIL_H_
