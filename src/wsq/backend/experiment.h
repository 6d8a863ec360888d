#ifndef WSQ_BACKEND_EXPERIMENT_H_
#define WSQ_BACKEND_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wsq/backend/query_backend.h"
#include "wsq/common/status.h"
#include "wsq/control/controller_factory.h"
#include "wsq/sim/sim_engine.h"
#include "wsq/stats/running_stats.h"

namespace wsq {

/// Aggregate of repeated runs of one controller on one backend.
struct RepeatedRunSummary {
  std::string controller_name;
  /// Query response time across runs.
  RunningStats total_time_ms;
  /// Mean commanded block size at each adaptivity step, averaged across
  /// runs (the y-values of paper Figs. 4-9); truncated to the shortest
  /// run so every step has all runs contributing.
  std::vector<double> mean_decision_per_step;
  /// Final block size at the end of each run.
  RunningStats final_block_size;

  /// Chaos aggregates across runs (all zero without a fault plan):
  /// retried exchanges, their dead time, injected faults, breaker trips.
  int64_t total_retries = 0;
  RunningStats retry_time_ms;
  int64_t faults_injected = 0;
  int64_t breaker_trips = 0;

  /// total_time mean divided by `optimum_ms` — the paper's normalized
  /// response time (1.0 = post-mortem optimum).
  double NormalizedMean(double optimum_ms) const;
};

/// Runs `runs` independent queries of `make_controller()` on `backend`,
/// varying the per-run seed from `base_seed`. Works with any
/// QueryBackend — profile-driven, event-driven, or the full empirical
/// stack — so the same controller factory can be cross-validated on all
/// three through one code path.
///
/// Executes through the parallel experiment engine (`wsq/exec/`): with
/// exec::DefaultJobs() > 1 (what the bench `--jobs` flag sets) the runs
/// fan out over backend clones, one lane each; the summary is
/// byte-identical to the serial path whatever the lane count, because
/// per-run seeds and the fold order never depend on it.
Result<RepeatedRunSummary> RunRepeated(const ControllerFactoryFn& make_controller,
                                       QueryBackend& backend, int runs,
                                       uint64_t base_seed = 1);

/// Same, but `proto_spec` seeds every per-run RunSpec — the way to
/// thread a FaultPlan / ResilienceConfig (or an observer) through
/// repeated runs. Per-run seeds still derive from `base_seed`;
/// proto_spec.seed is ignored. Schedule fields must be unset (use
/// RunRepeatedSchedule). Pointed-to plan/config must outlive the call.
Result<RepeatedRunSummary> RunRepeated(const ControllerFactoryFn& make_controller,
                                       QueryBackend& backend,
                                       const RunSpec& proto_spec, int runs,
                                       uint64_t base_seed = 1);

/// Same but over a profile schedule of fixed total steps (Fig. 8);
/// requires backend.SupportsSchedules().
Result<RepeatedRunSummary> RunRepeatedSchedule(
    const ControllerFactoryFn& make_controller, QueryBackend& backend,
    const std::vector<const ResponseProfile*>& schedule,
    int64_t steps_per_profile, int64_t total_steps, int runs,
    uint64_t base_seed = 1);

/// Compatibility overloads predating QueryBackend: run on a
/// ProfileBackend built from `profile`/`options` (seeded from
/// options.seed). Behavior and per-run seeds are unchanged from the old
/// SimEngine-only harness.
Result<RepeatedRunSummary> RunRepeated(const ControllerFactoryFn& make_controller,
                                       const ResponseProfile& profile,
                                       int runs, const SimOptions& options);

Result<RepeatedRunSummary> RunRepeatedSchedule(
    const ControllerFactoryFn& make_controller,
    const std::vector<const ResponseProfile*>& schedule,
    int64_t steps_per_profile, int64_t total_steps, int runs,
    const SimOptions& options);

}  // namespace wsq

#endif  // WSQ_BACKEND_EXPERIMENT_H_
