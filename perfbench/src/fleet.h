// The fleet workload: whole co-scheduled fleet worlds simulated back to
// back, each world on its own seed.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "wsq/api.h"

namespace perfbench {

/// One fleet to simulate repeatedly, and over how many lanes.
struct FleetWorkload {
  wsq::fleet::FleetWorldConfig world;
  wsq::fleet::FleetSpec spec;
  int jobs = 1;
};

/// fleet-sim: a mixed-adaptive fleet of 1,024 tenants (hybrid, mimd and
/// self_tuning thirds), the largest mix bench_fleet_tenancy runs scaled
/// up four times, at one lane per core.
FleetWorkload MixedAdaptiveFleet();

/// A fleet shaped like a live workload: `tenants` tenants that each
/// drain `tuples` rows under `controller`. The live workloads replay the
/// fleet layer on it.
FleetWorkload ShapedFleet(const std::string& controller, int tenants,
                          int64_t tuples);

/// Worlds whose simulated outcome feeds the sim metrics: always the
/// first ones of the seed's world sequence, so those metrics repeat
/// exactly at a fixed seed however many worlds a run gets through.
inline constexpr int64_t kOutcomeWorlds = 16;

/// What a stretch of fleet simulation did.
struct FleetLoop {
  /// Wall seconds spent inside the simulator (batch or lane time).
  double wall_s = 0.0;
  /// Tenant queries per wall second of each RunFleetRepeated batch.
  std::vector<double> batch_rate;
  int64_t worlds = 0;
  int64_t failed = 0;
  int64_t tenant_queries = 0;
  int64_t blocks = 0;
  /// Per-world wall ms and summed lane busy time (lane runs only).
  std::vector<double> world_ms;
  double lane_busy_s = 0.0;
  int lanes = 1;
  /// Simulated tenant response times and Jain indices of the outcome
  /// worlds, and the wall time AnalyzeFleet took on them.
  std::vector<double> tenant_ms;
  std::vector<double> jain;
  std::vector<double> analytics_ms;
  std::string first_error;
};

/// Simulates worlds through fleet::RunFleetRepeated, one batch of
/// 2 x jobs worlds at a time, until `seconds` have passed and the
/// outcome worlds are done. World w runs on seed base_seed + w * 104729
/// (RunFleetRepeated's stride); `next_world` carries w across calls.
FleetLoop RunFleetBatches(const FleetWorkload& workload, uint64_t base_seed,
                          double seconds, int64_t* next_world);

/// The same worlds, but each lane of an exec::ThreadPool builds the
/// tenants and calls fleet::RunFleetWorld itself, so a non-null `log`
/// can wrap every tenant controller in a TimedController.
FleetLoop RunFleetLanes(const FleetWorkload& workload, uint64_t base_seed,
                        double seconds, LayerLog* log, int64_t* next_world);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
