#include "fleet.h"

#include <algorithm>
#include <atomic>
#include <mutex>

namespace perfbench {
namespace {

constexpr uint64_t kSeedStride = 104729;  // RunFleetRepeated's run stride

/// The world oracle: the trace's own invariants, plus every tenant
/// drained exactly its query.
wsq::Status CheckWorld(const FleetWorkload& workload,
                       const wsq::fleet::FleetTrace& fleet) {
  WSQ_RETURN_IF_ERROR(fleet.CheckConsistent());
  if (static_cast<int>(fleet.tenants.size()) != workload.spec.TenantCount()) {
    return wsq::Status::Internal("fleet world lost tenants");
  }
  for (const wsq::fleet::TenantTrace& lane : fleet.tenants) {
    if (lane.trace.total_tuples != workload.spec.tuples_per_tenant) {
      return wsq::Status::Internal("tenant " + lane.tenant + " drained " +
                                   std::to_string(lane.trace.total_tuples) +
                                   " tuples");
    }
  }
  return wsq::Status::Ok();
}

int64_t Blocks(const wsq::fleet::FleetTrace& fleet) {
  int64_t blocks = 0;
  for (const wsq::fleet::TenantTrace& lane : fleet.tenants) {
    blocks += lane.trace.total_blocks;
  }
  return blocks;
}

/// Folds one simulated world into `out`: verification, counts, and the
/// outcome metrics when it is one of the outcome worlds.
void Fold(const FleetWorkload& workload, int64_t world,
          const wsq::fleet::FleetTrace& fleet, FleetLoop* out) {
  ++out->worlds;
  if (wsq::Status s = CheckWorld(workload, fleet); !s.ok()) {
    ++out->failed;
    if (out->first_error.empty()) out->first_error = s.ToString();
    return;
  }
  out->tenant_queries += static_cast<int64_t>(fleet.tenants.size());
  out->blocks += Blocks(fleet);
  if (world >= kOutcomeWorlds) return;
  for (const wsq::fleet::TenantTrace& lane : fleet.tenants) {
    out->tenant_ms.push_back(lane.trace.total_time_ms);
  }
  const int64_t start = NowNs();
  const wsq::fleet::FleetAnalytics analytics = wsq::fleet::AnalyzeFleet(fleet);
  out->analytics_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  out->jain.push_back(analytics.jain_index);
}

}  // namespace

FleetWorkload MixedAdaptiveFleet() {
  FleetWorkload workload;
  // bench_fleet_tenancy's world: service-dominated blocks, so tenants
  // contend for the server rather than idling on the wire.
  workload.world.one_way_latency_ms = 5.0;
  workload.world.bandwidth_mbps = 50.0;
  workload.world.load.per_tuple_cpu_ms = 0.03;
  constexpr int kTenants = 1024;
  constexpr int kThird = kTenants / 3;
  workload.spec.mix = {{"hybrid", kTenants - 2 * kThird},
                       {"mimd", kThird},
                       {"self_tuning", kThird}};
  workload.spec.tuples_per_tenant = 20000;
  workload.spec.arrival = wsq::fleet::ArrivalProcess::kJittered;
  workload.spec.stagger_interval_ms = 2.0;
  workload.spec.arrival_jitter_ms = 10.0;
  workload.jobs = wsq::exec::ThreadPool::HardwareConcurrency();
  return workload;
}

FleetWorkload ShapedFleet(const std::string& controller, int tenants,
                          int64_t tuples) {
  FleetWorkload workload = MixedAdaptiveFleet();
  workload.spec.mix = {{controller, tenants}};
  workload.spec.tuples_per_tenant = tuples;
  workload.spec.arrival = wsq::fleet::ArrivalProcess::kSimultaneous;
  return workload;
}

FleetLoop RunFleetBatches(const FleetWorkload& workload, uint64_t base_seed,
                          double seconds, int64_t* next_world) {
  FleetLoop out;
  out.lanes = workload.jobs;
  const int batch = 2 * workload.jobs;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline || *next_world < kOutcomeWorlds) {
    const int64_t first = *next_world;
    const int64_t start = NowNs();
    wsq::Result<std::vector<wsq::fleet::FleetTrace>> fleets =
        wsq::fleet::RunFleetRepeated(
            workload.world, workload.spec, batch,
            base_seed + static_cast<uint64_t>(first) * kSeedStride,
            workload.jobs);
    const double batch_s = SecondsSince(start);
    out.wall_s += batch_s;
    *next_world += batch;
    if (!fleets.ok()) {
      out.worlds += batch;
      out.failed += batch;
      if (out.first_error.empty()) out.first_error = fleets.status().ToString();
      continue;
    }
    const int64_t queries_before = out.tenant_queries;
    for (int r = 0; r < batch; ++r) {
      Fold(workload, first + r, fleets.value()[static_cast<size_t>(r)], &out);
    }
    out.batch_rate.push_back(
        static_cast<double>(out.tenant_queries - queries_before) / batch_s);
  }
  return out;
}

FleetLoop RunFleetLanes(const FleetWorkload& workload, uint64_t base_seed,
                        double seconds, LayerLog* log, int64_t* next_world) {
  FleetLoop out;
  out.lanes = workload.jobs;
  std::mutex mu;  // guards `out`
  std::atomic<int64_t> next{*next_world};
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  {
    wsq::exec::ThreadPool pool(workload.jobs);
    for (int lane = 0; lane < workload.jobs; ++lane) {
      pool.Submit([&] {
        while (NowNs() < deadline) {
          const int64_t world = next.fetch_add(1);
          const uint64_t seed =
              base_seed + static_cast<uint64_t>(world) * kSeedStride;
          const int64_t t0 = NowNs();
          wsq::Result<std::vector<wsq::fleet::TenantSpec>> tenants =
              workload.spec.BuildTenants(seed);
          wsq::Result<wsq::fleet::FleetTrace> fleet =
              wsq::Status::Internal("unset");
          if (tenants.ok()) {
            if (log != nullptr) {
              for (wsq::fleet::TenantSpec& tenant : tenants.value()) {
                wsq::ControllerFactoryFn inner = std::move(tenant.factory);
                tenant.factory = [inner, log]()
                    -> std::unique_ptr<wsq::Controller> {
                  std::unique_ptr<wsq::Controller> made = inner();
                  if (made == nullptr) return nullptr;
                  return std::make_unique<TimedController>(std::move(made),
                                                           log, -1);
                };
              }
            }
            wsq::fleet::FleetWorldConfig config = workload.world;
            config.seed = seed;
            fleet = wsq::fleet::RunFleetWorld(config, tenants.value());
          } else {
            fleet = tenants.status();
          }
          const double world_ms = static_cast<double>(NowNs() - t0) * 1e-6;
          std::lock_guard<std::mutex> lock(mu);
          out.world_ms.push_back(world_ms);
          out.lane_busy_s += world_ms * 1e-3;
          if (fleet.ok()) {
            Fold(workload, world, fleet.value(), &out);
          } else {
            ++out.worlds;
            ++out.failed;
            if (out.first_error.empty()) {
              out.first_error = fleet.status().ToString();
            }
          }
        }
      });
    }
    pool.Wait();
  }
  out.wall_s = SecondsSince(start);
  *next_world = next.load();
  return out;
}

}  // namespace perfbench
