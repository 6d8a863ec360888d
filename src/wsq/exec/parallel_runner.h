#ifndef WSQ_EXEC_PARALLEL_RUNNER_H_
#define WSQ_EXEC_PARALLEL_RUNNER_H_

#include <cstdint>
#include <vector>

#include "wsq/backend/query_backend.h"
#include "wsq/common/status.h"
#include "wsq/control/controller_factory.h"

namespace wsq::exec {

/// Executes `runs` independent query runs of `make_controller` on
/// `backend` and returns their RunTraces *in run order*. Run `r` is
/// seeded `base_seed + r * seed_stride` — the exact derivation the
/// serial harness has always used — and gets a controller of its own,
/// so the traces are a pure function of (backend config, factory,
/// seeds) and never of the lane count.
///
/// `jobs` <= 0 resolves to DefaultJobs(); the effective lane count is
/// also capped at `runs`. One lane — or a backend whose Clone() returns
/// null — executes serially on the calling thread against `backend`
/// itself, byte-identical to the historical loop. More lanes fan the
/// runs out over a fixed ThreadPool, each lane owning a private
/// backend clone (concurrent runs never share mutable sim state:
/// RNG, clocks, and observability time cursors are all per-clone or
/// per-run).
///
/// When a process-global RunTimings is installed (see bench_report.h),
/// every completed run contributes its wall-clock duration; otherwise
/// no timing work happens at all.
///
/// On the first failing run the harness stops claiming new runs and
/// returns that run's status (the lowest-index failure when several
/// lanes fail together).
Result<std::vector<RunTrace>> RunTraces(
    const ControllerFactoryFn& make_controller, QueryBackend& backend,
    const RunSpec& spec, int runs, uint64_t base_seed, uint64_t seed_stride,
    int jobs = 0);

}  // namespace wsq::exec

#endif  // WSQ_EXEC_PARALLEL_RUNNER_H_
