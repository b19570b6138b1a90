// Per-layer probes of the traced run.  Each one times calls into a single
// layer's public entry points from the benchmark's own code:
//
//   wire + port engine  post_send/post_recv/wait_recv ping-pong, ranks 0<->1
//   tune.calibrate      repeated calibration ladders (beta, tau, spread)
//   coll.plan           Plan::run_pipelined on a plan fetched beforehand
//   coll.api            the facade call at the same geometry
//   coll.pack/reduction pack_by_digit, gather_extents, ReduceOp::combine
//   plan cache, tuner   hot PlanCache lookups and memoized tuner picks
#pragma once

#include <cstdint>
#include <string>

#include "bench_util.hpp"
#include "mps/bootstrap.hpp"
#include "workload.hpp"
#include "world.hpp"

namespace perfbench {

/// Median calibrated constants of one fabric.
struct WireModel {
  double beta_us = 0.0;
  double tau_us_per_byte = 0.0;
};

/// Ping-pong half round trips at 8 B, 4 KiB, 64 KiB and 1 MiB, then
/// repeated calibration ladders, in one world on `fabric`.  Adds the
/// wire.<fabric>.* metrics and returns the median constants.
WireModel probe_wire(bruck::mps::FabricBackend fabric, Report& report,
                     Tally& tally);

/// Plan executor vs facade at `bytes` per block on `fabric`, per family,
/// with the exact C1/C2 of each family from a traced world and the model
/// prediction C1*beta + C2*tau under `model`.  Adds plan.*, api.*,
/// plan_cache.lookup_us and tuner.pick_us.
void probe_plan_and_api(bruck::mps::FabricBackend fabric, std::int64_t bytes,
                        const WireModel& model, Report& report, Tally& tally);

/// Local data-movement kernels at fixed working sets.  Adds pack.* and
/// reduction.* and prints each kernel's computed bytes and working set.
void probe_kernels(Report& report);

}  // namespace perfbench
