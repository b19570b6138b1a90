// Rank worlds: one spawn_local launch of n = kRanks ranks, k = kPorts, with
// tuning pinned off, and the closed-loop workload body that runs inside it.
//
// Timed regions never contain a spawn, fork or connect: a world is launched
// once, warmed up (every pattern of the op list runs once, filling the plan
// cache and creating the progress engine), and then timed for as long as
// its phase budgets say.  Ranks agree on when a phase ends through a
// one-byte broadcast from rank 0, issued outside the timed region.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coll/progress.hpp"
#include "mps/bootstrap.hpp"
#include "mps/trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Launch one world on `fabric` and run `body` on every rank.  Clears the
/// process-global plan cache and tuner memos first, so every launch pays
/// its own warm-up.
bruck::mps::SpawnResult launch(
    bruck::mps::FabricBackend fabric, bool record_trace,
    const std::function<std::vector<std::byte>(bruck::mps::Communicator&)>&
        body);

/// How long each timed phase of a workload world runs; 0 skips the phase.
struct PhaseBudget {
  double latency_s = 0.0;
  double throughput_s = 0.0;
};

/// What one rank measured in a workload world.
struct RankOutcome {
  std::int64_t enter_ns = 0;       ///< body entered
  std::int64_t warm_start_ns = 0;  ///< all ranks' inputs prepared, warm-up starts
  std::int64_t ready_ns = 0;       ///< warm-up done, past the barrier
  /// Closed-loop samples: one pattern each, barrier release to return.
  std::vector<float> latency_us;
  /// Back-to-back throughput blocks: duration, ops and payload bytes landed
  /// in this rank's receive buffers.
  std::vector<float> block_us;
  std::vector<float> block_ops;
  std::vector<float> block_bytes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::int64_t maxrss_kb = 0;
  bruck::coll::ProgressStats progress;
};

struct WorldOutcome {
  std::int64_t launch_ns = 0;
  std::vector<RankOutcome> ranks;
  std::shared_ptr<bruck::mps::Trace> trace;

  /// Per-sample latency and per-block duration of the world: the slowest
  /// rank's, sample by sample.
  [[nodiscard]] std::vector<double> latency_us() const;
  [[nodiscard]] std::vector<double> block_us() const;
  /// Launch to rank 0's body entry, plus rank 0's warm-up to the barrier.
  [[nodiscard]] double setup_seconds() const;
  /// Peak resident memory of the rank world in MB: the whole process for
  /// the in-process thread fabric, the sum over rank processes otherwise.
  [[nodiscard]] double peak_rss_mb(bruck::mps::FabricBackend fabric) const;
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  /// First verification error over the ranks ("" when none).
  [[nodiscard]] std::string first_error() const;
};

/// Verification counts of everything a run executed, in rank-ops.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void add(std::uint64_t attempted_ops, std::uint64_t failed_ops,
           const std::string& error) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (first_error.empty()) first_error = error;
  }
  void add(const WorldOutcome& o) { add(o.attempted(), o.failed(), o.first_error()); }
};

/// Launch `w` on its fabric, warm up, run the phases in `budget`.
[[nodiscard]] WorldOutcome run_world(const Workload& w,
                                     const PhaseBudget& budget,
                                     bool record_trace);

}  // namespace perfbench
