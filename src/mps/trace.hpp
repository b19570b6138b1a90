// Per-rank communication event log and its aggregation into the paper's
// complexity measures.
//
// Each rank owns a pre-allocated sink and appends without synchronization;
// aggregation happens after all rank threads have joined.  The aggregate can
// be rendered as a sched::Schedule, giving an executed-trace view that tests
// compare against the independently *built* schedule for the same algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "model/metrics.hpp"
#include "mps/communicator.hpp"
#include "sched/schedule.hpp"

namespace bruck::mps {

struct SendEvent {
  int round = 0;
  std::int64_t dst = 0;
  std::int64_t bytes = 0;
  /// Port-namespace tag the send ran in (0 = blocking/default namespace).
  /// Round indices are only comparable within one tag.
  int tag = 0;
};

/// Aggregate view of the compiled-plan executions recorded in a trace.
struct PlanStats {
  std::uint64_t uses = 0;    ///< plan executions recorded (one per rank call)
  std::uint64_t hits = 0;    ///< executions that found their plan cached
  std::uint64_t misses = 0;  ///< executions that had to lower a plan
  std::int64_t rounds = 0;   ///< Σ per-execution round counts
  std::int64_t bytes_sent = 0;  ///< Σ per-rank payload bytes
  /// Σ per-rank bytes combined on receive (reduction collectives; 0 else).
  std::int64_t bytes_reduced = 0;

  friend bool operator==(const PlanStats&, const PlanStats&) = default;
};

/// One rank's append-only event log.
class TraceSink {
 public:
  void record_send(int round, std::int64_t dst, std::int64_t bytes,
                   int tag = 0) {
    sends_.push_back(SendEvent{round, dst, bytes, tag});
  }
  void record_plan(const PlanEvent& event) { plans_.push_back(event); }
  [[nodiscard]] const std::vector<SendEvent>& sends() const { return sends_; }
  [[nodiscard]] const std::vector<PlanEvent>& plans() const { return plans_; }
  void clear() {
    sends_.clear();
    plans_.clear();
  }

 private:
  std::vector<SendEvent> sends_;
  std::vector<PlanEvent> plans_;
};

class Trace {
 public:
  Trace(std::int64_t n, int k);

  [[nodiscard]] std::int64_t n() const { return n_; }
  [[nodiscard]] int k() const { return k_; }

  /// The sink owned by `rank`; each rank must touch only its own sink while
  /// threads are running.
  [[nodiscard]] TraceSink& sink(std::int64_t rank);

  /// Rebuild the global round structure from all sinks.  Only valid after
  /// the rank threads joined.  Validates the k-port constraints.
  ///
  /// Tag namespaces have independent round indices, so events from
  /// different tags must not be merged round-by-round: each tag's rounds
  /// are *stacked* after the previous tag's (ascending tag order), keeping
  /// the per-tag k-port validation exact.  Concurrent collectives thus
  /// appear sequentially in the combined schedule — C2 stays exact, and C1
  /// is the sum of per-tag round counts (an upper bound on the interleaved
  /// execution's rounds).
  [[nodiscard]] sched::Schedule to_schedule() const;

  /// The distinct tags with at least one recorded send, ascending.
  [[nodiscard]] std::vector<int> tags() const;

  /// The round structure of one tag namespace alone (rounds renumbered from
  /// that tag's own indices).  Lets tests compare a nonblocking
  /// collective's executed pattern against its blocking twin's.
  [[nodiscard]] sched::Schedule to_schedule_for_tag(int tag) const;

  /// The paper's measures of the executed pattern.
  [[nodiscard]] model::CostMetrics metrics() const;

  /// Total number of recorded send events across ranks.
  [[nodiscard]] std::size_t event_count() const;

  /// Aggregated compiled-plan statistics across ranks (zero when the
  /// collectives ran through the reference paths).
  [[nodiscard]] PlanStats plan_stats() const;

 private:
  std::int64_t n_;
  int k_;
  std::vector<TraceSink> sinks_;
};

}  // namespace bruck::mps
