#include "mps/trace.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"

namespace bruck::mps {

Trace::Trace(std::int64_t n, int k) : n_(n), k_(k) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  sinks_.resize(static_cast<std::size_t>(n));
}

TraceSink& Trace::sink(std::int64_t rank) {
  BRUCK_REQUIRE(rank >= 0 && rank < n_);
  return sinks_[static_cast<std::size_t>(rank)];
}

std::vector<int> Trace::tags() const {
  std::vector<int> out;
  for (const TraceSink& s : sinks_) {
    for (const SendEvent& e : s.sends()) {
      if (std::find(out.begin(), out.end(), e.tag) == out.end()) {
        out.push_back(e.tag);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

sched::Schedule Trace::to_schedule() const {
  // Round indices are per tag: stack each tag's round space after the
  // previous one so the merged schedule validates each namespace's k-port
  // structure independently (see the header comment).
  const std::vector<int> all_tags = tags();
  std::unordered_map<int, int> base;    // tag -> first merged round
  std::unordered_map<int, int> extent;  // tag -> max round within the tag
  for (const TraceSink& s : sinks_) {
    for (const SendEvent& e : s.sends()) {
      BRUCK_ENSURE_MSG(e.round >= 0, "negative round index recorded");
      auto [it, inserted] = extent.try_emplace(e.tag, e.round);
      if (!inserted) it->second = std::max(it->second, e.round);
    }
  }
  int next_base = 0;
  for (const int tag : all_tags) {
    base[tag] = next_base;
    next_base += extent.at(tag) + 1;
  }
  sched::Schedule schedule(n_, k_);
  for (int r = 0; r < next_base; ++r) schedule.add_round();
  for (std::int64_t rank = 0; rank < n_; ++rank) {
    for (const SendEvent& e : sinks_[static_cast<std::size_t>(rank)].sends()) {
      schedule.add_transfer(static_cast<std::size_t>(base.at(e.tag) + e.round),
                            sched::Transfer{rank, e.dst, e.bytes});
    }
  }
  schedule.normalize();
  const std::string err = schedule.validate();
  BRUCK_ENSURE_MSG(err.empty(), "executed trace violates the k-port model: " + err);
  return schedule;
}

sched::Schedule Trace::to_schedule_for_tag(int tag) const {
  int max_round = -1;
  for (const TraceSink& s : sinks_) {
    for (const SendEvent& e : s.sends()) {
      if (e.tag != tag) continue;
      BRUCK_ENSURE_MSG(e.round >= 0, "negative round index recorded");
      max_round = std::max(max_round, e.round);
    }
  }
  sched::Schedule schedule(n_, k_);
  for (int r = 0; r <= max_round; ++r) schedule.add_round();
  for (std::int64_t rank = 0; rank < n_; ++rank) {
    for (const SendEvent& e : sinks_[static_cast<std::size_t>(rank)].sends()) {
      if (e.tag != tag) continue;
      schedule.add_transfer(static_cast<std::size_t>(e.round),
                            sched::Transfer{rank, e.dst, e.bytes});
    }
  }
  schedule.normalize();
  const std::string err = schedule.validate();
  BRUCK_ENSURE_MSG(err.empty(),
                   "executed trace (one tag) violates the k-port model: " + err);
  return schedule;
}

model::CostMetrics Trace::metrics() const {
  if (event_count() == 0) return {};
  return to_schedule().metrics();
}

std::size_t Trace::event_count() const {
  std::size_t total = 0;
  for (const TraceSink& s : sinks_) total += s.sends().size();
  return total;
}

PlanStats Trace::plan_stats() const {
  PlanStats stats;
  for (const TraceSink& s : sinks_) {
    for (const PlanEvent& e : s.plans()) {
      ++stats.uses;
      if (e.cache_hit) {
        ++stats.hits;
      } else {
        ++stats.misses;
      }
      stats.rounds += e.rounds;
      stats.bytes_sent += e.bytes_sent;
      stats.bytes_reduced += e.bytes_reduced;
    }
  }
  return stats;
}

}  // namespace bruck::mps
