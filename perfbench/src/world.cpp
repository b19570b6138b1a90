#include "world.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include "coll/api.hpp"
#include "coll/plan_cache.hpp"
#include "model/tuner.hpp"

namespace perfbench {

namespace coll = bruck::coll;
namespace mps = bruck::mps;

mps::SpawnResult launch(
    mps::FabricBackend fabric, bool record_trace,
    const std::function<std::vector<std::byte>(mps::Communicator&)>& body) {
  coll::PlanCache::global().clear();
  bruck::model::clear_tuner_cache();
  mps::SpawnOptions so;
  so.n = kRanks;
  so.k = kPorts;
  so.backend = fabric;
  so.record_trace = record_trace;
  so.tune = bruck::tune::TuneMode::kOff;
  // A lost or misrouted message surfaces as an error well inside the
  // benchmark's own time limit.
  so.recv_timeout = std::chrono::milliseconds(10000);
  return mps::spawn_local(so, [&body](mps::Communicator& comm) {
    // One rank per CPU, as MPI launchers bind them, so that thread placement
    // does not change from run to run.
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    if (cpus > 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(comm.rank() % cpus), &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    return body(comm);
  });
}

namespace {

std::int64_t self_maxrss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::vector<std::byte> encode(const RankOutcome& o) {
  ByteWriter w;
  w.put(o.enter_ns);
  w.put(o.warm_start_ns);
  w.put(o.ready_ns);
  w.put_vec(o.latency_us);
  w.put_vec(o.block_us);
  w.put_vec(o.block_ops);
  w.put_vec(o.block_bytes);
  w.put(o.attempted);
  w.put(o.failed);
  w.put_str(o.first_error);
  w.put(o.maxrss_kb);
  w.put(o.progress);
  return w.take();
}

RankOutcome decode(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  RankOutcome o;
  o.enter_ns = r.get<std::int64_t>();
  o.warm_start_ns = r.get<std::int64_t>();
  o.ready_ns = r.get<std::int64_t>();
  o.latency_us = r.get_vec<float>();
  o.block_us = r.get_vec<float>();
  o.block_ops = r.get_vec<float>();
  o.block_bytes = r.get_vec<float>();
  o.attempted = r.get<std::uint64_t>();
  o.failed = r.get<std::uint64_t>();
  o.first_error = r.get_str();
  o.maxrss_kb = r.get<std::int64_t>();
  o.progress = r.get<coll::ProgressStats>();
  return o;
}

/// Fixed-capacity sample store, allocated and touched up front so that the
/// rank world's peak resident memory does not depend on how many samples a
/// run happens to take.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : v_(capacity, 0.0f) {}
  [[nodiscard]] bool has_room(std::size_t more) const {
    return n_ + more <= v_.size();
  }
  void push(double x) { v_.at(n_++) = static_cast<float>(x); }
  [[nodiscard]] std::vector<float> values() const {
    return {v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(n_)};
  }

 private:
  std::vector<float> v_;
  std::size_t n_ = 0;
};

constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 20;
constexpr std::size_t kMaxBlocks = std::size_t{1} << 16;

/// One rank's closed loop over a workload.
class RankLoop {
 public:
  /// `timed` false: a bare world that only warms up, with no sample stores.
  RankLoop(const Workload& w, mps::Communicator& comm, RankOutcome& out,
           bool timed)
      : w_(w),
        comm_(comm),
        out_(out),
        batch_(static_cast<int>(std::max_element(
                                    w.patterns.begin(), w.patterns.end(),
                                    [](const auto& a, const auto& b) {
                                      return a.size() < b.size();
                                    })
                                    ->size())),
        data_(w, comm.rank(), batch_ * w.block_samples),
        latency_us_(timed ? kMaxLatencySamples : 0),
        block_us_(timed ? kMaxBlocks : 0),
        block_ops_(timed ? kMaxBlocks : 0),
        block_bytes_(timed ? kMaxBlocks : 0) {}

  /// Every pattern once, verified: plan-cache fill, tuner memos, progress
  /// engine creation.
  void warm_up() {
    for (std::size_t p = 0; p < w_.patterns.size(); ++p) {
      poison_pattern(static_cast<int>(p), 0);
      run_pattern(static_cast<int>(p), 0);
      verify_pattern(static_cast<int>(p), 0);
    }
  }

  void latency_phase(double seconds) {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::size_t i = 0;
    do {
      for (int j = 0; j < kSamplesPerCheck; ++j, ++i) {
        const int p = w_.order[i % w_.order.size()];
        poison_pattern(p, 0);
        comm_.barrier();
        const std::int64_t t0 = now_ns();
        run_pattern(p, 0);
        const std::int64_t t1 = now_ns();
        latency_us_.push(ns_to_us(t1 - t0));
        verify_pattern(p, 0);
      }
    } while (keep_going(deadline, latency_us_, kSamplesPerCheck));
  }

  void throughput_phase(double seconds) {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::size_t i = 0;
    do {
      const std::size_t first = i;
      double ops = 0.0;
      double bytes = 0.0;
      for (int s = 0; s < w_.block_samples; ++s) {
        const int p = w_.order[(first + s) % w_.order.size()];
        poison_pattern(p, s * batch_);
        for (const int c : w_.patterns[static_cast<std::size_t>(p)]) {
          ops += 1.0;
          bytes += static_cast<double>(
              recv_payload_bytes(w_.cells[static_cast<std::size_t>(c)]));
        }
      }
      comm_.barrier();
      const std::int64_t t0 = now_ns();
      for (int s = 0; s < w_.block_samples; ++s, ++i) {
        run_pattern(w_.order[i % w_.order.size()], s * batch_);
      }
      const std::int64_t t1 = now_ns();
      block_us_.push(ns_to_us(t1 - t0));
      block_ops_.push(ops);
      block_bytes_.push(bytes);
      for (int s = 0; s < w_.block_samples; ++s) {
        verify_pattern(w_.order[(first + s) % w_.order.size()], s * batch_);
      }
    } while (keep_going(deadline, block_us_, 1));
  }

  /// Hand the samples over to the rank's outcome.
  void collect() {
    out_.latency_us = latency_us_.values();
    out_.block_us = block_us_.values();
    out_.block_ops = block_ops_.values();
    out_.block_bytes = block_bytes_.values();
  }

 private:
  static constexpr int kSamplesPerCheck = 16;

  void run_pattern(int p, int first_slot) {
    const auto& cells = w_.patterns[static_cast<std::size_t>(p)];
    if (!w_.nonblocking) {
      round_ = data_.run_blocking(comm_, cells[0], first_slot, round_);
      return;
    }
    std::vector<coll::Request> reqs;
    reqs.reserve(cells.size());
    for (std::size_t m = 0; m < cells.size(); ++m) {
      reqs.push_back(
          data_.submit(comm_, cells[m], first_slot + static_cast<int>(m)));
    }
    coll::wait_all(reqs);
  }

  void poison_pattern(int p, int first_slot) {
    const auto size = w_.patterns[static_cast<std::size_t>(p)].size();
    for (std::size_t m = 0; m < size; ++m) {
      data_.poison(first_slot + static_cast<int>(m));
    }
  }

  void verify_pattern(int p, int first_slot) {
    const auto& cells = w_.patterns[static_cast<std::size_t>(p)];
    for (std::size_t m = 0; m < cells.size(); ++m) {
      ++out_.attempted;
      std::string err = data_.verify(cells[m], first_slot + static_cast<int>(m));
      if (!err.empty()) {
        ++out_.failed;
        if (out_.first_error.empty()) out_.first_error = std::move(err);
      }
    }
  }

  /// Rank 0 decides whether the phase goes on, until the deadline or until
  /// `store` cannot take `next` more samples, and tells everyone.
  bool keep_going(std::int64_t deadline_ns, const Samples& store,
                  std::size_t next) {
    std::byte flag{0};
    if (comm_.rank() == 0 && now_ns() < deadline_ns && store.has_room(next)) {
      flag = std::byte{1};
    }
    coll::BcastApiOptions o;
    o.start_round = round_;
    round_ = coll::broadcast(comm_, 0, std::span<std::byte>(&flag, 1), o);
    return flag == std::byte{1};
  }

  const Workload& w_;
  mps::Communicator& comm_;
  RankOutcome& out_;
  int batch_;
  RankData data_;
  int round_ = 0;
  Samples latency_us_;
  Samples block_us_;
  Samples block_ops_;
  Samples block_bytes_;
};

}  // namespace

WorldOutcome run_world(const Workload& w, const PhaseBudget& budget,
                       bool record_trace) {
  WorldOutcome world;
  world.launch_ns = now_ns();
  const auto body = [&w, budget](mps::Communicator& comm) {
    RankOutcome out;
    out.enter_ns = now_ns();

    RankLoop loop(w, comm, out, budget.latency_s > 0 || budget.throughput_s > 0);
    // Every rank's inputs are ready before the warm-up clock starts.
    comm.barrier();
    out.warm_start_ns = now_ns();
    loop.warm_up();
    comm.barrier();
    out.ready_ns = now_ns();
    if (budget.latency_s > 0) loop.latency_phase(budget.latency_s);
    if (budget.throughput_s > 0) loop.throughput_phase(budget.throughput_s);
    if (w.nonblocking) out.progress = coll::ProgressEngine::for_comm(comm).stats();
    // Every rank is past its last op before any rank reads its peak.
    comm.barrier();
    out.maxrss_kb = self_maxrss_kb();
    loop.collect();
    return encode(out);
  };
  const mps::SpawnResult result = launch(w.fabric, record_trace, body);
  world.trace = result.trace;
  for (const auto& payload : result.rank_payloads) {
    world.ranks.push_back(decode(payload));
  }
  if (static_cast<std::int64_t>(world.ranks.size()) != kRanks) {
    throw std::runtime_error("world returned a short rank list");
  }
  return world;
}

std::vector<double> WorldOutcome::latency_us() const {
  std::vector<std::vector<float>> per_rank;
  for (const RankOutcome& r : ranks) per_rank.push_back(r.latency_us);
  return max_over_ranks(per_rank);
}

std::vector<double> WorldOutcome::block_us() const {
  std::vector<std::vector<float>> per_rank;
  for (const RankOutcome& r : ranks) per_rank.push_back(r.block_us);
  return max_over_ranks(per_rank);
}

double WorldOutcome::setup_seconds() const {
  const RankOutcome& r0 = ranks.at(0);
  return static_cast<double>((r0.enter_ns - launch_ns) +
                             (r0.ready_ns - r0.warm_start_ns)) /
         1e9;
}

double WorldOutcome::peak_rss_mb(mps::FabricBackend fabric) const {
  std::int64_t kb = 0;
  for (const RankOutcome& r : ranks) {
    // Thread ranks share one process: each reports the same whole-process
    // peak.  Forked ranks report their own.
    kb = fabric == mps::FabricBackend::kThread ? std::max(kb, r.maxrss_kb)
                                               : kb + r.maxrss_kb;
  }
  return static_cast<double>(kb) / 1024.0;
}

std::uint64_t WorldOutcome::attempted() const {
  std::uint64_t n = 0;
  for (const RankOutcome& r : ranks) n += r.attempted;
  return n;
}

std::uint64_t WorldOutcome::failed() const {
  std::uint64_t n = 0;
  for (const RankOutcome& r : ranks) n += r.failed;
  return n;
}

std::string WorldOutcome::first_error() const {
  for (const RankOutcome& r : ranks) {
    if (!r.first_error.empty()) return r.first_error;
  }
  return "";
}

}  // namespace perfbench
