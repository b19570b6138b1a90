#include "probes.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <iostream>
#include <memory>

#include "coll/api.hpp"
#include "coll/pack.hpp"
#include "coll/plan_cache.hpp"
#include "coll/reduction.hpp"
#include "model/costs.hpp"
#include "model/tuner.hpp"
#include "tune/calibrate.hpp"
#include "util/rng.hpp"
#include "world.hpp"

namespace perfbench {

namespace coll = bruck::coll;
namespace model = bruck::model;
namespace mps = bruck::mps;

namespace {

/// Adds `<name>` (median) and `<name>.p99` of a timing sample.
void add_timing(Report& report, const std::string& name,
                const std::vector<double>& v, const std::string& unit) {
  report.add(name, median(v), unit, v.size());
  report.add(name + ".p99", quantile(v, 0.99), unit, v.size());
}

// ---------------------------------------------------------------------------
// Wire: raw port-engine ping-pong and calibration ladders.

constexpr std::array<std::int64_t, 4> kWireSizes = {8, 4096, 65536, 1 << 20};
constexpr std::array<int, 4> kWireReps = {2000, 1000, 300, 60};
constexpr int kWireWarmup = 20;
constexpr int kLadders = 5;
/// Wire segment bound: a segment must fit in half of the shm fabric's
/// default 1 MiB inbound ring.
constexpr std::int64_t kWireSegmentBytes = 256 << 10;

}  // namespace

WireModel probe_wire(mps::FabricBackend fabric, Report& report, Tally& tally) {
  const std::string label = mps::to_string(fabric);
  const auto body = [&label](mps::Communicator& comm) {
    ByteWriter out;
    std::uint64_t failed = 0;
    int round = 0;
    for (std::size_t s = 0; s < kWireSizes.size(); ++s) {
      const std::int64_t m = kWireSizes[s];
      const int segs = static_cast<int>(
          std::max<std::int64_t>(1, (m + kWireSegmentBytes - 1) / kWireSegmentBytes));
      std::vector<std::byte> msg(static_cast<std::size_t>(m));
      std::vector<std::byte> echo(static_cast<std::size_t>(m), std::byte{0});
      bruck::fill_payload(msg, static_cast<std::uint64_t>(m), 0, 0);
      std::vector<double> half_rtt_us;
      for (int i = 0; i < kWireWarmup + kWireReps[s]; ++i) {
        if (comm.rank() == 0) {
          const std::int64_t t0 = now_ns();
          comm.post_send(round, 1, msg, segs);
          comm.wait_recv(comm.post_recv(round + 1, 1, echo, segs));
          const std::int64_t t1 = now_ns();
          if (i >= kWireWarmup) half_rtt_us.push_back(ns_to_us(t1 - t0) / 2);
        } else if (comm.rank() == 1) {
          comm.wait_recv(comm.post_recv(round, 0, echo, segs));
          comm.post_send(round + 1, 0, echo, segs);
        }
        round += 2;
      }
      if (comm.rank() <= 1 && echo != msg) ++failed;
      out.put_vec(half_rtt_us);
      comm.barrier();
    }
    std::vector<double> beta;
    std::vector<double> tau;
    for (int l = 0; l < kLadders; ++l) {
      const bruck::tune::Calibration cal = bruck::tune::calibrate(comm, label);
      if (!cal.measured) ++failed;
      beta.push_back(cal.machine.beta_us);
      tau.push_back(cal.machine.tau_us_per_byte);
    }
    out.put_vec(beta);
    out.put_vec(tau);
    out.put(failed);
    return out.take();
  };
  const mps::SpawnResult result = launch(fabric, false, body);

  WireModel wire;
  for (std::size_t r = 0; r < result.rank_payloads.size(); ++r) {
    ByteReader in(result.rank_payloads[r]);
    std::vector<std::vector<double>> rtt;
    for (std::size_t s = 0; s < kWireSizes.size(); ++s) {
      rtt.push_back(in.get_vec<double>());
    }
    const auto beta = in.get_vec<double>();
    const auto tau = in.get_vec<double>();
    const auto failed = in.get<std::uint64_t>();
    tally.add(kWireSizes.size() + kLadders, failed,
              failed > 0 ? "wire probe on " + label + " lost bytes" : "");
    if (r != 0) continue;
    for (std::size_t s = 0; s < kWireSizes.size(); ++s) {
      add_timing(report, "wire." + label + ".halfrtt_us." + std::to_string(kWireSizes[s]),
                 rtt[s], "us");
    }
    wire.beta_us = median(beta);
    wire.tau_us_per_byte = median(tau);
    report.add("wire." + label + ".beta_us", wire.beta_us, "us", beta.size());
    report.add("wire." + label + ".tau_ns_per_B", wire.tau_us_per_byte * 1e3,
               "ns/B", tau.size());
    const auto [lo, hi] = std::minmax_element(beta.begin(), beta.end());
    report.add("wire." + label + ".beta_spread", (*hi - *lo) / wire.beta_us,
               "ratio", beta.size());
  }
  return wire;
}

// ---------------------------------------------------------------------------
// Plan executor vs facade.

namespace {

constexpr int kFamilyCount = static_cast<int>(std::size(kFamilies));
constexpr int kPlanFamilies = 3;  // allreduce runs as a composite: facade only

/// The plan the facade resolves for `f` at `bytes` (default options, hier
/// off, no calibrated model installed), through the same public tuner and
/// key functions it uses.
coll::PlanKey facade_plan_key(Family f, std::int64_t b) {
  const model::LinearModel machine = model::effective_machine(model::ibm_sp1());
  switch (f) {
    case Family::kAlltoall: {
      const coll::AlltoallPlan p = coll::plan_alltoall(kRanks, kPorts, b);
      const int segs = model::resolve_segment_knob(p.segments_hint, true,
                                                   machine, p.predicted);
      return coll::index_plan_key(p.algorithm, kRanks, kPorts, p.radix, segs);
    }
    case Family::kAllgather: {
      const auto strategy = model::resolve_concat_last_round(
          kRanks, kPorts, b, model::ConcatLastRound::kAuto);
      const int segs = model::resolve_segment_knob(
          0, true, machine, model::concat_bruck_cost(kRanks, kPorts, b, strategy));
      return coll::concat_plan_key(coll::ConcatAlgorithm::kBruck, kRanks, kPorts,
                                   strategy, b, segs);
    }
    case Family::kReduceScatter: {
      const auto c = coll::detail::resolve_reduce_algorithm(
          kRanks, kPorts, b, coll::ReduceAlgorithm::kAuto, 0, model::ibm_sp1(),
          model::RadixSet::kAll);
      const int segs = model::resolve_segment_knob(c.segments_hint, true,
                                                   machine, c.predicted);
      return coll::reduce_plan_key(c.algorithm, kRanks, kPorts, c.radix,
                                   coll::ReduceOp::sum(coll::ReduceElem::kI64),
                                   segs);
    }
    case Family::kAllreduce:
      break;
  }
  throw std::logic_error("no flat plan key for this family");
}

/// One cell per family at `b` bytes, each its own pattern.
Workload probe_workload(std::int64_t b) {
  Workload w;
  w.name = "probe";
  w.max_bytes = b;
  for (const Family f : kFamilies) {
    w.cells.push_back(Cell{f, b, 0, 0x5eed0000ULL + w.cells.size()});
    w.patterns.push_back({static_cast<int>(w.cells.size()) - 1});
    w.order.push_back(w.patterns.back()[0]);
  }
  return w;
}

/// Batched per-call time in microseconds of a hot local call.
template <class Fn>
std::vector<double> per_call_us(int batches, int calls, Fn&& fn) {
  std::vector<double> us;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int c = 0; c < calls; ++c) fn();
    us.push_back(ns_to_us(now_ns() - t0) / calls);
  }
  return us;
}

}  // namespace

void probe_plan_and_api(mps::FabricBackend fabric, std::int64_t bytes,
                        const WireModel& wire, Report& report, Tally& tally) {
  const Workload pw = probe_workload(bytes);
  const int reps = bytes >= (64 << 10) ? 100 : 1000;
  const auto body = [&pw, bytes, reps](mps::Communicator& comm) {
    RankData data(pw, comm.rank(), 1);
    std::vector<std::shared_ptr<const coll::Plan>> plans;
    for (int f = 0; f < kPlanFamilies; ++f) {
      plans.push_back(coll::PlanCache::global()
                          .get_or_lower(facade_plan_key(kFamilies[f], bytes))
                          .plan);
    }
    const auto op = coll::ReduceOp::sum(coll::ReduceElem::kI64);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_error;
    const auto check = [&](int c) {
      ++attempted;
      std::string err = data.verify(c, 0);
      if (!err.empty() && failed++ == 0) first_error = std::move(err);
    };
    int round = 0;
    ByteWriter out;
    comm.barrier();
    const std::uint64_t misses = coll::PlanCache::global().stats().misses;
    for (int f = 0; f < kFamilyCount; ++f) {
      if (f == kPlanFamilies) {
        // The facade must have run the very plans fetched above.  (The
        // barrier keeps other ranks' allreduce lowering out of the count.)
        comm.barrier();
        if (coll::PlanCache::global().stats().misses != misses && failed++ == 0) {
          first_error = "facade resolved a different plan than the probe";
        }
      }
      std::vector<double> plan_us;
      std::vector<double> api_us;
      for (int i = 0; i < reps; ++i) {
        if (f < kPlanFamilies) {
          const coll::Plan& plan = *plans[static_cast<std::size_t>(f)];
          data.poison(0);
          comm.barrier();
          const std::int64_t t0 = now_ns();
          const coll::PlanExecution ex =
              kFamilies[f] == Family::kReduceScatter
                  ? plan.run_pipelined(comm, data.send(f),
                                       data.recv_slot(0).first(bytes), bytes,
                                       op, round)
                  : plan.run_pipelined(
                        comm, data.send(f),
                        data.recv_slot(0).first(kRanks * bytes), bytes, round);
          const std::int64_t t1 = now_ns();
          round = ex.next_round;
          plan_us.push_back(ns_to_us(t1 - t0));
          check(f);
        }
        data.poison(0);
        comm.barrier();
        const std::int64_t t0 = now_ns();
        round = data.run_blocking(comm, f, 0, round);
        const std::int64_t t1 = now_ns();
        api_us.push_back(ns_to_us(t1 - t0));
        check(f);
      }
      out.put_vec(plan_us);
      out.put_vec(api_us);
    }
    out.put(attempted);
    out.put(failed);
    out.put_str(first_error);
    return out.take();
  };
  const mps::SpawnResult result = launch(fabric, false, body);

  std::array<std::vector<std::vector<double>>, kFamilyCount> plan_per_rank;
  std::array<std::vector<std::vector<double>>, kFamilyCount> api_per_rank;
  for (const auto& payload : result.rank_payloads) {
    ByteReader in(payload);
    for (int f = 0; f < kFamilyCount; ++f) {
      plan_per_rank[f].push_back(in.get_vec<double>());
      api_per_rank[f].push_back(in.get_vec<double>());
    }
    const auto attempted = in.get<std::uint64_t>();
    const auto failed = in.get<std::uint64_t>();
    tally.add(attempted, failed, in.get_str());
  }

  // Exact rounds and critical-path bytes of one call per family, from the
  // fabric trace of a one-op thread world.
  for (int f = 0; f < kFamilyCount; ++f) {
    const auto counted = launch(mps::FabricBackend::kThread, true,
                                [&pw, f](mps::Communicator& comm) {
                                  RankData data(pw, comm.rank(), 1);
                                  data.run_blocking(comm, f, 0, 0);
                                  ByteWriter out;
                                  out.put(data.verify(f, 0).empty());
                                  return out.take();
                                });
    for (const auto& payload : counted.rank_payloads) {
      const bool ok = ByteReader(payload).get<bool>();
      tally.add(1, ok ? 0 : 1, ok ? "" : "traced probe op failed");
    }
    const model::CostMetrics m = counted.trace->metrics();
    const std::string fam = family_name(kFamilies[f]);
    const auto api = max_over_ranks(api_per_rank[f]);
    report.add("api.call_us." + fam, median(api), "us", api.size());
    double measured = median(api);
    if (f < kPlanFamilies) {
      const auto exec = max_over_ranks(plan_per_rank[f]);
      add_timing(report, "plan.exec_us." + fam, exec, "us");
      report.add("api.overhead_us." + fam, median(api) - median(exec), "us",
                 api.size());
      measured = median(exec);
    }
    const double predicted = static_cast<double>(m.c1) * wire.beta_us +
                             static_cast<double>(m.c2) * wire.tau_us_per_byte;
    report.add("plan.rounds_per_op." + fam, static_cast<double>(m.c1), "count", 1);
    report.add("plan.wire_bytes_per_op." + fam, static_cast<double>(m.c2), "B", 1);
    report.add("plan.model_us." + fam, predicted, "us", 1);
    report.add("plan.model_residual_us." + fam, measured - predicted, "us",
               api.size());
  }

  // Hot lookups of the facade's layers above the executor, in this process.
  const coll::PlanKey key = facade_plan_key(Family::kAlltoall, bytes);
  (void)coll::PlanCache::global().get_or_lower(key);
  add_timing(report, "plan_cache.lookup_us", per_call_us(200, 256, [&key] {
               (void)coll::PlanCache::global().get_or_lower(key);
             }),
             "us");
  add_timing(report, "tuner.pick_us", per_call_us(200, 256, [bytes] {
               (void)model::pick_index_radix_cached(kRanks, kPorts, bytes,
                                                    model::ibm_sp1());
             }),
             "us");
}

// ---------------------------------------------------------------------------
// Local kernels.

namespace {

constexpr int kKernelReps = 1500;

/// Median-time throughput of `fn` moving `bytes` per call, in GB/s.
template <class Fn>
std::pair<double, std::vector<double>> gbps(std::int64_t bytes, Fn&& fn) {
  std::vector<double> ns;
  for (int i = 0; i < kKernelReps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return {static_cast<double>(bytes) / median(ns), ns};
}

void label(const std::string& metric, std::int64_t computed,
           std::int64_t working_set) {
  std::cout << "info " << metric << " computed_bytes=" << computed
            << " working_set_bytes=" << working_set << '\n';
}

}  // namespace

void probe_kernels(Report& report) {
  {
    // Bruck's per-round pack: 64 blocks of 4 KiB, radix 2, digit 0 == 1
    // selects every other block.
    constexpr std::int64_t n = 64;
    constexpr std::int64_t b = 4096;
    std::vector<std::byte> buffer(n * b);
    std::vector<std::byte> packed(n * b);
    bruck::fill_random_bytes(buffer, 1);
    std::int64_t blocks = 0;
    const auto [rate, ns] = gbps((n / 2) * b, [&] {
      blocks = coll::pack_by_digit(buffer, packed, n, b, 2, 0, 1);
    });
    if (blocks != n / 2) throw std::runtime_error("pack_by_digit block count");
    report.add("pack.pack_by_digit_GBps", rate, "GB/s", ns.size());
    label("pack.pack_by_digit_GBps", blocks * b, 2 * n * b);
  }
  {
    // Strided layout walk: 2048 pieces of 256 B at a 512 B stride.
    constexpr std::int64_t pieces = 2048;
    constexpr std::int64_t piece = 256;
    std::vector<std::byte> src(pieces * 2 * piece);
    std::vector<std::byte> out(pieces * piece);
    bruck::fill_random_bytes(src, 2);
    std::vector<coll::ByteExtent> extents;
    for (std::int64_t i = 0; i < pieces; ++i) {
      extents.push_back(coll::ByteExtent{i * 2 * piece, piece});
    }
    std::int64_t moved = 0;
    const auto [rate, ns] = gbps(pieces * piece, [&] {
      moved = coll::gather_extents(src, extents, out);
    });
    if (moved != pieces * piece) throw std::runtime_error("gather_extents bytes");
    report.add("pack.gather_extents_GBps", rate, "GB/s", ns.size());
    label("pack.gather_extents_GBps", moved,
          static_cast<std::int64_t>(src.size() + out.size()));
  }
  {
    // i64 sum into a 256 KiB accumulator; zero inputs keep it constant.
    constexpr std::int64_t bytes = 256 << 10;
    std::vector<std::int64_t> acc(bytes / 8, 3);
    const std::vector<std::int64_t> in(bytes / 8, 0);
    const auto op = coll::ReduceOp::sum(coll::ReduceElem::kI64);
    auto* a = reinterpret_cast<std::byte*>(acc.data());
    const auto* x = reinterpret_cast<const std::byte*>(in.data());
    const auto [rate, ns] = gbps(bytes, [&] { op.combine(a, x, bytes); });
    const auto [ref_rate, ref_ns] = gbps(bytes, [&] {
      coll::combine_elementwise_reference(op, a, x, bytes);
    });
    if (std::any_of(acc.begin(), acc.end(), [](std::int64_t v) { return v != 3; })) {
      throw std::runtime_error("combine changed a zero-sum accumulator");
    }
    report.add("reduction.combine_GBps", rate, "GB/s", ns.size());
    report.add("reduction.combine_speedup", rate / ref_rate, "ratio", ns.size());
    label("reduction.combine_GBps", bytes, 2 * bytes);
  }
}

}  // namespace perfbench
