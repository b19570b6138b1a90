// Cross-process differential harness: fork real rank processes over the
// shared-memory and TCP-loopback fabrics, run randomized sweeps chaining
// all five collective families (plus the nonblocking i* paths) through one
// communicator, and compare every rank's result payload *bitwise* — and
// the executed trace round-for-round — against the in-process ThreadComm
// oracle running the identical body.
//
// The payload bytes each rank ships home concatenate every collective's
// receive buffer, so a single mismatched byte anywhere in the chain fails
// the trial with the backend and configuration named.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "mps/bootstrap.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

struct SweepConfig {
  std::int64_t n = 4;
  int k = 2;
  std::int64_t b = 8;        ///< block bytes of the regular collectives
  std::uint64_t seed = 1;
  int segments = 0;          ///< wire-segmentation knob of the kPipelined path
};

std::byte pattern_byte(std::uint64_t seed, std::int64_t i, std::int64_t j,
                       std::int64_t off) {
  return static_cast<std::byte>((seed * 0x9E3779B9u) ^
                                static_cast<std::uint64_t>(i * 131 + j * 17 + off));
}

/// The SPMD body every backend runs verbatim: all five families chained on
/// one communicator with the round index threaded through, then the
/// nonblocking paths, concatenating every receive buffer into the blob the
/// harness compares across backends.
std::vector<std::byte> sweep_body(mps::Communicator& comm,
                                  const SweepConfig& cfg) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  const std::int64_t b = cfg.b;
  std::vector<std::byte> blob;
  const auto append = [&](std::span<const std::byte> bytes) {
    blob.insert(blob.end(), bytes.begin(), bytes.end());
  };

  // 1. alltoall (index family), pipelined with the trial's segment count.
  coll::AlltoallOptions ao;
  ao.segments = cfg.segments;
  std::vector<std::byte> isend(static_cast<std::size_t>(n * b));
  std::vector<std::byte> irecv(isend.size(), std::byte{0xEE});
  coll::fill_index_send(isend, n, rank, b, cfg.seed);
  int round = coll::alltoall(comm, isend, irecv, b, ao);
  append(irecv);

  // 2. allgather (concatenate family).
  coll::AllgatherOptions go;
  go.start_round = round;
  go.segments = cfg.segments;
  std::vector<std::byte> csend(static_cast<std::size_t>(b));
  std::vector<std::byte> crecv(static_cast<std::size_t>(n * b),
                               std::byte{0xEE});
  coll::fill_concat_send(csend, rank, b, cfg.seed + 1);
  round = coll::allgather(comm, csend, crecv, b, go);
  append(crecv);

  // 3. alltoallv with a seed-derived irregular counts matrix (zeros
  // included: zero-count pairs must never touch the fabric).
  SplitMix64 rng(cfg.seed + 2);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n * n));
  for (auto& c : counts) {
    c = static_cast<std::int64_t>(rng.next_below(
        static_cast<std::uint64_t>(3 * b)));
  }
  std::int64_t send_total = 0;
  std::int64_t recv_total = 0;
  for (std::int64_t j = 0; j < n; ++j) {
    send_total += counts[static_cast<std::size_t>(rank * n + j)];
    recv_total += counts[static_cast<std::size_t>(j * n + rank)];
  }
  std::vector<std::byte> vsend(static_cast<std::size_t>(send_total));
  std::vector<std::byte> vrecv(static_cast<std::size_t>(recv_total),
                               std::byte{0xEE});
  {
    std::int64_t off = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t c = counts[static_cast<std::size_t>(rank * n + j)];
      for (std::int64_t x = 0; x < c; ++x) {
        vsend[static_cast<std::size_t>(off + x)] =
            pattern_byte(cfg.seed, rank, j, x);
      }
      off += c;
    }
  }
  coll::AlltoallvOptions vo;
  vo.start_round = round;
  vo.segments = cfg.segments;
  round = coll::alltoallv(comm, vsend, vrecv, counts, {}, {}, vo);
  append(vrecv);

  // 4. allgatherv with seed-derived per-rank counts.
  std::vector<std::int64_t> gcounts(static_cast<std::size_t>(n));
  for (auto& c : gcounts) {
    c = 1 + static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(2 * b)));
  }
  std::vector<std::byte> gsend(
      static_cast<std::size_t>(gcounts[static_cast<std::size_t>(rank)]));
  for (std::size_t x = 0; x < gsend.size(); ++x) {
    gsend[x] = pattern_byte(cfg.seed + 3, rank, 0,
                            static_cast<std::int64_t>(x));
  }
  const std::int64_t gtotal =
      std::accumulate(gcounts.begin(), gcounts.end(), std::int64_t{0});
  std::vector<std::byte> grecv(static_cast<std::size_t>(gtotal),
                               std::byte{0xEE});
  coll::AllgathervOptions gvo;
  gvo.start_round = round;
  gvo.segments = cfg.segments;
  round = coll::allgatherv(comm, gsend, grecv, gcounts, {}, gvo);
  append(grecv);

  // 5. reduce_scatter + allreduce (reduction family) over i64 sums small
  // enough to stay exact.
  const std::int64_t relems = 1 + (b % 5);
  const std::int64_t rbytes = relems * 8;
  std::vector<std::byte> rsend(static_cast<std::size_t>(n * rbytes));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t e = 0; e < relems; ++e) {
      const std::int64_t v = rank * 1000 + j * 10 + e +
                             static_cast<std::int64_t>(cfg.seed % 97);
      std::memcpy(rsend.data() + j * rbytes + e * 8, &v, 8);
    }
  }
  std::vector<std::byte> rrecv(static_cast<std::size_t>(rbytes),
                               std::byte{0xEE});
  coll::ReduceScatterOptions ro;
  ro.start_round = round;
  ro.segments = cfg.segments;
  round = coll::reduce_scatter(comm, rsend, rrecv, rbytes,
                               coll::ReduceOp::sum(coll::ReduceElem::kI64),
                               ro);
  append(rrecv);

  std::vector<std::byte> arecv(rsend.size(), std::byte{0xEE});
  coll::AllreduceOptions aro;
  aro.start_round = round;
  aro.segments = cfg.segments;
  round = coll::allreduce(comm, rsend, arecv,
                          coll::ReduceOp::sum(coll::ReduceElem::kI64), aro);
  append(arecv);

  // 6. Nonblocking paths: an ialltoall and an iallgather in flight
  // concurrently (each in its own port-namespace tag), completed out of
  // submission order.
  std::vector<std::byte> nisend(static_cast<std::size_t>(n * b));
  std::vector<std::byte> nirecv(nisend.size(), std::byte{0xEE});
  coll::fill_index_send(nisend, n, rank, b, cfg.seed + 4);
  std::vector<std::byte> ncsend(static_cast<std::size_t>(b));
  std::vector<std::byte> ncrecv(static_cast<std::size_t>(n * b),
                                std::byte{0xEE});
  coll::fill_concat_send(ncsend, rank, b, cfg.seed + 5);
  coll::AlltoallOptions nao;
  nao.segments = cfg.segments;
  coll::AllgatherOptions ngo;
  ngo.segments = cfg.segments;
  coll::Request r1 = coll::ialltoall(comm, nisend, nirecv, b, nao);
  coll::Request r2 = coll::iallgather(comm, ncsend, ncrecv, b, ngo);
  (void)r2.wait();
  (void)r1.wait();
  append(nirecv);
  append(ncrecv);

  return blob;
}

/// Run one configuration on one backend.
mps::SpawnResult run_backend(const SweepConfig& cfg,
                             mps::FabricBackend backend) {
  mps::SpawnOptions so;
  so.n = cfg.n;
  so.k = cfg.k;
  so.backend = backend;
  so.record_trace = true;
  // Fault-free runs should never need the full default 30 s budget; a
  // tighter deadline keeps a genuine hang from eating the suite timeout.
  so.recv_timeout = std::chrono::milliseconds(20000);
  return mps::spawn_local(
      so, [cfg](mps::Communicator& comm) { return sweep_body(comm, cfg); });
}

void expect_backend_matches_oracle(const SweepConfig& cfg,
                                   const mps::SpawnResult& oracle,
                                   mps::FabricBackend backend) {
  const mps::SpawnResult got = run_backend(cfg, backend);
  ASSERT_EQ(got.rank_payloads.size(), oracle.rank_payloads.size());
  for (std::int64_t r = 0; r < cfg.n; ++r) {
    const auto& want = oracle.rank_payloads[static_cast<std::size_t>(r)];
    const auto& have = got.rank_payloads[static_cast<std::size_t>(r)];
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(have.size(), want.size())
        << "rank " << r << " payload size diverged on "
        << mps::to_string(backend);
    ASSERT_TRUE(std::memcmp(have.data(), want.data(), want.size()) == 0)
        << "rank " << r << " payload bytes diverged on "
        << mps::to_string(backend);
  }
  // The executed communication pattern must be the oracle's exactly:
  // same rounds, same messages, same C1/C2.
  ASSERT_TRUE(got.trace != nullptr);
  const sched::Schedule want_sched = oracle.trace->to_schedule();
  const sched::Schedule got_sched = got.trace->to_schedule();
  ASSERT_TRUE(got_sched == want_sched)
      << "executed schedule diverged on " << mps::to_string(backend);
  ASSERT_EQ(got.trace->metrics(), oracle.trace->metrics());
}

TEST(CrossProcess, RandomizedSweepMatchesThreadOracleBitwise) {
  SplitMix64 rng(0xFAB51Cu);
  for (int trial = 0; trial < 4; ++trial) {
    SweepConfig cfg;
    cfg.n = 2 + static_cast<std::int64_t>(rng.next_below(4));  // 2..5 ranks
    cfg.k = 1 + static_cast<int>(rng.next_below(3));
    cfg.b = 1 + static_cast<std::int64_t>(rng.next_below(48));
    cfg.seed = rng.next();
    cfg.segments = static_cast<int>(rng.next_below(3));  // 0 = tuned, 1, 2
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(cfg.n) + " k=" + std::to_string(cfg.k) +
                 " b=" + std::to_string(cfg.b) + " segments=" +
                 std::to_string(cfg.segments));
    const mps::SpawnResult oracle =
        run_backend(cfg, mps::FabricBackend::kThread);
    expect_backend_matches_oracle(cfg, oracle, mps::FabricBackend::kShm);
    expect_backend_matches_oracle(cfg, oracle, mps::FabricBackend::kSocket);
  }
}

TEST(CrossProcess, LargerFabricSingleConfig) {
  // One wider fabric (more processes, more connections) as a fixed
  // smoke-point beyond the randomized range.
  SweepConfig cfg;
  cfg.n = 7;
  cfg.k = 2;
  cfg.b = 24;
  cfg.seed = 0xD1FFu;
  cfg.segments = 2;
  const mps::SpawnResult oracle = run_backend(cfg, mps::FabricBackend::kThread);
  expect_backend_matches_oracle(cfg, oracle, mps::FabricBackend::kShm);
  expect_backend_matches_oracle(cfg, oracle, mps::FabricBackend::kSocket);
}

/// The hierarchical leg: all three leader-model composites chained on one
/// communicator with a forced non-dividing group size, so the GroupComm
/// gather/scatter stages and the inter-leader exchange all run over the
/// real fabric under test — blocking, then again as i* operations (the
/// blob's second half), which must run the same composites.
std::vector<std::byte> hier_body(mps::Communicator& comm,
                                 const SweepConfig& cfg, std::int64_t group) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  const std::int64_t b = cfg.b;
  std::vector<std::byte> blob;
  const auto append = [&](std::span<const std::byte> bytes) {
    blob.insert(blob.end(), bytes.begin(), bytes.end());
  };

  coll::AlltoallOptions ao;
  ao.hier = coll::HierMode::kOn;
  ao.hier_group = group;
  coll::AllgatherOptions go;
  go.hier = coll::HierMode::kOn;
  go.hier_group = group;
  coll::ReduceScatterOptions ro;
  ro.hier = coll::HierMode::kOn;
  ro.hier_group = group;
  const coll::ReduceOp op = coll::ReduceOp::sum(coll::ReduceElem::kI64);

  std::vector<std::byte> isend(static_cast<std::size_t>(n * b));
  coll::fill_index_send(isend, n, rank, b, cfg.seed);
  std::vector<std::byte> csend(static_cast<std::size_t>(b));
  coll::fill_concat_send(csend, rank, b, cfg.seed + 1);
  const std::int64_t rbytes = 16;
  std::vector<std::byte> rsend(static_cast<std::size_t>(n * rbytes));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t e = 0; e < 2; ++e) {
      const std::int64_t v = rank * 1000 + j * 10 + e;
      std::memcpy(rsend.data() + j * rbytes + e * 8, &v, 8);
    }
  }

  // The blocking calls chain their rounds through tag 0; each i* call runs
  // in a tag of its own, from round 0.
  int round = 0;
  for (const bool nonblocking : {false, true}) {
    std::vector<std::byte> irecv(isend.size(), std::byte{0xEE});
    ao.start_round = nonblocking ? 0 : round;
    if (nonblocking) {
      (void)coll::ialltoall(comm, isend, irecv, b, ao).wait();
    } else {
      round = coll::alltoall(comm, isend, irecv, b, ao);
    }
    append(irecv);

    std::vector<std::byte> crecv(static_cast<std::size_t>(n * b),
                                 std::byte{0xEE});
    go.start_round = nonblocking ? 0 : round;
    if (nonblocking) {
      (void)coll::iallgather(comm, csend, crecv, b, go).wait();
    } else {
      round = coll::allgather(comm, csend, crecv, b, go);
    }
    append(crecv);

    std::vector<std::byte> rrecv(static_cast<std::size_t>(rbytes),
                                 std::byte{0xEE});
    ro.start_round = nonblocking ? 0 : round;
    if (nonblocking) {
      (void)coll::ireduce_scatter(comm, rsend, rrecv, rbytes, op, ro).wait();
    } else {
      round = coll::reduce_scatter(comm, rsend, rrecv, rbytes, op, ro);
    }
    append(rrecv);
  }
  return blob;
}

TEST(CrossProcess, HierarchicalLeaderModelMatchesOracleBitwise) {
  // n = 7 with groups of 3: a smaller last group, idle non-leaders during
  // the inter stage, and sub-communicator stages — on real processes.
  SweepConfig cfg;
  cfg.n = 7;
  cfg.k = 2;
  cfg.b = 12;
  cfg.seed = 0x41E7;
  const std::int64_t group = 3;
  const auto body = [cfg, group](mps::Communicator& comm) {
    return hier_body(comm, cfg, group);
  };
  mps::SpawnOptions so;
  so.n = cfg.n;
  so.k = cfg.k;
  so.record_trace = true;
  so.recv_timeout = std::chrono::milliseconds(20000);

  so.backend = mps::FabricBackend::kThread;
  const mps::SpawnResult oracle = mps::spawn_local(so, body);
  for (const auto& blob : oracle.rank_payloads) {
    const auto half =
        blob.begin() + static_cast<std::ptrdiff_t>(blob.size() / 2);
    ASSERT_TRUE(std::equal(blob.begin(), half, half, blob.end()))
        << "i* hierarchical payload diverged from the blocking call";
  }
  for (const mps::FabricBackend backend :
       {mps::FabricBackend::kShm, mps::FabricBackend::kSocket}) {
    so.backend = backend;
    const mps::SpawnResult got = mps::spawn_local(so, body);
    for (std::int64_t r = 0; r < cfg.n; ++r) {
      const auto& want = oracle.rank_payloads[static_cast<std::size_t>(r)];
      const auto& have = got.rank_payloads[static_cast<std::size_t>(r)];
      ASSERT_FALSE(want.empty());
      ASSERT_EQ(have, want) << "rank " << r << " hierarchical payload "
                            << "diverged on " << mps::to_string(backend);
    }
    ASSERT_TRUE(got.trace->to_schedule() == oracle.trace->to_schedule())
        << "hierarchical schedule diverged on " << mps::to_string(backend);
  }
}

TEST(CrossProcess, ShmBackpressureTinyRing) {
  // Force constant ring wraparound and push backpressure: a ring barely
  // bigger than the minimum must still complete a payload-heavy sweep
  // (the eager-drain path in wire_push is what prevents deadlock).
  SweepConfig cfg;
  cfg.n = 4;
  cfg.k = 2;
  cfg.b = 64;
  cfg.seed = 0xBEEF;
  cfg.segments = 1;
  const mps::SpawnResult oracle = run_backend(cfg, mps::FabricBackend::kThread);

  mps::SpawnOptions so;
  so.n = cfg.n;
  so.k = cfg.k;
  so.backend = mps::FabricBackend::kShm;
  so.record_trace = true;
  so.shm_ring_bytes = 4096;  // minimum ring: max segment 2016 bytes
  so.recv_timeout = std::chrono::milliseconds(20000);
  const mps::SpawnResult got = mps::spawn_local(
      so, [cfg](mps::Communicator& comm) { return sweep_body(comm, cfg); });
  for (std::int64_t r = 0; r < cfg.n; ++r) {
    ASSERT_EQ(got.rank_payloads[static_cast<std::size_t>(r)],
              oracle.rank_payloads[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
  ASSERT_TRUE(got.trace->to_schedule() == oracle.trace->to_schedule());
}

TEST(CrossProcess, ShmFrameCapSplitsOversizedMessages) {
  // Every family with wire messages far above the ring's one-frame cap
  // (2016 bytes for a 4096-byte ring) and segmentation forced off: the
  // port engine must raise each message's segment count until every
  // segment fits a ring record, identically on both ends.
  SweepConfig cfg;
  cfg.n = 4;
  cfg.k = 2;
  cfg.b = 5000;
  cfg.seed = 0xF4A3;
  cfg.segments = 1;
  const mps::SpawnResult oracle = run_backend(cfg, mps::FabricBackend::kThread);

  mps::SpawnOptions so;
  so.n = cfg.n;
  so.k = cfg.k;
  so.backend = mps::FabricBackend::kShm;
  so.record_trace = true;
  so.shm_ring_bytes = 4096;
  so.recv_timeout = std::chrono::milliseconds(20000);
  const mps::SpawnResult got = mps::spawn_local(
      so, [cfg](mps::Communicator& comm) { return sweep_body(comm, cfg); });
  for (std::int64_t r = 0; r < cfg.n; ++r) {
    ASSERT_EQ(got.rank_payloads[static_cast<std::size_t>(r)],
              oracle.rank_payloads[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
  ASSERT_TRUE(got.trace->to_schedule() == oracle.trace->to_schedule());
}

}  // namespace
}  // namespace bruck
