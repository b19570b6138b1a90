#include "workload.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace coll = bruck::coll;
using bruck::mps::FabricBackend;

const char* family_name(Family f) {
  switch (f) {
    case Family::kAlltoall:
      return "alltoall";
    case Family::kAllgather:
      return "allgather";
    case Family::kReduceScatter:
      return "reduce_scatter";
    case Family::kAllreduce:
      return "allreduce";
  }
  return "?";
}

namespace {

struct SizeClass {
  std::int64_t lo;
  std::int64_t hi;
};

/// A multiple of `step` drawn uniformly from [c.lo, c.hi].
std::int64_t draw(bruck::SplitMix64& rng, SizeClass c, std::int64_t step) {
  const auto choices = static_cast<std::uint64_t>((c.hi - c.lo) / step + 1);
  return c.lo + step * static_cast<std::int64_t>(rng.next_below(choices));
}

/// The generator's stream: a function of the seed and the generator name
/// only, so two workloads sharing a generator share their op list.
bruck::SplitMix64 generator_rng(const std::string& generator,
                                std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char ch : generator) {
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  return bruck::SplitMix64(h ^ (seed * 0x9e3779b97f4a7c15ULL));
}

int add_cell(Workload& w, bruck::SplitMix64& rng, Family f, std::int64_t bytes,
             std::int64_t piece = 0) {
  w.cells.push_back(Cell{f, bytes, piece, rng.next()});
  return static_cast<int>(w.cells.size()) - 1;
}

/// Append pattern p to the order `times` times.
void repeat(Workload& w, int p, int times) {
  for (int i = 0; i < times; ++i) w.order.push_back(p);
}

void shuffle(std::vector<int>& v, bruck::SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// All four blocking families, each at one seeded size in every band from
/// 8 B to 1 KiB, in equal shares.  The mix is fixed and the bands are narrow
/// (at most an eighth above a power of two), and the seed draws the sizes
/// and the order, so per-run medians and payload rates compare across seeds.
Workload small_ops(std::uint64_t seed) {
  static constexpr SizeClass kClasses[] = {
      {8, 8},     {16, 16},   {32, 32},   {64, 72},
      {128, 144}, {256, 288}, {512, 576}, {1024, 1024}};
  Workload w;
  w.generator = "small";
  auto rng = generator_rng(w.generator, seed);
  for (const Family f : kFamilies) {
    for (const SizeClass c : kClasses) {
      w.patterns.push_back({add_cell(w, rng, f, draw(rng, c, 8))});
      repeat(w, static_cast<int>(w.patterns.size()) - 1, 8);
    }
  }
  shuffle(w.order, rng);
  w.block_samples = 32;
  return w;
}

/// Alltoall and allreduce with 64-256 KiB blocks in three narrow bands near
/// 64, 128 and 256 KiB; a quarter of the alltoalls use a strided vector
/// layout (pieces of 256 B to 2 KiB at half density) on both sides.
Workload large_ops(std::uint64_t seed) {
  static constexpr SizeClass kClasses[] = {
      {64 << 10, 72 << 10}, {120 << 10, 136 << 10}, {240 << 10, 256 << 10}};
  static constexpr std::int64_t kPieces[] = {256, 512, 1024, 2048};
  Workload w;
  w.generator = "large";
  auto rng = generator_rng(w.generator, seed);
  for (const SizeClass c : kClasses) {
    const int contiguous =
        add_cell(w, rng, Family::kAlltoall, draw(rng, c, 4096));
    const int strided = add_cell(w, rng, Family::kAlltoall, draw(rng, c, 4096),
                                 kPieces[rng.next_below(4)]);
    const int reduce = add_cell(w, rng, Family::kAllreduce, draw(rng, c, 4096));
    for (const auto& [cell, times] :
         {std::pair{contiguous, 6}, std::pair{strided, 2},
          std::pair{reduce, 8}}) {
      w.patterns.push_back({cell});
      repeat(w, static_cast<int>(w.patterns.size()) - 1, times);
    }
  }
  shuffle(w.order, rng);
  w.block_samples = 4;
  w.probe_bytes = 128 << 10;
  w.max_bytes = 256 << 10;
  return w;
}

}  // namespace

Workload make_nb_batch_workload(std::uint64_t seed) {
  // Narrow bands, none straddling 512 B: eight blocks fuse only up to the
  // progress engine's default 4 KiB fused-block cap, and a band on both
  // sides would make the fused share depend on the seed.
  static constexpr SizeClass kClasses[] = {
      {64, 72}, {128, 144}, {256, 288}, {448, 512}, {960, 1024}};
  constexpr int kBatch = 8;
  Workload w;
  w.generator = "nb_batch";
  w.nonblocking = true;
  auto rng = generator_rng(w.generator, seed);
  // Uniform batches: eight members of one signature, so they may fuse.
  for (const Family f : {Family::kAlltoall, Family::kReduceScatter}) {
    for (const SizeClass c : kClasses) {
      w.patterns.push_back(
          std::vector<int>(kBatch, add_cell(w, rng, f, draw(rng, c, 8))));
      repeat(w, static_cast<int>(w.patterns.size()) - 1, 3);
    }
  }
  // Mixed batches: eight distinct cells across families and sizes, so no
  // two members share a fuse signature.
  for (int m = 0; m < 5; ++m) {
    std::vector<int> cells(w.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = static_cast<int>(i);
    shuffle(cells, rng);
    cells.resize(kBatch);
    w.patterns.push_back(std::move(cells));
    repeat(w, static_cast<int>(w.patterns.size()) - 1, 2);
  }
  shuffle(w.order, rng);
  w.block_samples = 4;
  return w;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "thread_small", "shm_small", "shm_large", "thread_nb_batch"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "thread_small" || name == "shm_small") {
    w = small_ops(seed);
    w.fabric = name == "shm_small" ? FabricBackend::kShm : FabricBackend::kThread;
  } else if (name == "shm_large") {
    w = large_ops(seed);
    w.fabric = FabricBackend::kShm;
  } else if (name == "thread_nb_batch") {
    w = make_nb_batch_workload(seed);
    w.fabric = FabricBackend::kThread;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.name = name;
  return w;
}

std::int64_t recv_payload_bytes(const Cell& cell) {
  switch (cell.family) {
    case Family::kAlltoall:
    case Family::kAllgather:
      return kRanks * cell.bytes;
    case Family::kReduceScatter:
    case Family::kAllreduce:
      return cell.bytes;
  }
  return 0;
}

namespace {

constexpr std::byte kPoison{0xA5};

/// Element `e` of `src`'s i64 contribution to block `block`.  |value| < 2^39,
/// so the sum over kRanks ranks never overflows.
std::int64_t reduce_value(std::uint64_t seed, std::int64_t src,
                          std::int64_t block, std::int64_t e) {
  bruck::SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(src) << 56) ^
                        (static_cast<std::uint64_t>(block) << 48) ^
                        static_cast<std::uint64_t>(e));
  return static_cast<std::int64_t>(rng.next() >> 25) - (std::int64_t{1} << 38);
}

/// Fill `out` with `src`'s contribution to block `block`, or (src < 0) with
/// the sum of every rank's contribution.
void fill_reduce(std::span<std::byte> out, std::uint64_t seed,
                 std::int64_t src, std::int64_t block) {
  const auto elems = static_cast<std::int64_t>(out.size() / 8);
  for (std::int64_t e = 0; e < elems; ++e) {
    std::int64_t v = 0;
    if (src >= 0) {
      v = reduce_value(seed, src, block, e);
    } else {
      for (std::int64_t r = 0; r < kRanks; ++r) v += reduce_value(seed, r, block, e);
    }
    std::memcpy(out.data() + e * 8, &v, 8);
  }
}

std::span<std::byte> first(std::vector<std::byte>& v, std::int64_t bytes) {
  return std::span<std::byte>(v).first(static_cast<std::size_t>(bytes));
}

std::span<const std::byte> first(const std::vector<std::byte>& v,
                                 std::int64_t bytes) {
  return std::span<const std::byte>(v).first(static_cast<std::size_t>(bytes));
}

}  // namespace

RankData::RankData(const Workload& w, std::int64_t rank, int slots)
    : w_(w), rank_(rank) {
  const std::int64_t n = kRanks;
  const std::int64_t max_b = w.max_bytes;
  for (const Cell& c : w.cells) {
    Prepared p;
    const auto b = c.bytes;
    std::int64_t send_cap = max_b;
    switch (c.family) {
      case Family::kAlltoall:
        p.send.assign(static_cast<std::size_t>(n * b), std::byte{0});
        coll::fill_index_send(p.send, n, rank, b, c.data_seed);
        if (c.piece > 0) {
          p.layout = coll::Layout::vector(b / c.piece, c.piece, 2 * c.piece);
          std::vector<std::byte> strided(
              static_cast<std::size_t>(p.layout.span_bytes(n)), std::byte{0});
          coll::layout_scatter_all(strided, p.layout, n, p.send);
          p.send = std::move(strided);
        }
        send_cap = 2 * n * max_b;
        break;
      case Family::kAllgather:
        p.send.assign(static_cast<std::size_t>(b), std::byte{0});
        coll::fill_concat_send(p.send, rank, b, c.data_seed);
        break;
      case Family::kReduceScatter:
        p.send.assign(static_cast<std::size_t>(n * b), std::byte{0});
        for (std::int64_t j = 0; j < n; ++j) {
          fill_reduce(std::span<std::byte>(p.send).subspan(
                          static_cast<std::size_t>(j * b),
                          static_cast<std::size_t>(b)),
                      c.data_seed, rank, j);
        }
        p.expected.assign(static_cast<std::size_t>(b), std::byte{0});
        fill_reduce(p.expected, c.data_seed, -1, rank);
        send_cap = n * max_b;
        break;
      case Family::kAllreduce:
        p.send.assign(static_cast<std::size_t>(b), std::byte{0});
        fill_reduce(p.send, c.data_seed, rank, 0);
        p.expected.assign(static_cast<std::size_t>(b), std::byte{0});
        fill_reduce(p.expected, c.data_seed, -1, 0);
        break;
    }
    p.send_bytes = static_cast<std::int64_t>(p.send.size());
    p.send.resize(static_cast<std::size_t>(std::max(p.send_bytes, send_cap)));
    prepared_.push_back(std::move(p));
  }
  // Large enough for any cell up to max_bytes, strided alltoall included.
  const auto recv_bytes = static_cast<std::size_t>(2 * n * max_b);
  recv_.assign(static_cast<std::size_t>(slots),
               std::vector<std::byte>(recv_bytes, kPoison));
  scratch_.assign(recv_bytes, std::byte{0});
}

std::span<const std::byte> RankData::send(int c) const {
  const Prepared& p = prepared_[static_cast<std::size_t>(c)];
  return first(p.send, p.send_bytes);
}

void RankData::poison(int slot) {
  auto& r = recv_[static_cast<std::size_t>(slot)];
  std::memset(r.data(), static_cast<int>(kPoison), r.size());
}

int RankData::run_blocking(bruck::mps::Communicator& comm, int c, int slot,
                           int round) {
  const Cell& cell = w_.cells[static_cast<std::size_t>(c)];
  const Prepared& p = prepared_[static_cast<std::size_t>(c)];
  auto& recv = recv_[static_cast<std::size_t>(slot)];
  const auto op = coll::ReduceOp::sum(coll::ReduceElem::kI64);
  const auto b = cell.bytes;
  switch (cell.family) {
    case Family::kAlltoall: {
      coll::AlltoallOptions o;
      o.hier = coll::HierMode::kOff;
      o.start_round = round;
      if (cell.piece > 0) {
        return coll::alltoall(comm, send(c), first(recv, p.send_bytes),
                              p.layout, p.layout, o);
      }
      return coll::alltoall(comm, send(c), first(recv, kRanks * b), b, o);
    }
    case Family::kAllgather: {
      coll::AllgatherOptions o;
      o.hier = coll::HierMode::kOff;
      o.start_round = round;
      return coll::allgather(comm, send(c), first(recv, kRanks * b), b, o);
    }
    case Family::kReduceScatter: {
      coll::ReduceScatterOptions o;
      o.hier = coll::HierMode::kOff;
      o.start_round = round;
      return coll::reduce_scatter(comm, send(c), first(recv, b), b, op, o);
    }
    case Family::kAllreduce: {
      coll::AllreduceOptions o;
      o.start_round = round;
      return coll::allreduce(comm, send(c), first(recv, b), op, o);
    }
  }
  throw std::logic_error("unreachable family");
}

coll::Request RankData::submit(bruck::mps::Communicator& comm, int c,
                               int slot) {
  const Cell& cell = w_.cells[static_cast<std::size_t>(c)];
  auto& recv = recv_[static_cast<std::size_t>(slot)];
  const auto b = cell.bytes;
  switch (cell.family) {
    case Family::kAlltoall: {
      coll::AlltoallOptions o;
      o.hier = coll::HierMode::kOff;
      return coll::ialltoall(comm, send(c), first(recv, kRanks * b), b, o);
    }
    case Family::kReduceScatter: {
      coll::ReduceScatterOptions o;
      o.hier = coll::HierMode::kOff;
      return coll::ireduce_scatter(comm, send(c), first(recv, b), b,
                                   coll::ReduceOp::sum(coll::ReduceElem::kI64),
                                   o);
    }
    case Family::kAllgather:
    case Family::kAllreduce:
      break;
  }
  throw std::logic_error(std::string("no nonblocking workload issues ") +
                         family_name(cell.family));
}

std::string RankData::verify(int c, int slot) {
  const Cell& cell = w_.cells[static_cast<std::size_t>(c)];
  Prepared& p = prepared_[static_cast<std::size_t>(c)];
  const auto& recv = recv_[static_cast<std::size_t>(slot)];
  const auto b = cell.bytes;
  std::int64_t got_bytes = b;
  if (cell.family == Family::kAlltoall || cell.family == Family::kAllgather) {
    got_bytes = cell.piece > 0 ? p.send_bytes : kRanks * b;
  }
  const auto got = first(recv, got_bytes);
  std::string err;
  if (!p.expected.empty()) {
    if (std::memcmp(got.data(), p.expected.data(), got.size()) != 0) {
      err = "result differs from the expected bytes";
    }
  } else {
    // First run of an index or concat cell: check it with coll/verify's
    // helpers, then keep it as the cell's expected result, so later runs
    // get the same check at memcmp speed.
    if (cell.family == Family::kAllgather) {
      err = coll::check_concat_recv(got, kRanks, b, cell.data_seed);
    } else if (cell.piece > 0) {
      auto packed = first(scratch_, kRanks * b);
      coll::layout_gather_all(got, p.layout, kRanks, packed);
      err = coll::check_index_recv(packed, kRanks, rank_, b, cell.data_seed);
    } else {
      err = coll::check_index_recv(got, kRanks, rank_, b, cell.data_seed);
    }
    if (err.empty()) p.expected.assign(got.begin(), got.end());
  }
  if (err.empty()) return err;
  return std::string(family_name(cell.family)) + " " + std::to_string(b) +
         " B on rank " + std::to_string(rank_) + ": " + err;
}

}  // namespace perfbench
