// Workload generation and per-rank execution of one generated op.
//
// A workload is a fabric plus a seeded, closed-loop op list.  The list is
// built in the launcher before any rank world starts, from the seed and the
// generator the workload names, and ranks receive only the list.  Each
// *sample* runs one pattern: a single blocking collective, or (nonblocking
// workloads) a batch of i* collectives completed by one wait_all.
//
// Every payload is derived from (cell seed, rank), so each rank checks its
// own outputs without further communication: index and concat results
// through coll/verify's fill/check helpers (on a cell's first run; later
// runs must reproduce that verified result byte for byte), reductions (i64
// sum) against a locally computed exact sum of all ranks' contributions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coll/layout.hpp"
#include "coll/request.hpp"
#include "mps/bootstrap.hpp"
#include "mps/communicator.hpp"

namespace perfbench {

inline constexpr std::int64_t kRanks = 4;
inline constexpr int kPorts = 1;

enum class Family : std::uint8_t {
  kAlltoall,
  kAllgather,
  kReduceScatter,
  kAllreduce,
};
inline constexpr Family kFamilies[] = {Family::kAlltoall, Family::kAllgather,
                                       Family::kReduceScatter,
                                       Family::kAllreduce};

[[nodiscard]] const char* family_name(Family f);

/// One distinct collective geometry of a workload.
struct Cell {
  Family family = Family::kAlltoall;
  /// Block bytes (alltoall/allgather/reduce_scatter) or the whole vector's
  /// bytes (allreduce).  Always a multiple of 8: reductions are i64 sums.
  std::int64_t bytes = 8;
  /// Strided alltoall: bytes per layout piece, pieces `2 * piece` apart
  /// (send and receive side alike).  0 = contiguous.
  std::int64_t piece = 0;
  /// Payload key of the cell's send data.
  std::uint64_t data_seed = 0;
};

struct Workload {
  std::string name;
  /// Generator the op list came from; workloads sharing one (thread_small,
  /// shm_small) get the same list for the same seed.
  std::string generator;
  bruck::mps::FabricBackend fabric = bruck::mps::FabricBackend::kThread;
  /// Patterns run as batches of i* calls completed by wait_all.
  bool nonblocking = false;
  std::vector<Cell> cells;
  /// Each pattern is the cell list of one sample (one cell when blocking).
  std::vector<std::vector<int>> patterns;
  /// Seeded sample sequence of pattern indices; cycled.
  std::vector<int> order;
  /// Samples per back-to-back throughput block.
  int block_samples = 1;
  /// Block bytes of the traced run's plan and facade probes: a size typical
  /// of the op list.
  std::int64_t probe_bytes = 256;
  /// Largest `bytes` the generator can draw.  Buffers are sized for it, so
  /// resident memory does not depend on the seed.
  std::int64_t max_bytes = 1024;
};

/// Names of the workloads make_workload accepts.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` from `seed`; throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Batches of eight ialltoall/ireduce_scatter calls, most fusable: the
/// thread_nb_batch workload's generator, also used by the traced run's
/// progress-engine probe on every fabric.
[[nodiscard]] Workload make_nb_batch_workload(std::uint64_t seed);

/// User payload bytes one collective of `cell` lands in each rank's
/// receive buffer.
[[nodiscard]] std::int64_t recv_payload_bytes(const Cell& cell);

/// One rank's prepared inputs for every cell of a workload, plus receive
/// slots for `slots` ops in flight at once.
class RankData {
 public:
  RankData(const Workload& w, std::int64_t rank, int slots);

  /// Cell `c`'s send buffer and receive slot `slot`, for callers that run
  /// a layer below the facade on the same inputs.
  [[nodiscard]] std::span<const std::byte> send(int c) const;
  [[nodiscard]] std::span<std::byte> recv_slot(int slot) {
    return recv_[static_cast<std::size_t>(slot)];
  }

  /// Overwrite slot `slot` with a poison pattern, so a collective that
  /// leaves it untouched fails verification.
  void poison(int slot);

  /// Run cell `c` as one blocking collective into recv slot `slot`;
  /// returns the next free tag-0 round.
  int run_blocking(bruck::mps::Communicator& comm, int c, int slot,
                   int round);

  /// Submit cell `c` as one nonblocking collective into recv slot `slot`.
  [[nodiscard]] bruck::coll::Request submit(bruck::mps::Communicator& comm,
                                            int c, int slot);

  /// Check recv slot `slot` after cell `c` ran; empty on success, else a
  /// description of the first mismatch.
  [[nodiscard]] std::string verify(int c, int slot);

 private:
  struct Prepared {
    std::vector<std::byte> send;
    std::int64_t send_bytes = 0;  ///< used prefix of `send`
    bruck::coll::Layout layout;  ///< strided cells only
    /// The cell's correct receive bytes: computed up front for reductions,
    /// captured from the first verified run for index and concat cells.
    std::vector<std::byte> expected;
  };
  const Workload& w_;
  std::int64_t rank_;
  std::vector<Prepared> prepared_;
  std::vector<std::vector<std::byte>> recv_;
  std::vector<std::byte> scratch_;
};

}  // namespace perfbench
