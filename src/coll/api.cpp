#include "coll/api.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string_view>
#include <vector>

#include "coll/bcast.hpp"
#include "coll/composite.hpp"
#include "coll/concat_bruck.hpp"
#include "coll/concat_folklore.hpp"
#include "coll/concat_ring.hpp"
#include "coll/gather_scatter.hpp"
#include "coll/index_bruck.hpp"
#include "coll/index_direct.hpp"
#include "coll/index_pairwise.hpp"
#include "coll/plan_cache.hpp"
#include "coll/progress.hpp"
#include "coll/vector_reference.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace bruck::coll {

std::string to_string(IndexAlgorithm a) {
  switch (a) {
    case IndexAlgorithm::kBruck: return "bruck";
    case IndexAlgorithm::kDirect: return "direct";
    case IndexAlgorithm::kPairwise: return "pairwise";
    case IndexAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(ConcatAlgorithm a) {
  switch (a) {
    case ConcatAlgorithm::kBruck: return "bruck";
    case ConcatAlgorithm::kFolklore: return "folklore";
    case ConcatAlgorithm::kRing: return "ring";
    case ConcatAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(ExecutionPath p) {
  switch (p) {
    case ExecutionPath::kReference: return "reference";
    case ExecutionPath::kPipelined: return "pipelined";
  }
  return "?";
}

std::string to_string(ReduceAlgorithm a) {
  switch (a) {
    case ReduceAlgorithm::kBruck: return "bruck";
    case ReduceAlgorithm::kDirect: return "direct";
    case ReduceAlgorithm::kPairwise: return "pairwise";
    case ReduceAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(HierMode m) {
  switch (m) {
    case HierMode::kDefault: return "default";
    case HierMode::kOff: return "off";
    case HierMode::kOn: return "on";
    case HierMode::kAuto: return "auto";
  }
  return "?";
}

std::optional<HierMode> parse_hier_mode(const char* text) {
  if (text == nullptr) return std::nullopt;
  const std::string_view s(text);
  if (s == "off") return HierMode::kOff;
  if (s == "on") return HierMode::kOn;
  if (s == "auto") return HierMode::kAuto;
  return std::nullopt;
}

std::optional<std::int64_t> parse_hier_group(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') return std::nullopt;  // junk / trailing junk
  if (errno == ERANGE) return std::nullopt;
  if (v < 0 || v > (1 << 20)) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

HierMode default_hier_mode() {
  const char* env = std::getenv("BRUCK_HIER");
  if (env == nullptr) return HierMode::kOff;
  if (const auto parsed = parse_hier_mode(env)) return *parsed;
  static std::once_flag warned;
  std::call_once(warned, [env] {
    std::fprintf(stderr,
                 "bruck: ignoring invalid BRUCK_HIER=\"%s\" "
                 "(want off|on|auto); using off\n",
                 env);
  });
  return HierMode::kOff;
}

std::int64_t default_hier_group() {
  const char* env = std::getenv("BRUCK_HIER_GROUP_SIZE");
  if (env == nullptr) return 0;
  if (const auto parsed = parse_hier_group(env)) return *parsed;
  static std::once_flag warned;
  std::call_once(warned, [env] {
    std::fprintf(stderr,
                 "bruck: ignoring invalid BRUCK_HIER_GROUP_SIZE=\"%s\" "
                 "(want an integer in [0, 1048576]); using 0\n",
                 env);
  });
  return 0;
}

namespace {

/// Option-level hier knobs resolved against the environment: kDefault
/// defers to BRUCK_HIER, a zero group to BRUCK_HIER_GROUP_SIZE.
HierMode resolve_hier_mode(HierMode mode) {
  return mode == HierMode::kDefault ? default_hier_mode() : mode;
}

std::int64_t resolve_hier_group(std::int64_t group) {
  return group != 0 ? group : default_hier_group();
}

/// Whether a plain contiguous call should run the hierarchical composite:
/// the knob resolves past kOff, the geometry is non-degenerate, and the
/// caller didn't force a non-Bruck flat algorithm (`bruck_family`).
bool hier_eligible(HierMode resolved, std::int64_t n, std::int64_t block_bytes,
                   bool bruck_family) {
  return resolved != HierMode::kOff && n > 1 && block_bytes > 0 &&
         bruck_family;
}

/// Packed canonical layout: block i at the prefix sum of sizes [0, i).
std::vector<std::int64_t> prefix_displs(std::span<const std::int64_t> sizes) {
  std::vector<std::int64_t> displs(sizes.size());
  std::int64_t pos = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    displs[i] = pos;
    pos += sizes[i];
  }
  return displs;
}

/// prefix_displs in layout space: block i's origin at the prefix sum of
/// the *physical* footprints span_of(count) — degenerates to prefix_displs
/// for contiguous layouts.
std::vector<std::int64_t> layout_prefix_displs(
    const Layout& layout, std::span<const std::int64_t> counts) {
  std::vector<std::int64_t> displs(counts.size());
  std::int64_t pos = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    displs[i] = pos;
    pos += layout.span_of(counts[i]);
  }
  return displs;
}

/// Column `rank` of the n×n count matrix: what every rank sends to `rank`.
std::vector<std::int64_t> count_column(std::span<const std::int64_t> counts,
                                       std::int64_t n, std::int64_t rank) {
  std::vector<std::int64_t> col(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    col[static_cast<std::size_t>(i)] =
        counts[static_cast<std::size_t>(i * n + rank)];
  }
  return col;
}

/// The preconditions every uniform layout overload shares: equal logical
/// block sizes and buffers covering the layouts' physical spans.  Returns
/// whether the pair is genuinely strided (false: both contiguous — the
/// call is the plain one over the leading blocks).
bool strided_layouts(std::span<const std::byte> send,
                     std::span<const std::byte> recv, const Layout& send_layout,
                     const Layout& recv_layout, std::int64_t send_blocks,
                     std::int64_t recv_blocks) {
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == send_layout.block_bytes(),
                    "send and recv layouts must carry the same logical "
                    "block size");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >=
              send_layout.span_bytes(send_blocks) &&
          static_cast<std::int64_t>(recv.size()) >=
              recv_layout.span_bytes(recv_blocks),
      "buffers must cover the layouts' physical span");
  return !(send_layout.is_contiguous() && recv_layout.is_contiguous());
}

/// The fields every resolver fills the same way.
OpSpec make_spec(OpSpec::Family family, std::span<const std::byte> send,
                 std::span<std::byte> recv, std::int64_t block_bytes,
                 const model::LinearModel& machine, int segments,
                 int start_round) {
  OpSpec spec;
  spec.family = family;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = block_bytes;
  // A default-machine caller gets the calibrated constants when a fabric
  // bootstrap published them (see model::effective_machine).
  spec.machine = model::effective_machine(machine);
  spec.requested_segments = segments;
  spec.start_round = start_round;
  return spec;
}

/// Attach a uniform layout overload's layouts to `spec`, whose block_bytes
/// is already their logical block size: genuinely strided layouts are
/// kept (value copies); a contiguous pair resolves as the plain call over
/// the leading blocks — same plan, same cache key, same zero-copy path.
void attach_layouts(OpSpec& spec, const LayoutPair& layouts,
                    std::int64_t send_blocks, std::int64_t recv_blocks) {
  if (layouts.send == nullptr) return;
  if (!strided_layouts(spec.send, spec.recv, *layouts.send, *layouts.recv,
                       send_blocks, recv_blocks)) {
    spec.send = spec.send.first(
        static_cast<std::size_t>(send_blocks * spec.block_bytes));
    spec.recv = spec.recv.first(
        static_cast<std::size_t>(recv_blocks * spec.block_bytes));
    return;
  }
  spec.send_layout = *layouts.send;
  spec.recv_layout = *layouts.recv;
  spec.has_layout = true;
}

std::uint64_t spec_layout_digest(const OpSpec& spec) {
  return spec.has_layout ? layout_digest(&spec.send_layout, &spec.recv_layout)
                         : 0;
}

/// The segment knob resolved against the spec's machine and measures: a
/// learned hint stands in for an unset request and goes through the same
/// clamp as a user-requested count.
int resolve_segments(const OpSpec& spec, int hint = 0) {
  return model::resolve_segment_knob(
      spec.requested_segments == 0 && hint > 0 ? hint
                                               : spec.requested_segments,
      /*pipelined=*/true, spec.machine, spec.predicted);
}

model::CostMetrics concat_cost(ConcatAlgorithm algorithm, std::int64_t n,
                               int k, std::int64_t block_bytes,
                               model::ConcatLastRound strategy) {
  switch (algorithm) {
    case ConcatAlgorithm::kFolklore:
      return model::concat_folklore_cost(n, block_bytes);
    case ConcatAlgorithm::kRing:
      return model::concat_ring_cost(n, block_bytes);
    case ConcatAlgorithm::kBruck:
    case ConcatAlgorithm::kAuto:
      break;
  }
  return model::concat_bruck_cost(n, k, block_bytes, strategy);
}

/// A flat allgather's key and measures: canonicalized algorithm and
/// last-round strategy, so equal geometries share a key.
void key_concat(OpSpec& spec, ConcatAlgorithm requested,
                model::ConcatLastRound last_round, std::int64_t n, int k) {
  const ConcatAlgorithm algorithm = requested == ConcatAlgorithm::kAuto
                                        ? ConcatAlgorithm::kBruck
                                        : requested;
  const model::ConcatLastRound strategy =
      algorithm == ConcatAlgorithm::kBruck
          ? model::resolve_concat_last_round(n, k, spec.block_bytes,
                                             last_round)
          : last_round;
  spec.predicted = concat_cost(algorithm, n, k, spec.block_bytes, strategy);
  spec.key = concat_plan_key(algorithm, n, k, strategy, spec.block_bytes,
                             resolve_segments(spec), spec_layout_digest(spec));
}

OpSpec resolve_alltoall(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, std::int64_t block_bytes,
                        const AlltoallOptions& options,
                        const LayoutPair& layouts = {}) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  OpSpec spec = make_spec(OpSpec::Family::kAlltoall, send, recv, block_bytes,
                          options.machine, options.segments,
                          options.start_round);
  attach_layouts(spec, layouts, n, n);
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (!spec.has_layout &&
      hier_eligible(hmode, n, block_bytes,
                    options.algorithm == IndexAlgorithm::kAuto ||
                        options.algorithm == IndexAlgorithm::kBruck)) {
    const model::HierChoice choice = model::pick_index_plan_cached(
        n, k, block_bytes, model::effective_two_level(options.hier_machine),
        options.radix_set, resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || choice.hier) {
      HierShape shape;
      shape.group = choice.group;
      shape.inter_radix = choice.inter_radix;
      spec.composite = std::make_shared<const CompositePlan>(
          CompositePlan::lower_index_hier(n, k, comm.rank(), block_bytes,
                                          shape));
      return spec;
    }
  }
  const AlltoallPlan plan = plan_alltoall(n, k, block_bytes, options);
  spec.predicted = plan.predicted;
  spec.key = index_plan_key(plan.algorithm, n, k, plan.radix,
                            resolve_segments(spec, plan.segments_hint),
                            spec_layout_digest(spec));
  return spec;
}

OpSpec resolve_allgather(mps::Communicator& comm,
                         std::span<const std::byte> send,
                         std::span<std::byte> recv, std::int64_t block_bytes,
                         const AllgatherOptions& options,
                         const LayoutPair& layouts = {}) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  OpSpec spec = make_spec(OpSpec::Family::kAllgather, send, recv, block_bytes,
                          options.machine, options.segments,
                          options.start_round);
  attach_layouts(spec, layouts, 1, n);
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (!spec.has_layout &&
      hier_eligible(hmode, n, block_bytes,
                    options.algorithm == ConcatAlgorithm::kAuto ||
                        options.algorithm == ConcatAlgorithm::kBruck)) {
    const model::HierChoice choice = model::pick_concat_plan_cached(
        n, k, block_bytes, model::effective_two_level(options.hier_machine),
        options.last_round, resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || choice.hier) {
      HierShape shape;
      shape.group = choice.group;
      shape.strategy = options.last_round;
      spec.composite = std::make_shared<const CompositePlan>(
          CompositePlan::lower_concat_hier(n, k, comm.rank(), block_bytes,
                                           shape));
      return spec;
    }
  }
  key_concat(spec, options.algorithm, options.last_round, n, k);
  return spec;
}

/// The largest of a vector family's counts, which must be non-negative.
std::int64_t max_count(std::span<const std::int64_t> counts) {
  std::int64_t max = 0;
  for (const std::int64_t c : counts) {
    BRUCK_REQUIRE_MSG(c >= 0, "counts must be non-negative");
    max = std::max(max, c);
  }
  return max;
}

/// An alltoallv call before tuning: checked layouts and owned shape tables,
/// empty displacements defaulted to the packed canonical layout (in layout
/// space for strided layouts).  The reference oracle needs no more.
OpSpec indexv_shape(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv,
                    std::span<const std::int64_t> counts,
                    std::span<const std::int64_t> send_displs,
                    std::span<const std::int64_t> recv_displs,
                    const AlltoallvOptions& options,
                    const LayoutPair& layouts) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n * n,
                    "alltoallv needs the full n*n count matrix");
  const std::int64_t max_pair = max_count(counts);

  OpSpec spec = make_spec(OpSpec::Family::kAlltoallv, send, recv, 0,
                          options.machine, options.segments,
                          options.start_round);
  if (layouts.send != nullptr &&
      !(layouts.send->is_contiguous() && layouts.recv->is_contiguous())) {
    BRUCK_REQUIRE_MSG(layouts.send->block_bytes() >= max_pair &&
                          layouts.recv->block_bytes() >= max_pair,
                      "layouts must cover the largest pair count");
    spec.send_layout = *layouts.send;
    spec.recv_layout = *layouts.recv;
    spec.has_layout = true;
  }
  spec.counts.assign(counts.begin(), counts.end());
  const std::span<const std::int64_t> row = counts.subspan(
      static_cast<std::size_t>(rank * n), static_cast<std::size_t>(n));
  if (send_displs.empty()) {
    spec.send_displs = spec.has_layout
                           ? layout_prefix_displs(spec.send_layout, row)
                           : prefix_displs(row);
  } else {
    spec.send_displs.assign(send_displs.begin(), send_displs.end());
  }
  if (recv_displs.empty()) {
    const std::vector<std::int64_t> col = count_column(counts, n, rank);
    spec.recv_displs = spec.has_layout
                           ? layout_prefix_displs(spec.recv_layout, col)
                           : prefix_displs(col);
  } else {
    spec.recv_displs.assign(recv_displs.begin(), recv_displs.end());
  }
  BRUCK_REQUIRE(static_cast<std::int64_t>(spec.send_displs.size()) == n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(spec.recv_displs.size()) == n);
  spec.pad_bytes = max_pair;
  return spec;
}

OpSpec resolve_alltoallv(mps::Communicator& comm,
                         std::span<const std::byte> send,
                         std::span<std::byte> recv,
                         std::span<const std::int64_t> counts,
                         std::span<const std::int64_t> send_displs,
                         std::span<const std::int64_t> recv_displs,
                         const AlltoallvOptions& options,
                         const LayoutPair& layouts = {}) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  OpSpec spec = indexv_shape(comm, send, recv, counts, send_displs,
                             recv_displs, options, layouts);
  const std::int64_t max_pair = spec.pad_bytes;
  const std::int64_t total =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});

  // Algorithm, radix and measures from the shape statistics.
  const std::int64_t mean =
      std::max<std::int64_t>(1, (total + n * n - 1) / (n * n));
  IndexAlgorithm algorithm = options.algorithm;
  std::int64_t radix = std::max<std::int64_t>(2, n);
  switch (options.algorithm) {
    case IndexAlgorithm::kDirect:
      spec.predicted = model::index_direct_cost(n, k, max_pair);
      break;
    case IndexAlgorithm::kPairwise:
      spec.predicted = model::index_pairwise_cost(n, k, max_pair);
      break;
    case IndexAlgorithm::kBruck:
      radix = options.radix != 0
                  ? options.radix
                  : model::pick_index_radix_cached(n, k, mean, spec.machine,
                                                   options.radix_set)
                        .radix;
      spec.predicted = model::index_bruck_cost(n, radix, k, mean);
      break;
    case IndexAlgorithm::kAuto: {
      const model::VectorIndexChoice choice = model::pick_indexv_cached(
          n, k, total, max_pair, spec.machine, options.radix_set);
      algorithm =
          choice.direct ? IndexAlgorithm::kDirect : IndexAlgorithm::kBruck;
      radix = choice.radix;
      spec.predicted = choice.predicted;
      break;
    }
  }
  spec.key = indexv_plan_key(algorithm, n, k, radix, shape_digest(counts),
                             resolve_segments(spec), spec_layout_digest(spec));
  return spec;
}

/// An allgatherv call before tuning: owned shape tables, empty recv
/// displacements defaulted to the packed canonical layout.
OpSpec concatv_shape(mps::Communicator& comm, std::span<const std::byte> send,
                     std::span<std::byte> recv,
                     std::span<const std::int64_t> counts,
                     std::span<const std::int64_t> recv_displs,
                     const AllgathervOptions& options) {
  const std::int64_t n = comm.size();
  BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n,
                    "allgatherv needs one count per rank");
  OpSpec spec = make_spec(OpSpec::Family::kAllgatherv, send, recv, 0,
                          options.machine, options.segments,
                          options.start_round);
  spec.pad_bytes = max_count(counts);
  spec.counts.assign(counts.begin(), counts.end());
  if (recv_displs.empty()) {
    spec.recv_displs = prefix_displs(counts);
  } else {
    spec.recv_displs.assign(recv_displs.begin(), recv_displs.end());
  }
  BRUCK_REQUIRE(static_cast<std::int64_t>(spec.recv_displs.size()) == n);
  return spec;
}

OpSpec resolve_allgatherv(mps::Communicator& comm,
                          std::span<const std::byte> send,
                          std::span<std::byte> recv,
                          std::span<const std::int64_t> counts,
                          std::span<const std::int64_t> recv_displs,
                          const AllgathervOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  OpSpec spec = concatv_shape(comm, send, recv, counts, recv_displs, options);
  const std::int64_t total =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  const ConcatAlgorithm algorithm =
      options.algorithm == ConcatAlgorithm::kAuto ? ConcatAlgorithm::kBruck
                                                  : options.algorithm;
  // Segment tuning sees the mean block (wire messages carry trimmed true
  // sizes, so the mean is the honest per-message estimate).
  spec.predicted = concat_cost(algorithm, n, k, (total + n - 1) / n,
                               model::ConcatLastRound::kColumnGranular);
  spec.key = concatv_plan_key(algorithm, n, k, shape_digest(counts),
                              resolve_segments(spec));
  return spec;
}

OpSpec resolve_reduce_scatter(mps::Communicator& comm,
                              std::span<const std::byte> send,
                              std::span<std::byte> recv,
                              std::int64_t block_bytes, const ReduceOp& op,
                              const ReduceScatterOptions& options,
                              const LayoutPair& layouts = {}) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  BRUCK_REQUIRE(block_bytes >= 0);
  BRUCK_REQUIRE_MSG(op.elem_bytes() >= 1 && block_bytes % op.elem_bytes() == 0,
                    "block size must be a whole number of op elements");
  OpSpec spec = make_spec(OpSpec::Family::kReduceScatter, send, recv,
                          block_bytes, options.machine, options.segments,
                          options.start_round);
  spec.op = op;
  attach_layouts(spec, layouts, n, 1);
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (!spec.has_layout &&
      hier_eligible(hmode, n, block_bytes,
                    options.algorithm == ReduceAlgorithm::kAuto ||
                        options.algorithm == ReduceAlgorithm::kBruck)) {
    const model::HierChoice choice = model::pick_reduce_plan_cached(
        n, k, block_bytes, model::effective_two_level(options.hier_machine),
        options.radix_set, resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || choice.hier) {
      HierShape shape;
      shape.group = choice.group;
      shape.inter_radix = choice.inter_radix;
      spec.composite = std::make_shared<const CompositePlan>(
          CompositePlan::lower_reduce_hier(n, k, comm.rank(), block_bytes, op,
                                           shape));
      return spec;
    }
  }
  const detail::ReducePlanChoice choice = detail::resolve_reduce_algorithm(
      n, k, block_bytes, options.algorithm, options.radix, options.machine,
      options.radix_set);
  spec.predicted = choice.predicted;
  spec.key = reduce_plan_key(choice.algorithm, n, k, choice.radix, op,
                             resolve_segments(spec, choice.segments_hint),
                             spec_layout_digest(spec));
  return spec;
}

/// Allreduce = reduce-scatter over ⌈elems/n⌉-element blocks (zero-padded
/// tail) chained into an allgather of the reduced blocks, both stages
/// resolved up front and run as one composite.  Layouts only steer the
/// staging copies — the wire stages run contiguous, so neither stage key
/// carries a layout digest.
OpSpec resolve_allreduce(mps::Communicator& comm,
                         std::span<const std::byte> send,
                         std::span<std::byte> recv, const ReduceOp& op,
                         const AllreduceOptions& options,
                         const LayoutPair& layouts = {}) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t ew = op.elem_bytes();
  const std::int64_t bytes = layouts.send != nullptr
                                 ? layouts.send->block_bytes()
                                 : static_cast<std::int64_t>(send.size());
  if (layouts.send == nullptr) {
    BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == bytes);
  }
  BRUCK_REQUIRE_MSG(ew >= 1 && bytes % ew == 0,
                    "payload must be a whole number of op elements");
  OpSpec spec = make_spec(OpSpec::Family::kAllreduce, send, recv, bytes,
                          options.machine, options.segments,
                          options.start_round);
  spec.op = op;
  attach_layouts(spec, layouts, 1, 1);

  const std::int64_t b = ceil_div(bytes / ew, n) * ew;
  spec.block_bytes = b;
  const detail::ReducePlanChoice choice = detail::resolve_reduce_algorithm(
      n, k, b, options.algorithm, options.radix, options.machine,
      options.radix_set);
  spec.predicted = choice.predicted;
  const PlanKey reduce_key =
      reduce_plan_key(choice.algorithm, n, k, choice.radix, op,
                      resolve_segments(spec, choice.segments_hint));
  OpSpec concat = spec;  // the allgather stage's recipe
  concat.has_layout = false;
  key_concat(concat, options.concat, model::ConcatLastRound::kAuto, n, k);
  spec.composite = std::make_shared<const CompositePlan>(
      CompositePlan::allreduce_chain(reduce_key, concat.key, n, b));
  return spec;
}

/// Run a resolved blocking call inline on the caller's stack.  A fully
/// tuner-driven flat Bruck alltoall or reduce-scatter (`tuned_radix`, no
/// forced segment count) takes part in live adaptive exploration when a
/// tuner installed the hook: the decided radix/segments re-key the op, and
/// the measured wall time is echoed back with the decided config — not its
/// clamped resolution — so the learner can match the arm it scheduled.
int run_blocking(mps::Communicator& comm, OpSpec spec,
                 bool tuned_radix = false) {
  const bool reduce = spec.family == OpSpec::Family::kReduceScatter;
  const std::uint8_t bruck =
      reduce ? static_cast<std::uint8_t>(ReduceAlgorithm::kBruck)
             : static_cast<std::uint8_t>(IndexAlgorithm::kBruck);
  if (!tuned_radix || spec.requested_segments != 0 || spec.composite ||
      spec.has_layout || spec.key.algorithm != bruck ||
      !model::adaptive_hook_installed()) {
    return run_serial_op(comm, spec, spec.start_round).next_round;
  }
  const model::TunerQuery query = model::make_tuner_query(
      reduce ? model::TunedFamily::kReduceScatter
             : model::TunedFamily::kIndexRadix,
      comm.size(), comm.ports(), spec.block_bytes, spec.machine);
  model::TunerConfig base;
  base.radix = spec.key.radix;
  base.segments = spec.key.segments;
  const model::TunerConfig decided = model::adaptive_decision(query, base);
  if (decided.radix > 0) spec.key.radix = decided.radix;
  if (decided.segments > 0) spec.key.segments = decided.segments;
  // Lower outside the timed region: the learner compares executions.
  (void)PlanCache::global().get_or_lower(spec.key);
  const auto start = std::chrono::steady_clock::now();
  const int next = run_serial_op(comm, spec, spec.start_round).next_round;
  model::ExecutionSample sample;
  sample.query = query;
  sample.config = decided;
  sample.wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  sample.predicted_us = reduce ? spec.machine.predict_reduce_us(spec.predicted)
                               : spec.machine.predict_us(spec.predicted);
  model::notify_execution(sample);
  return next;
}

}  // namespace

AlltoallPlan plan_alltoall(std::int64_t n, int k, std::int64_t block_bytes,
                           const AlltoallOptions& options) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  // A default-machine caller gets the calibrated constants when a fabric
  // bootstrap published them (see model::effective_machine).
  const model::LinearModel machine = model::effective_machine(options.machine);
  AlltoallPlan plan;
  switch (options.algorithm) {
    case IndexAlgorithm::kDirect:
      plan.algorithm = IndexAlgorithm::kDirect;
      plan.radix = std::max<std::int64_t>(2, n);
      plan.predicted = model::index_direct_cost(n, k, block_bytes);
      break;
    case IndexAlgorithm::kPairwise:
      plan.algorithm = IndexAlgorithm::kPairwise;
      plan.radix = std::max<std::int64_t>(2, n);
      plan.predicted = model::index_pairwise_cost(n, k, block_bytes);
      break;
    case IndexAlgorithm::kBruck:
    case IndexAlgorithm::kAuto: {
      plan.algorithm = IndexAlgorithm::kBruck;
      if (options.radix != 0) {
        plan.radix = options.radix;
        plan.predicted =
            model::index_bruck_cost(n, plan.radix, k, block_bytes);
      } else {
        // Memoized: repeated kAuto calls on one geometry skip the sweep.
        const model::RadixChoice choice = model::pick_index_radix_cached(
            n, k, block_bytes, machine, options.radix_set);
        plan.radix = choice.radix;
        plan.predicted = choice.metrics;
        plan.segments_hint = choice.segments_hint;
      }
      break;
    }
  }
  plan.predicted_us = machine.predict_us(plan.predicted);
  return plan;
}

// -- Blocking entry points ---------------------------------------------------
//
// kReference runs the inline oracle; every other call is its family's
// resolver plus run_serial_op — the same resolved op the i* twin submits.

int alltoall(mps::Communicator& comm, std::span<const std::byte> send,
             std::span<std::byte> recv, std::int64_t block_bytes,
             const AlltoallOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    const AlltoallPlan plan =
        plan_alltoall(comm.size(), comm.ports(), block_bytes, options);
    switch (plan.algorithm) {
      case IndexAlgorithm::kDirect:
        return index_direct(comm, send, recv, block_bytes,
                            IndexDirectOptions{options.start_round});
      case IndexAlgorithm::kPairwise:
        return index_pairwise(comm, send, recv, block_bytes,
                              IndexPairwiseOptions{options.start_round});
      case IndexAlgorithm::kBruck:
      case IndexAlgorithm::kAuto:
        return index_bruck(comm, send, recv, block_bytes,
                           IndexBruckOptions{plan.radix, options.start_round});
    }
    BRUCK_ENSURE_MSG(false, "unreachable");
    return options.start_round;
  }
  return run_blocking(
      comm, resolve_alltoall(comm, send, recv, block_bytes, options),
      options.radix == 0);
}

int alltoall_staged(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, const Layout& send_layout,
                    const Layout& recv_layout,
                    const AlltoallOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b = send_layout.block_bytes();
  (void)strided_layouts(send, recv, send_layout, recv_layout, n, n);
  std::vector<std::byte> s(static_cast<std::size_t>(n * b));
  std::vector<std::byte> r(s.size());
  layout_gather_all(send, send_layout, n, s);
  const int next = alltoall(comm, s, r, b, options);
  layout_scatter_all(recv, recv_layout, n, r);
  return next;
}

int alltoall(mps::Communicator& comm, std::span<const std::byte> send,
             std::span<std::byte> recv, const Layout& send_layout,
             const Layout& recv_layout, const AlltoallOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    // The inline oracles predate layouts: stage through packed copies so
    // kReference stays the bitwise cross-check of the zero-copy paths.
    return alltoall_staged(comm, send, recv, send_layout, recv_layout,
                           options);
  }
  return run_blocking(comm,
                      resolve_alltoall(comm, send, recv,
                                       send_layout.block_bytes(), options,
                                       {&send_layout, &recv_layout}),
                      options.radix == 0);
}

int allgather(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, std::int64_t block_bytes,
              const AllgatherOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    switch (options.algorithm) {
      case ConcatAlgorithm::kFolklore:
        return concat_folklore(comm, send, recv, block_bytes,
                               ConcatFolkloreOptions{options.start_round});
      case ConcatAlgorithm::kRing:
        return concat_ring(comm, send, recv, block_bytes,
                           ConcatRingOptions{options.start_round});
      case ConcatAlgorithm::kBruck:
      case ConcatAlgorithm::kAuto:
        return concat_bruck(
            comm, send, recv, block_bytes,
            ConcatBruckOptions{options.last_round, options.start_round});
    }
    BRUCK_ENSURE_MSG(false, "unreachable");
    return options.start_round;
  }
  return run_blocking(
      comm, resolve_allgather(comm, send, recv, block_bytes, options));
}

int allgather(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const Layout& send_layout,
              const Layout& recv_layout, const AllgatherOptions& options) {
  const std::int64_t b = send_layout.block_bytes();
  if (options.path == ExecutionPath::kReference) {
    const std::int64_t n = comm.size();
    (void)strided_layouts(send, recv, send_layout, recv_layout, 1, n);
    std::vector<std::byte> s(static_cast<std::size_t>(b));
    std::vector<std::byte> r(static_cast<std::size_t>(n * b));
    layout_gather(send, send_layout, 0, 0, b, s);
    const int next = allgather(comm, s, r, b, options);
    layout_scatter_all(recv, recv_layout, n, r);
    return next;
  }
  return run_blocking(comm, resolve_allgather(comm, send, recv, b, options,
                                              {&send_layout, &recv_layout}));
}

int alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send_displs,
              std::span<const std::int64_t> recv_displs,
              const AlltoallvOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    const OpSpec shape = indexv_shape(comm, send, recv, counts, send_displs,
                                      recv_displs, options, {});
    return alltoallv_reference(comm, send, recv, counts, shape.send_displs,
                               shape.recv_displs,
                               VectorReferenceOptions{options.start_round});
  }
  return run_blocking(comm, resolve_alltoallv(comm, send, recv, counts,
                                              send_displs, recv_displs,
                                              options));
}

int alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send_displs,
              std::span<const std::int64_t> recv_displs,
              const Layout& send_layout, const Layout& recv_layout,
              const AlltoallvOptions& options) {
  if (options.path != ExecutionPath::kReference) {
    return run_blocking(
        comm, resolve_alltoallv(comm, send, recv, counts, send_displs,
                                recv_displs, options,
                                {&send_layout, &recv_layout}));
  }
  const OpSpec spec = indexv_shape(comm, send, recv, counts, send_displs,
                                   recv_displs, options,
                                   {&send_layout, &recv_layout});
  if (!spec.has_layout) {
    return alltoallv_reference(comm, send, recv, counts, spec.send_displs,
                               spec.recv_displs,
                               VectorReferenceOptions{options.start_round});
  }
  // Stage through packed copies around the per-pair oracle.
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  const std::span<const std::int64_t> row = counts.subspan(
      static_cast<std::size_t>(rank * n), static_cast<std::size_t>(n));
  const std::vector<std::int64_t> col = count_column(counts, n, rank);
  const std::vector<std::int64_t> packed_sd = prefix_displs(row);
  const std::vector<std::int64_t> packed_rd = prefix_displs(col);
  std::vector<std::byte> s(static_cast<std::size_t>(
      packed_sd.back() + row[static_cast<std::size_t>(n - 1)]));
  std::vector<std::byte> r(static_cast<std::size_t>(
      packed_rd.back() + col[static_cast<std::size_t>(n - 1)]));
  for (std::int64_t j = 0; j < n; ++j) {
    const auto jj = static_cast<std::size_t>(j);
    layout_gather(send, send_layout, spec.send_displs[jj], 0, row[jj],
                  std::span<std::byte>(s).subspan(
                      static_cast<std::size_t>(packed_sd[jj]),
                      static_cast<std::size_t>(row[jj])));
  }
  const int next =
      alltoallv_reference(comm, s, r, counts, packed_sd, packed_rd,
                          VectorReferenceOptions{options.start_round});
  for (std::int64_t i = 0; i < n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    layout_scatter(recv, recv_layout, spec.recv_displs[ii], 0, col[ii],
                   std::span<const std::byte>(r).subspan(
                       static_cast<std::size_t>(packed_rd[ii]),
                       static_cast<std::size_t>(col[ii])));
  }
  return next;
}

int allgatherv(mps::Communicator& comm, std::span<const std::byte> send,
               std::span<std::byte> recv,
               std::span<const std::int64_t> counts,
               std::span<const std::int64_t> recv_displs,
               const AllgathervOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    const OpSpec shape =
        concatv_shape(comm, send, recv, counts, recv_displs, options);
    return allgatherv_reference(comm, send, recv, counts, shape.recv_displs,
                                VectorReferenceOptions{options.start_round});
  }
  return run_blocking(
      comm, resolve_allgatherv(comm, send, recv, counts, recv_displs, options));
}

namespace detail {

ReducePlanChoice resolve_reduce_algorithm(std::int64_t n, int k,
                                          std::int64_t block_bytes,
                                          ReduceAlgorithm algorithm,
                                          std::int64_t radix,
                                          const model::LinearModel& machine,
                                          model::RadixSet set) {
  const model::LinearModel m = model::effective_machine(machine);
  ReducePlanChoice out;
  switch (algorithm) {
    case ReduceAlgorithm::kDirect:
      out.algorithm = ReduceAlgorithm::kDirect;
      out.radix = std::max<std::int64_t>(2, n);
      out.predicted = model::reduce_direct_cost(n, k, block_bytes);
      break;
    case ReduceAlgorithm::kPairwise:
      out.algorithm = ReduceAlgorithm::kPairwise;
      out.radix = std::max<std::int64_t>(2, n);
      out.predicted = model::reduce_direct_cost(n, k, block_bytes);
      break;
    case ReduceAlgorithm::kBruck:
      out.algorithm = ReduceAlgorithm::kBruck;
      out.radix = radix != 0
                      ? radix
                      : model::pick_reduce_radix(n, k, block_bytes, m, set)
                            .radix;
      out.predicted = model::reduce_bruck_cost(n, out.radix, k, block_bytes);
      break;
    case ReduceAlgorithm::kAuto: {
      const model::ReduceScatterChoice choice =
          model::pick_reduce_scatter_cached(n, k, block_bytes, m, set);
      out.algorithm = choice.direct ? ReduceAlgorithm::kDirect
                                    : ReduceAlgorithm::kBruck;
      out.radix = choice.radix;
      out.predicted = choice.predicted;
      out.segments_hint = choice.segments_hint;
      break;
    }
  }
  return out;
}

}  // namespace detail

int reduce_scatter(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, std::int64_t block_bytes,
                   const ReduceOp& op, const ReduceScatterOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    BRUCK_REQUIRE(block_bytes >= 0);
    BRUCK_REQUIRE_MSG(op.elem_bytes() >= 1 &&
                          block_bytes % op.elem_bytes() == 0,
                      "block size must be a whole number of op elements");
    return reduce_scatter_reference(
        comm, send, recv, block_bytes, op,
        ReduceReferenceOptions{options.start_round});
  }
  return run_blocking(
      comm, resolve_reduce_scatter(comm, send, recv, block_bytes, op, options),
      options.radix == 0);
}

int reduce_scatter(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout, const ReduceOp& op,
                   const ReduceScatterOptions& options) {
  const std::int64_t b = send_layout.block_bytes();
  if (options.path == ExecutionPath::kReference) {
    const std::int64_t n = comm.size();
    (void)strided_layouts(send, recv, send_layout, recv_layout, n, 1);
    std::vector<std::byte> s(static_cast<std::size_t>(n * b));
    std::vector<std::byte> r(static_cast<std::size_t>(b));
    layout_gather_all(send, send_layout, n, s);
    const int next = reduce_scatter(comm, s, r, b, op, options);
    layout_scatter(recv, recv_layout, 0, 0, b, r);
    return next;
  }
  return run_blocking(comm,
                      resolve_reduce_scatter(comm, send, recv, b, op, options,
                                             {&send_layout, &recv_layout}),
                      options.radix == 0);
}

int allreduce(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const ReduceOp& op,
              const AllreduceOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    return allreduce_reference(comm, send, recv, op,
                               ReduceReferenceOptions{options.start_round});
  }
  return run_blocking(comm, resolve_allreduce(comm, send, recv, op, options));
}

int allreduce(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const Layout& send_layout,
              const Layout& recv_layout, const ReduceOp& op,
              const AllreduceOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    const std::int64_t bytes = send_layout.block_bytes();
    (void)strided_layouts(send, recv, send_layout, recv_layout, 1, 1);
    std::vector<std::byte> s(static_cast<std::size_t>(bytes));
    std::vector<std::byte> r(static_cast<std::size_t>(bytes));
    layout_gather(send, send_layout, 0, 0, bytes, s);
    const int next = allreduce_reference(
        comm, s, r, op, ReduceReferenceOptions{options.start_round});
    layout_scatter(recv, recv_layout, 0, 0, bytes, r);
    return next;
  }
  return run_blocking(comm, resolve_allreduce(comm, send, recv, op, options,
                                              {&send_layout, &recv_layout}));
}

// -- Nonblocking entry points ----------------------------------------------
//
// Each i* twin submits exactly the op its blocking twin runs — same
// resolver, so tuner, radix, last-round strategy, segment knob and
// hierarchy all agree — to the communicator's progress engine, which owns
// scheduling from there (lazy start, tag allocation, fusion); see
// progress.hpp.

Request ialltoall(mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, std::int64_t block_bytes,
                  const AlltoallOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      resolve_alltoall(comm, send, recv, block_bytes, options));
}

Request ialltoall(mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, const Layout& send_layout,
                  const Layout& recv_layout,
                  const AlltoallOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      resolve_alltoall(comm, send, recv, send_layout.block_bytes(), options,
                       {&send_layout, &recv_layout}));
}

Request iallgather(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, std::int64_t block_bytes,
                   const AllgatherOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      resolve_allgather(comm, send, recv, block_bytes, options));
}

Request iallgather(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout,
                   const AllgatherOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      resolve_allgather(comm, send, recv, send_layout.block_bytes(), options,
                        {&send_layout, &recv_layout}));
}

Request ialltoallv(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv,
                   std::span<const std::int64_t> counts,
                   std::span<const std::int64_t> send_displs,
                   std::span<const std::int64_t> recv_displs,
                   const AlltoallvOptions& options) {
  return ProgressEngine::for_comm(comm).submit(resolve_alltoallv(
      comm, send, recv, counts, send_displs, recv_displs, options));
}

Request ialltoallv(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv,
                   std::span<const std::int64_t> counts,
                   std::span<const std::int64_t> send_displs,
                   std::span<const std::int64_t> recv_displs,
                   const Layout& send_layout, const Layout& recv_layout,
                   const AlltoallvOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      resolve_alltoallv(comm, send, recv, counts, send_displs, recv_displs,
                        options, {&send_layout, &recv_layout}));
}

Request ireduce_scatter(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, std::int64_t block_bytes,
                        const ReduceOp& op,
                        const ReduceScatterOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      resolve_reduce_scatter(comm, send, recv, block_bytes, op, options));
}

Request ireduce_scatter(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, const Layout& send_layout,
                        const Layout& recv_layout, const ReduceOp& op,
                        const ReduceScatterOptions& options) {
  return ProgressEngine::for_comm(comm).submit(resolve_reduce_scatter(
      comm, send, recv, send_layout.block_bytes(), op, options,
      {&send_layout, &recv_layout}));
}

Request iallreduce(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const ReduceOp& op,
                   const AllreduceOptions& options) {
  return ProgressEngine::for_comm(comm).submit(
      resolve_allreduce(comm, send, recv, op, options));
}

Request iallreduce(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout, const ReduceOp& op,
                   const AllreduceOptions& options) {
  return ProgressEngine::for_comm(comm).submit(resolve_allreduce(
      comm, send, recv, op, options, {&send_layout, &recv_layout}));
}

int broadcast(mps::Communicator& comm, std::int64_t root,
              std::span<std::byte> data, const BcastApiOptions& options) {
  switch (options.algorithm) {
    case BcastAlgorithm::kBinomial:
      return bcast_binomial(comm, root, data,
                            BcastOptions{options.start_round});
    case BcastAlgorithm::kCirculant:
    case BcastAlgorithm::kAuto:
      return bcast_circulant(comm, root, data,
                             BcastOptions{options.start_round});
  }
  BRUCK_ENSURE_MSG(false, "unreachable");
  return options.start_round;
}

int gather(mps::Communicator& comm, std::int64_t root,
           std::span<const std::byte> send, std::span<std::byte> recv,
           std::int64_t block_bytes, const RootedOptions& options) {
  return gather_binomial(comm, root, send, recv, block_bytes,
                         GatherScatterOptions{options.start_round});
}

int scatter(mps::Communicator& comm, std::int64_t root,
            std::span<const std::byte> send, std::span<std::byte> recv,
            std::int64_t block_bytes, const RootedOptions& options) {
  return scatter_binomial(comm, root, send, recv, block_bytes,
                          GatherScatterOptions{options.start_round});
}

}  // namespace bruck::coll
