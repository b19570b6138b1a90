// ProgressEngine implementation, the inline op runner, plus the Request
// methods (kept here so request.hpp stays dependency-free).
//
// Execution model: every started operation runs through an `OpCursor` — a
// flat PlanCursor or a multi-stage CompositeCursor plus the staging its
// family needs.  run_serial_op drives one to completion on the caller's
// stack (blocking calls, the serial fallback).  Inside the engine every
// started operation is an `Exec`: a solo exec serves one operation; a fused
// exec serves G same-signature operations through one cursor over
// interleaved staging buffers.  `route_` maps every in-flight receive handle
// to its exec, so one wait_any_recv() loop drives all tenants regardless of
// which request the caller holds.
#include "coll/progress.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "coll/composite.hpp"
#include "coll/plan.hpp"
#include "util/assert.hpp"

namespace bruck::coll {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Largest fused wire block (G·b bytes) the engine will build.  Fusion trades
/// message count for message size, and the linear C1/C2 model always likes
/// that trade — but past a few KiB per block the substrate's large-message
/// costs (staging copies, segmentation) outgrow the per-message savings, so
/// oversized groups fall back to per-op execution instead.  Override with
/// BRUCK_FUSE_MAX_BLOCK (bytes, positive integer).
std::int64_t fuse_max_block_bytes() {
  constexpr std::int64_t kDefault = 4096;
  const char* env = std::getenv("BRUCK_FUSE_MAX_BLOCK");
  if (env == nullptr || *env == '\0') return kDefault;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v <= 0) return kDefault;
  return static_cast<std::int64_t>(v);
}

/// Only flat, block-size-independent plans fuse: a fused execution reuses
/// the member plan structure at block G·b, which concat (per-exact-b
/// lowering, last-round strategy re-resolution), irregular plans and
/// multi-stage composites cannot do.  Layout operations never fuse either —
/// the fused staging interleaves members' blocks contiguously.
bool fusable(const OpSpec& spec) {
  return (spec.family == OpSpec::Family::kAlltoall ||
          spec.family == OpSpec::Family::kReduceScatter) &&
         !spec.has_layout && !spec.composite;
}

/// The cursor-facing view of a spec's layouts.  Points into the spec's own
/// storage, which outlives the cursor.
LayoutPair spec_layouts(const OpSpec& spec) {
  return spec.has_layout ? LayoutPair{&spec.send_layout, &spec.recv_layout}
                         : LayoutPair{};
}

/// Modeled measures of the fused exchange: every cost we lower is linear
/// in the block size with zero intercept, so block G·b scales the byte
/// measures by G and keeps the round count.
model::CostMetrics scale_metrics(const model::CostMetrics& per_op, int group) {
  model::CostMetrics out = per_op;
  out.c2 *= group;
  out.total_bytes *= group;
  out.max_rank_sent *= group;
  out.max_rank_recv *= group;
  return out;
}

}  // namespace

/// The live execution of one resolved op on one rank, shared by
/// run_serial_op and the progress engine: a PlanCursor for a flat op, a
/// CompositeCursor for a multi-stage one, plus the padded staging allreduce
/// needs.  Never blocks.  When the execution drains it copies an allreduce
/// result back and records a flat op's PlanEvent (a composite records one
/// per stage itself).  `spec` must outlive the cursor.
class OpCursor {
 public:
  OpCursor(mps::Communicator& comm, const OpSpec& spec, int start_round,
           int tag);
  OpCursor(const OpCursor&) = delete;
  OpCursor& operator=(const OpCursor&) = delete;

  std::vector<mps::PortHandle> post_ready() {
    std::vector<mps::PortHandle> handles =
        chain_ ? chain_->post_ready() : flat_->post_ready();
    settle();
    return handles;
  }
  void on_complete(mps::PortHandle h) {
    if (chain_) {
      chain_->on_complete(h);
    } else {
      flat_->on_complete(h);
    }
    settle();
  }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] int outstanding() const {
    return chain_ ? chain_->outstanding() : flat_->outstanding();
  }
  [[nodiscard]] const PlanExecution& result() const {
    BRUCK_REQUIRE_MSG(done_, "operation result read before completion");
    return out_;
  }

 private:
  /// Run the completion side effects once the underlying cursor drains.
  void settle();

  mps::Communicator* comm_;
  const OpSpec* spec_;
  int tag_ = 0;
  bool cache_hit_ = false;
  int rounds_ = 0;
  VectorView view_;
  /// Allreduce staging: the zero-padded n·b input and the gathered n·b
  /// result, used only where the user buffers cannot serve directly.
  std::vector<std::byte> padded_;
  std::vector<std::byte> gathered_;
  std::unique_ptr<PlanCursor> flat_;
  std::unique_ptr<CompositeCursor> chain_;
  PlanExecution out_;
  bool done_ = false;
};

OpCursor::OpCursor(mps::Communicator& comm, const OpSpec& spec,
                   int start_round, int tag)
    : comm_(&comm), spec_(&spec), tag_(tag) {
  if (spec.composite) {
    std::span<const std::byte> in = spec.send;
    std::span<std::byte> out = spec.recv;
    if (spec.family == OpSpec::Family::kAllreduce) {
      // Reduce-scatter over the padded n·b vector, allgather into n·b.  The
      // layouts replace the staging copies: gather the strided payload
      // straight into the padded scratch (the wire stages run contiguous).
      const auto padded_bytes = static_cast<std::size_t>(
          spec.composite->n() * spec.block_bytes);
      if (spec.has_layout || spec.send.size() != padded_bytes) {
        padded_.assign(padded_bytes, std::byte{0});
        if (spec.has_layout) {
          const std::int64_t logical = spec.send_layout.block_bytes();
          layout_gather(spec.send, spec.send_layout, 0, 0, logical,
                        std::span<std::byte>(padded_).first(
                            static_cast<std::size_t>(logical)));
        } else if (!spec.send.empty()) {
          std::memcpy(padded_.data(), spec.send.data(), spec.send.size());
        }
        in = padded_;
      }
      if (spec.has_layout || spec.recv.size() != padded_bytes) {
        gathered_.resize(padded_bytes);
        out = gathered_;
      }
    }
    chain_ = std::make_unique<CompositeCursor>(spec.composite, comm, in, out,
                                               &spec.op, start_round, tag);
    return;
  }
  const PlanCache::Lookup lookup = PlanCache::global().get_or_lower(spec.key);
  cache_hit_ = lookup.cache_hit;
  rounds_ = lookup.plan->round_count();
  const LayoutPair layouts = spec_layouts(spec);
  switch (spec.family) {
    case OpSpec::Family::kAlltoall:
    case OpSpec::Family::kAllgather:
      flat_ = std::make_unique<PlanCursor>(lookup.plan, comm, spec.send,
                                           spec.recv, spec.block_bytes,
                                           start_round, tag, layouts);
      break;
    case OpSpec::Family::kAlltoallv:
    case OpSpec::Family::kAllgatherv:
      view_ = VectorView{spec.counts, spec.send_displs, spec.recv_displs,
                         spec.pad_bytes};
      flat_ = std::make_unique<PlanCursor>(lookup.plan, comm, spec.send,
                                           spec.recv, view_, start_round, tag,
                                           layouts);
      break;
    case OpSpec::Family::kReduceScatter:
      flat_ = std::make_unique<PlanCursor>(lookup.plan, comm, spec.send,
                                           spec.recv, spec.block_bytes,
                                           spec.op, start_round, tag, layouts);
      break;
    case OpSpec::Family::kAllreduce:
      BRUCK_ENSURE_MSG(false, "allreduce resolves to a composite chain");
  }
}

void OpCursor::settle() {
  if (done_ || !(chain_ ? chain_->done() : flat_->done())) return;
  if (chain_) {
    out_ = chain_->result();
    const OpSpec& spec = *spec_;
    if (!gathered_.empty()) {
      if (spec.has_layout) {
        const std::int64_t logical = spec.recv_layout.block_bytes();
        layout_scatter(spec.recv, spec.recv_layout, 0, 0, logical,
                       std::span<const std::byte>(gathered_).first(
                           static_cast<std::size_t>(logical)));
      } else if (!spec.recv.empty()) {
        std::memcpy(spec.recv.data(), gathered_.data(), spec.recv.size());
      }
    }
  } else {
    out_ = flat_->result();
    comm_->record_plan_event(mps::PlanEvent{cache_hit_, rounds_,
                                            out_.bytes_sent,
                                            out_.bytes_reduced, tag_});
  }
  done_ = true;
}

PlanExecution run_serial_op(mps::Communicator& comm, const OpSpec& spec,
                            int start_round) {
  OpCursor cursor(comm, spec, start_round, /*tag=*/0);
  return drive_to_completion(comm, cursor);
}

/// One submitted operation: the resolved spec plus completion state.
struct ProgressEngine::Op {
  std::uint64_t id = 0;
  OpSpec spec;
  bool done = false;
  PlanExecution result;
};

/// One live cursor and how to retire it (see the file comment).
struct ProgressEngine::Exec {
  std::vector<Op*> members;
  std::unique_ptr<OpCursor> cursor;
  int tag = 0;
  bool fused = false;
  std::int64_t member_block = 0;  ///< fused: one member's block size
  /// Fused: the lead's spec re-pointed at the interleaved staging (the
  /// cursor runs it, so it lives as long as the exec).
  OpSpec fused_spec;
  std::vector<std::byte> fused_send;
  std::vector<std::byte> fused_recv;
};

/// Everything that must agree for two pending operations to share one
/// fused wire exchange.  The machine profile is part of the signature (two
/// ops tuned under different profiles resolved their recipes differently).
struct ProgressEngine::FuseSig {
  int family = 0;
  std::uint8_t algorithm = 0;
  std::int64_t n = 0;
  int k = 0;
  std::int64_t radix = 0;
  std::uint32_t reduce_tag = 0;
  std::int64_t block_bytes = 0;
  int start_round = 0;
  int requested_segments = 0;
  std::uint64_t beta_bits = 0;
  std::uint64_t tau_bits = 0;
  std::uint64_t gamma_bits = 0;

  friend bool operator==(const FuseSig&, const FuseSig&) = default;
};

ProgressEngine::ProgressEngine(mps::Communicator& comm)
    : comm_(&comm), native_(comm.native_port_engine()) {}

ProgressEngine::~ProgressEngine() = default;

ProgressEngine& ProgressEngine::for_comm(mps::Communicator& comm) {
  // The engine lives in the communicator's extension slot, so its lifetime
  // tracks the communicator's exactly — no global registry that a reused
  // heap address could resurrect stale state from.
  std::shared_ptr<void>& slot = comm.extension_slot();
  if (!slot) slot = std::shared_ptr<ProgressEngine>(new ProgressEngine(comm));
  return *static_cast<ProgressEngine*>(slot.get());
}

Request ProgressEngine::submit(OpSpec&& spec) {
  const std::uint64_t id = next_id_++;
  auto op = std::make_unique<Op>();
  op->id = id;
  op->spec = std::move(spec);
  ops_.emplace(id, std::move(op));
  pending_.push_back(id);
  ++stats_.submitted;
  return Request(this, id);
}

std::size_t ProgressEngine::outstanding() const { return ops_.size(); }

ProgressEngine::Op* ProgressEngine::find_op(std::uint64_t id) {
  const auto it = ops_.find(id);
  return it == ops_.end() ? nullptr : it->second.get();
}

void ProgressEngine::seal() {
  // The serial fallback starts operations inside run_serial_until instead
  // (pending_ doubles as its FIFO).
  if (!native_ || pending_.empty()) return;
  const std::vector<std::uint64_t> batch = std::move(pending_);
  pending_.clear();

  // Group the batch by fuse signature, preserving submission order.
  struct Group {
    bool fusable = false;
    FuseSig sig;
    std::vector<Op*> members;
  };
  std::vector<Group> groups;
  for (const std::uint64_t id : batch) {
    Op* op = find_op(id);
    BRUCK_ENSURE(op != nullptr);
    const OpSpec& spec = op->spec;
    if (fusable(spec)) {
      const FuseSig sig{static_cast<int>(spec.family),
                        spec.key.algorithm,
                        spec.key.n,
                        spec.key.k,
                        spec.key.radix,
                        spec.key.reduce_tag,
                        spec.block_bytes,
                        spec.start_round,
                        spec.requested_segments,
                        double_bits(spec.machine.beta_us),
                        double_bits(spec.machine.tau_us_per_byte),
                        double_bits(spec.machine.gamma_us_per_byte)};
      bool joined = false;
      for (Group& g : groups) {
        if (g.fusable && g.sig == sig) {
          g.members.push_back(op);
          joined = true;
          break;
        }
      }
      if (!joined) groups.push_back(Group{true, sig, {op}});
    } else {
      groups.push_back(Group{false, {}, {op}});
    }
  }

  for (const Group& g : groups) {
    if (g.members.size() > 1) {
      const OpSpec& lead = g.members.front()->spec;
      const int group_size = static_cast<int>(g.members.size());
      const std::int64_t fused_block =
          lead.block_bytes * static_cast<std::int64_t>(group_size);
      if (fused_block <= fuse_max_block_bytes()) {
        const std::int64_t user_bytes = static_cast<std::int64_t>(
            (lead.send.size() + lead.recv.size()) / 2);
        const model::FusionChoice choice = model::pick_fusion(
            group_size, lead.machine, lead.predicted,
            scale_metrics(lead.predicted, group_size), user_bytes);
        if (choice.fuse) {
          start_fused(g.members);
          continue;
        }
      }
    }
    for (Op* op : g.members) start_solo(op);
  }
}

void ProgressEngine::start_solo(Op* op) {
  const int tag = comm_->allocate_collective_tag();
  ++stats_.tags_used;
  auto exec = std::make_unique<Exec>();
  exec->members = {op};
  exec->tag = tag;
  exec->cursor =
      std::make_unique<OpCursor>(*comm_, op->spec, op->spec.start_round, tag);
  Exec* raw = exec.get();
  live_.push_back(std::move(exec));
  pump_posts(*raw);
}

void ProgressEngine::start_fused(const std::vector<Op*>& members) {
  const OpSpec& lead = members.front()->spec;
  const int group_size = static_cast<int>(members.size());
  const std::int64_t n = lead.key.n;
  const std::int64_t b = lead.block_bytes;
  const std::int64_t bf = group_size * b;
  const bool reduce = lead.family == OpSpec::Family::kReduceScatter;
  const std::int64_t send_blocks = n;
  const std::int64_t recv_blocks = reduce ? 1 : n;
  for (const Op* member : members) {
    BRUCK_REQUIRE_MSG(
        static_cast<std::int64_t>(member->spec.send.size()) ==
                send_blocks * b &&
            static_cast<std::int64_t>(member->spec.recv.size()) ==
                recv_blocks * b,
        "fusion member buffers do not match the collective's block layout");
  }

  const int tag = comm_->allocate_collective_tag();
  ++stats_.tags_used;
  auto exec = std::make_unique<Exec>();
  exec->members = members;
  exec->tag = tag;
  exec->fused = true;
  exec->member_block = b;
  exec->fused_send.resize(static_cast<std::size_t>(send_blocks * bf));
  exec->fused_recv.resize(static_cast<std::size_t>(recv_blocks * bf));
  // Interleave per block slot: fused block j = [m0 blockj | m1 blockj | …],
  // so the fused exchange routes every member's block j exactly like the
  // solo exchange routes block j.
  if (b > 0) {
    for (std::int64_t j = 0; j < send_blocks; ++j) {
      for (int m = 0; m < group_size; ++m) {
        std::memcpy(exec->fused_send.data() + j * bf + m * b,
                    members[static_cast<std::size_t>(m)]->spec.send.data() +
                        j * b,
                    static_cast<std::size_t>(b));
      }
    }
  }
  // The member plan structure at block G·b, keeping the members' resolved
  // wire segmentation (the lead's key).  Batching exists to amortize the
  // per-message count across tenants; re-tuning segments against the G×
  // fused message sizes would split each fused message G ways and hand the
  // amortized messages straight back.
  exec->fused_spec = lead;
  exec->fused_spec.send = exec->fused_send;
  exec->fused_spec.recv = exec->fused_recv;
  exec->fused_spec.block_bytes = bf;
  exec->cursor = std::make_unique<OpCursor>(*comm_, exec->fused_spec,
                                            lead.start_round, tag);
  ++stats_.fused_groups;
  stats_.fused_members += static_cast<std::uint64_t>(group_size);
  Exec* raw = exec.get();
  live_.push_back(std::move(exec));
  pump_posts(*raw);
}

void ProgressEngine::pump_posts(Exec& exec) {
  for (const mps::PortHandle h : exec.cursor->post_ready()) {
    route_.emplace(h, &exec);
  }
  if (exec.cursor->done()) retire(exec);
}

void ProgressEngine::deliver(mps::PortHandle h) {
  const auto it = route_.find(h);
  BRUCK_REQUIRE_MSG(it != route_.end(),
                    "progress engine received a foreign completion — "
                    "blocking collectives and raw port operations are not "
                    "allowed while nonblocking requests are outstanding");
  Exec& exec = *it->second;
  route_.erase(it);
  exec.cursor->on_complete(h);
  pump_posts(exec);
}

void ProgressEngine::retire(Exec& exec) {
  const PlanExecution r = exec.cursor->result();
  if (exec.fused) {
    // Scatter the interleaved result back and split the totals evenly
    // (members are byte-identical in shape).
    const int group_size = static_cast<int>(exec.members.size());
    const std::int64_t b = exec.member_block;
    const std::int64_t bf = group_size * b;
    const OpSpec& lead = exec.members.front()->spec;
    const bool reduce = lead.family == OpSpec::Family::kReduceScatter;
    const std::int64_t recv_blocks = reduce ? 1 : lead.key.n;
    if (b > 0) {
      for (std::int64_t i = 0; i < recv_blocks; ++i) {
        for (int m = 0; m < group_size; ++m) {
          std::memcpy(
              exec.members[static_cast<std::size_t>(m)]->spec.recv.data() +
                  i * b,
              exec.fused_recv.data() + i * bf + m * b,
              static_cast<std::size_t>(b));
        }
      }
    }
    for (Op* member : exec.members) {
      member->result = PlanExecution{r.next_round, r.bytes_sent / group_size,
                                     r.bytes_reduced / group_size};
    }
  } else {
    exec.members.front()->result = r;
  }

  for (Op* member : exec.members) member->done = true;
  stats_.completed += static_cast<std::uint64_t>(exec.members.size());
  const int tag = exec.tag;
  const auto it = std::find_if(
      live_.begin(), live_.end(),
      [&exec](const std::unique_ptr<Exec>& e) { return e.get() == &exec; });
  BRUCK_ENSURE(it != live_.end());
  live_.erase(it);  // `exec` is destroyed here
  if (tag > 0) comm_->release_tag(tag);
}

bool ProgressEngine::test(std::uint64_t id) {
  Op* op = find_op(id);
  BRUCK_REQUIRE_MSG(op != nullptr,
                    "test on an unknown or already-waited request");
  if (op->done) return true;
  if (!native_) {
    // The exchange-backed fallback cannot make progress without blocking:
    // test degrades to wait (mirrors Communicator::test_recv's fallback).
    run_serial_until(id);
    return true;
  }
  seal();
  while (!op->done) {
    const std::optional<mps::PortHandle> h = comm_->poll_any_recv();
    if (!h.has_value()) break;
    deliver(*h);
  }
  return op->done;
}

int ProgressEngine::wait(std::uint64_t id) {
  Op* op = find_op(id);
  BRUCK_REQUIRE_MSG(op != nullptr,
                    "wait on an unknown or already-waited request");
  if (!op->done) {
    if (!native_) {
      run_serial_until(id);
    } else {
      seal();
      // One drain budget for the whole completion loop: waiting out a
      // multi-round collective must not reset the receive timeout per
      // arriving message (the mps::DrainDeadline rule — on a real fabric a
      // trickling peer could otherwise stretch one wait() to rounds ×
      // budget before a stall is diagnosed).
      const mps::DrainDeadline deadline(comm_->recv_timeout());
      while (!op->done) {
        BRUCK_ENSURE_MSG(!route_.empty(),
                         "progress engine stalled: operation incomplete "
                         "with no receive in flight");
        deliver(comm_->wait_any_recv_within(deadline));
      }
    }
  }
  const int next = op->result.next_round;
  ops_.erase(id);
  return next;
}

void ProgressEngine::step_blocking() {
  if (!native_) {
    BRUCK_REQUIRE_MSG(!pending_.empty(),
                      "progress step with nothing outstanding");
    run_serial_until(pending_.front());
    return;
  }
  seal();
  if (route_.empty()) return;  // everything completed at start
  deliver(comm_->wait_any_recv());
}

void ProgressEngine::run_serial_until(std::uint64_t id) {
  while (true) {
    BRUCK_REQUIRE_MSG(!pending_.empty(),
                      "request missing from the serial fallback queue");
    const std::uint64_t front = pending_.front();
    pending_.erase(pending_.begin());
    Op* op = find_op(front);
    BRUCK_ENSURE(op != nullptr);
    // One exchange-backed round space is shared by everything on the comm:
    // chain each operation after the previous one's rounds.
    op->result = run_serial_op(
        *comm_, op->spec, std::max(op->spec.start_round, serial_next_round_));
    serial_next_round_ = std::max(serial_next_round_, op->result.next_round);
    op->done = true;
    ++stats_.serial_fallback;
    ++stats_.completed;
    if (front == id) return;
  }
}

// -- Request ---------------------------------------------------------------

Request::~Request() {
  if (engine_ == nullptr) return;
  try {
    engine_->wait(id_);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "bruck: coll::Request dropped before wait(); completing it "
                 "failed: %s\n",
                 e.what());
  } catch (...) {
    std::fprintf(stderr,
                 "bruck: coll::Request dropped before wait(); completing it "
                 "failed\n");
  }
}

Request::Request(Request&& other) noexcept
    : engine_(other.engine_), id_(other.id_) {
  other.engine_ = nullptr;
  other.id_ = 0;
}

Request& Request::operator=(Request&& other) noexcept {
  if (this != &other) {
    {
      // Completes (and error-reports) any operation this handle still owns.
      Request doomed(std::move(*this));
    }
    engine_ = other.engine_;
    id_ = other.id_;
    other.engine_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

bool Request::test() {
  if (engine_ == nullptr) return true;
  return engine_->test(id_);
}

int Request::wait() {
  if (engine_ == nullptr) return 0;
  ProgressEngine* engine = engine_;
  engine_ = nullptr;
  return engine->wait(id_);
}

void wait_all(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) r.wait();
  }
}

std::size_t wait_any(std::span<Request> requests) {
  ProgressEngine* engine = nullptr;
  for (const Request& r : requests) {
    if (r.valid()) {
      engine = r.engine_;
      break;
    }
  }
  BRUCK_REQUIRE_MSG(engine != nullptr,
                    "wait_any needs at least one active request");
  for (const Request& r : requests) {
    BRUCK_REQUIRE_MSG(!r.valid() || r.engine_ == engine,
                      "wait_any requests must share one communicator");
  }
  while (true) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Request& r = requests[i];
      if (r.valid() && r.test()) {
        r.wait();
        return i;
      }
    }
    engine->step_blocking();
  }
}

}  // namespace bruck::coll
