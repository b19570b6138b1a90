#include "mps/port_engine.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace bruck::mps {

std::int64_t wire_segment_length(std::int64_t total, int segments, int i) {
  const std::int64_t base = total / segments;
  const std::int64_t rem = total % segments;
  return base + (i < rem ? 1 : 0);
}

int effective_wire_segments(std::int64_t total, int segments,
                            std::int64_t max_segment) {
  std::int64_t s =
      std::clamp<std::int64_t>(segments, 1, std::max<std::int64_t>(1, total));
  if (max_segment > 0 && (total + s - 1) / s > max_segment) {
    s = (total + max_segment - 1) / max_segment;
  }
  return static_cast<int>(s);
}

WirePortEngine::WirePortEngine(std::int64_t peers)
    : send_seq0_(static_cast<std::size_t>(peers), 0),
      recv_seq0_(static_cast<std::size_t>(peers), 0) {
  BRUCK_REQUIRE(peers >= 1);
}

WirePortEngine::TagRoundState& WirePortEngine::round_state(int tag) {
  if (tag == 0) return tag0_rounds_;
  return tag_rounds_[tag];
}

std::int64_t& WirePortEngine::send_seq(int tag, std::int64_t dst) {
  if (tag == 0) return send_seq0_[static_cast<std::size_t>(dst)];
  return send_seq_tagged_[tag_peer_key(tag, dst)];
}

std::int64_t& WirePortEngine::recv_seq(int tag, std::int64_t src) {
  if (tag == 0) return recv_seq0_[static_cast<std::size_t>(src)];
  return recv_seq_tagged_[tag_peer_key(tag, src)];
}

void WirePortEngine::check_post(int round, std::int64_t peer,
                                std::int64_t bytes, bool is_send, int tag) {
  BRUCK_REQUIRE(round >= 0);
  BRUCK_REQUIRE_MSG(tag >= 0, "negative port-namespace tag");
  TagRoundState& rs = round_state(tag);
  BRUCK_REQUIRE_MSG(round >= rs.last_round,
                    "port-engine posts must use non-decreasing rounds "
                    "(within each tag namespace)");
  if (round > rs.last_round) {
    rs.last_round = round;
    rs.sends_in_round = 0;
    rs.recvs_in_round = 0;
  }
  BRUCK_REQUIRE_MSG(peer != rank(), is_send
                                        ? "self-send (local data needs no port)"
                                        : "self-receive");
  BRUCK_REQUIRE(peer >= 0 && peer < size());
  BRUCK_REQUIRE_MSG(bytes > 0, "empty message");
  if (is_send) {
    BRUCK_REQUIRE_MSG(++rs.sends_in_round <= ports(),
                      "more sends than ports in one round");
  } else {
    BRUCK_REQUIRE_MSG(++rs.recvs_in_round <= ports(),
                      "more receives than ports in one round");
  }
}

void WirePortEngine::wire_send(int round, std::int64_t dst,
                               std::vector<std::byte>&& payload, int segments,
                               int tag) {
  const std::int64_t total = static_cast<std::int64_t>(payload.size());
  // One logical send event, regardless of wire segmentation: C1/C2 stay the
  // paper's measures of the declared round structure.
  record_send_event(round, dst, total, tag);
  const int s =
      effective_wire_segments(total, segments, max_wire_segment_bytes());
  auto& seq = send_seq(tag, dst);
  if (s == 1) {
    Message m;
    m.src = rank();
    m.dst = dst;
    m.seq = seq++;
    m.tag = tag;
    m.round = round;
    m.payload = std::move(payload);
    wire_push(std::move(m));
    return;
  }
  // Segments share ownership of the one payload buffer: no copies, and the
  // receiver can consume segment i while later segments are still queued.
  auto buffer =
      std::make_shared<const std::vector<std::byte>>(std::move(payload));
  std::int64_t offset = 0;
  for (int i = 0; i < s; ++i) {
    const std::int64_t len = wire_segment_length(total, s, i);
    Message m;
    m.src = rank();
    m.dst = dst;
    m.seq = seq++;
    m.tag = tag;
    m.round = round;
    m.shared = buffer;
    m.shared_offset = offset;
    m.shared_length = len;
    wire_push(std::move(m));
    offset += len;
  }
}

void WirePortEngine::post_send(int round, std::int64_t dst,
                               std::span<const std::byte> data, int segments,
                               int tag) {
  check_post(round, dst, static_cast<std::int64_t>(data.size()), true, tag);
  wire_send(round, dst, std::vector<std::byte>(data.begin(), data.end()),
            segments, tag);
}

void WirePortEngine::post_send(int round, std::int64_t dst,
                               std::vector<std::byte>&& data, int segments,
                               int tag) {
  check_post(round, dst, static_cast<std::int64_t>(data.size()), true, tag);
  wire_send(round, dst, std::move(data), segments, tag);
}

PortHandle WirePortEngine::add_recv_op(RecvOp&& op) {
  op.handle = next_handle_++;
  const PortHandle h = op.handle;
  const int tag = op.tag;
  const std::int64_t src = op.src;
  incomplete_.insert(h);
  if (pending_per_src_[src]++ == 0) waiting_srcs_.push_back(src);
  recv_ops_.push_back(std::move(op));
  // An early arrival for this (tag, src) may already be stashed (its wire
  // messages beat the post); deliver it now — this can complete the op.
  drain_stash(tag, src);
  return h;
}

PortHandle WirePortEngine::post_recv(int round, std::int64_t src,
                                     std::span<std::byte> data, int segments,
                                     int tag) {
  check_post(round, src, static_cast<std::int64_t>(data.size()), false, tag);
  RecvOp op;
  op.src = src;
  op.tag = tag;
  op.round = round;
  op.landing = data;
  op.total = static_cast<std::int64_t>(data.size());
  op.segments =
      effective_wire_segments(op.total, segments, max_wire_segment_bytes());
  return add_recv_op(std::move(op));
}

PortHandle WirePortEngine::post_recv_buffer(int round, std::int64_t src,
                                            std::int64_t bytes, int segments,
                                            int tag) {
  check_post(round, src, bytes, false, tag);
  RecvOp op;
  op.src = src;
  op.tag = tag;
  op.round = round;
  op.take_buffer = true;
  op.total = bytes;
  op.segments =
      effective_wire_segments(bytes, segments, max_wire_segment_bytes());
  if (op.segments > 1) {
    // Multi-segment: pre-size the buffer, segments land by memcpy.  The
    // single-segment case steals the wire payload instead (deliver).
    op.owned.resize(static_cast<std::size_t>(bytes));
  }
  return add_recv_op(std::move(op));
}

void WirePortEngine::deliver(std::list<RecvOp>::iterator it, Message&& m) {
  RecvOp& op = *it;
  const std::int64_t expected_seq = recv_seq(op.tag, m.src)++;
  const std::int64_t expected_len =
      wire_segment_length(op.total, op.segments, op.seg_done);
  const std::span<const std::byte> bytes = m.view();
  if (m.seq != expected_seq ||
      static_cast<std::int64_t>(bytes.size()) != expected_len) {
    std::ostringstream os;
    os << "rank " << rank() << " round " << op.round << " tag " << op.tag
       << ": message from rank " << m.src << " has seq " << m.seq
       << " (expected " << expected_seq << ") and " << bytes.size()
       << " bytes (expected " << expected_len << ")";
    throw ContractViolation(os.str());
  }
  if (op.take_buffer && op.segments == 1 && !m.shared) {
    // Whole unsegmented message into an engine-owned buffer: steal the wire
    // payload — the buffer has now moved sender-pack → wire → receiver
    // without a single copy.
    op.owned = std::move(m.payload);
  } else if (expected_len > 0) {
    std::byte* base = op.take_buffer ? op.owned.data() : op.landing.data();
    std::memcpy(base + op.offset, bytes.data(),
                static_cast<std::size_t>(expected_len));
  }
  op.offset += expected_len;
  if (++op.seg_done == op.segments) {
    const PortHandle h = op.handle;
    incomplete_.erase(h);
    unreported_.push_back(h);
    if (--pending_per_src_[op.src] == 0) {
      pending_per_src_.erase(op.src);
      std::erase(waiting_srcs_, op.src);
    }
    completed_.emplace(h, std::move(op));
    recv_ops_.erase(it);
  }
}

void WirePortEngine::apply_message(Message&& m) {
  const auto it = std::find_if(
      recv_ops_.begin(), recv_ops_.end(),
      [&](const RecvOp& op) { return op.src == m.src && op.tag == m.tag; });
  if (it == recv_ops_.end()) {
    // The wire pop can surface a message for another tag whose receive is
    // not posted yet (concurrent collectives progress independently per
    // rank), or — on fabrics that drain their inbound channel eagerly — a
    // message from a source with no pending receive at all.  Stash it in
    // per-channel FIFO order; add_recv_op delivers it when its receive
    // appears.  A genuinely unmatched message therefore surfaces as a
    // drain-deadline timeout reporting the stash, not an immediate throw.
    ++stashed_count_;
    stash_[tag_peer_key(m.tag, m.src)].push_back(std::move(m));
    return;
  }
  deliver(it, std::move(m));
}

void WirePortEngine::drain_stash(int tag, std::int64_t src) {
  const auto sit = stash_.find(tag_peer_key(tag, src));
  if (sit == stash_.end()) return;
  std::deque<Message>& q = sit->second;
  while (!q.empty()) {
    const auto it = std::find_if(
        recv_ops_.begin(), recv_ops_.end(),
        [&](const RecvOp& op) { return op.src == src && op.tag == tag; });
    if (it == recv_ops_.end()) break;
    Message m = std::move(q.front());
    q.pop_front();
    --stashed_count_;
    deliver(it, std::move(m));
  }
  if (q.empty()) stash_.erase(sit);
}

bool WirePortEngine::try_progress() {
  std::optional<Message> m =
      wire_pop(waiting_srcs_, std::chrono::milliseconds{0});
  if (!m.has_value()) return false;
  apply_message(std::move(*m));
  return true;
}

void WirePortEngine::progress_blocking(const DrainDeadline& deadline) {
  std::optional<Message> m = wire_pop(waiting_srcs_, deadline.remaining());
  if (!m.has_value()) {
    std::ostringstream os;
    os << "rank " << rank() << ": port-engine receive timed out after "
       << deadline.budget().count()
       << " ms (one whole-drain budget, BRUCK_RECV_TIMEOUT_MS) waiting on "
          "rank(s)";
    for (const std::int64_t s : waiting_srcs_) os << ' ' << s;
    if (stashed_count_ > 0) {
      os << "; " << stashed_count_
         << " message(s) stashed for other tag namespaces";
    }
    os << " (deadlock or mismatched exchange?)";
    throw ContractViolation(os.str());
  }
  apply_message(std::move(*m));
}

void WirePortEngine::retire_if_landing(PortHandle h) {
  const auto it = completed_.find(h);
  if (it != completed_.end() && !it->second.take_buffer) completed_.erase(it);
}

std::vector<std::byte> WirePortEngine::take_payload(PortHandle h) {
  const auto it = completed_.find(h);
  BRUCK_REQUIRE_MSG(it != completed_.end() && it->second.take_buffer,
                    "take_payload needs a completed buffer-mode receive");
  std::vector<std::byte> out = std::move(it->second.owned);
  completed_.erase(it);
  return out;
}

bool WirePortEngine::test_recv(PortHandle h) {
  while (incomplete_.contains(h)) {
    if (!try_progress()) return false;
  }
  const auto it = completed_.find(h);
  BRUCK_REQUIRE_MSG(it != completed_.end(),
                    "unknown or already-consumed receive handle");
  std::erase(unreported_, h);
  retire_if_landing(h);
  return true;
}

void WirePortEngine::wait_recv(PortHandle h) {
  const DrainDeadline deadline(recv_timeout());
  while (incomplete_.contains(h)) progress_blocking(deadline);
  const auto it = completed_.find(h);
  BRUCK_REQUIRE_MSG(it != completed_.end(),
                    "unknown or already-consumed receive handle");
  std::erase(unreported_, h);
  retire_if_landing(h);
}

PortHandle WirePortEngine::wait_any_recv() {
  const DrainDeadline deadline(recv_timeout());
  return wait_any_recv_within(deadline);
}

PortHandle WirePortEngine::wait_any_recv_within(const DrainDeadline& deadline) {
  while (unreported_.empty()) {
    BRUCK_REQUIRE_MSG(!recv_ops_.empty(),
                      "wait_any_recv with no outstanding receive");
    progress_blocking(deadline);
  }
  const PortHandle h = unreported_.front();
  unreported_.pop_front();
  retire_if_landing(h);
  return h;
}

void WirePortEngine::wait_all_recvs() {
  const DrainDeadline deadline(recv_timeout());
  while (!recv_ops_.empty()) progress_blocking(deadline);
  for (const PortHandle h : unreported_) retire_if_landing(h);
  unreported_.clear();
}

std::optional<PortHandle> WirePortEngine::poll_any_recv() {
  while (unreported_.empty()) {
    if (!try_progress()) return std::nullopt;
  }
  const PortHandle h = unreported_.front();
  unreported_.pop_front();
  retire_if_landing(h);
  return h;
}

void WirePortEngine::release_tag(int tag) {
  BRUCK_REQUIRE_MSG(tag > 0, "release_tag needs a nonzero collective tag");
  for (const RecvOp& op : recv_ops_) {
    BRUCK_REQUIRE_MSG(
        op.tag != tag,
        "release_tag with receives still outstanding under the tag");
  }
  const auto in_tag = [tag](std::uint64_t key) {
    return static_cast<int>(key >> 32) == tag;
  };
  for (const auto& [key, q] : stash_) {
    BRUCK_REQUIRE_MSG(
        !(in_tag(key) && !q.empty()),
        "release_tag with stashed wire messages still undelivered under "
        "the tag");
  }
  tag_rounds_.erase(tag);
  std::erase_if(send_seq_tagged_,
                [&](const auto& kv) { return in_tag(kv.first); });
  std::erase_if(recv_seq_tagged_,
                [&](const auto& kv) { return in_tag(kv.first); });
}

}  // namespace bruck::mps
