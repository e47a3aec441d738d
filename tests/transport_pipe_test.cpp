// PipeChannel end-to-end: an em3d-style phase on 64 nodes round-trips
// through the socketpair frame codec with bit-identical physics, one end
// of the socketpair sending and the other receiving.
//
// The workload mirrors the runtime's remote-accumulation pattern on em3d's
// bipartite graph: each node owns E and H values; an E-update phase walks
// the H-side dependencies, computes coeff * h where the H value lives, and
// accumulates -contrib into the E value's home — remotely via the channel,
// locally via the staging buffer. Deliveries are staged and committed in
// (src, per-sender index) order after the phase drains, exactly the
// runtime's deterministic two-level reduction, so the committed doubles
// must be BIT-identical between the in-memory reference and the pipe — any
// difference means the transport perturbed physics.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "support/rng.h"
#include "transport/pipe_channel.h"

namespace dpa::transport {
namespace {

constexpr std::uint32_t kNodes = 64;
constexpr std::uint32_t kEPerNode = 8;   // E values owned per node
constexpr std::uint32_t kHPerNode = 8;   // H values owned per node
constexpr std::uint32_t kDegree = 4;     // H-dependencies per E value
constexpr std::uint16_t kAccumTag = 3;   // the one application payload tag
// The sender's trains: a (src, dst) train departs as one frame once it
// holds this many payloads, and at the end of the phase — the way the proc
// backend hands the channel its native pool's departing trains.
constexpr std::size_t kTrainMax = 8;

// One E <- H dependency edge, grouped by the H side's owner (the sender).
struct Edge {
  std::uint32_t e_slot = 0;  // global E index (owner = e_slot / kEPerNode)
  std::uint32_t h_slot = 0;  // global H index (owner = h_slot / kHPerNode)
  double coeff = 0;
};

struct Graph {
  std::vector<double> e_init;
  std::vector<double> h;
  std::vector<std::vector<Edge>> by_sender;  // edges grouped by H owner
};

Graph build_graph(std::uint64_t seed) {
  Graph g;
  Rng rng(seed);
  g.e_init.resize(kNodes * kEPerNode);
  g.h.resize(kNodes * kHPerNode);
  for (auto& v : g.e_init) v = rng.next_double() * 2.0 - 1.0;
  for (auto& v : g.h) v = rng.next_double() * 2.0 - 1.0;
  g.by_sender.resize(kNodes);
  for (std::uint32_t e = 0; e < kNodes * kEPerNode; ++e) {
    for (std::uint32_t d = 0; d < kDegree; ++d) {
      Edge edge;
      edge.e_slot = e;
      // ~half the dependencies cross node boundaries, like em3d's
      // remote_prob — the rest exercise the local (no-wire) path.
      edge.h_slot = std::uint32_t(rng.next_below(kNodes * kHPerNode));
      edge.coeff = rng.next_double();
      g.by_sender[edge.h_slot / kHPerNode].push_back(edge);
    }
  }
  return g;
}

// One staged accumulation: applied in (src, index) order at commit, which
// pins floating-point summation order no matter how the transport
// reordered delivery.
struct Staged {
  NodeId src = 0;
  std::uint64_t index = 0;  // per-sender message index (dense from 0)
  std::uint32_t e_slot = 0;
  double contrib = 0;
};

std::vector<std::uint8_t> marshal(std::uint64_t index, std::uint32_t e_slot,
                                  double contrib) {
  std::vector<std::uint8_t> w(20);
  std::memcpy(w.data(), &index, 8);
  std::memcpy(w.data() + 8, &e_slot, 4);
  std::memcpy(w.data() + 12, &contrib, 8);
  return w;
}

Staged unmarshal(NodeId src, const FramePayload& p) {
  EXPECT_EQ(p.bytes.size(), 20u);
  Staged s;
  s.src = src;
  std::memcpy(&s.index, p.bytes.data(), 8);
  std::memcpy(&s.e_slot, p.bytes.data() + 8, 4);
  std::memcpy(&s.contrib, p.bytes.data() + 12, 8);
  return s;
}

std::vector<double> commit(const Graph& g, std::vector<Staged> staged) {
  std::sort(staged.begin(), staged.end(), [](const Staged& a, const Staged& b) {
    return a.src != b.src ? a.src < b.src : a.index < b.index;
  });
  std::vector<double> e = g.e_init;
  for (const Staged& s : staged) e[s.e_slot] -= s.contrib;
  return e;
}

// The phase, parameterized over "how a remote contribution travels". The
// send function receives (sender, e-owner, marshalled bytes); local
// contributions stage directly (they never hit a wire, as in the engine).
void run_phase(const Graph& g, std::vector<Staged>* staged_out,
               const std::function<void(NodeId, NodeId, std::uint64_t,
                                        std::vector<std::uint8_t>)>&
                   send_remote) {
  std::vector<Staged>& staged = *staged_out;
  for (NodeId sender = 0; sender < kNodes; ++sender) {
    std::uint64_t index = 0;
    for (const Edge& edge : g.by_sender[sender]) {
      const double contrib = edge.coeff * g.h[edge.h_slot];
      const NodeId home = edge.e_slot / kEPerNode;
      if (home == sender) {
        Staged s;
        s.src = sender;
        s.index = index++;
        s.e_slot = edge.e_slot;
        s.contrib = contrib;
        staged.push_back(s);
      } else {
        send_remote(sender, home, index,
                    marshal(index, edge.e_slot, contrib));
        ++index;
      }
    }
  }
}

std::uint64_t count_remote(const Graph& g) {
  std::uint64_t n = 0;
  for (NodeId sender = 0; sender < kNodes; ++sender)
    for (const Edge& edge : g.by_sender[sender])
      if (edge.e_slot / kEPerNode != sender) ++n;
  return n;
}

std::pair<std::unique_ptr<PipeChannel>, std::unique_ptr<PipeChannel>>
make_endpoint_pair() {
  int sv[2] = {-1, -1};
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  return {std::make_unique<PipeChannel>(PipeChannel::Endpoint{sv[0]}),
          std::make_unique<PipeChannel>(PipeChannel::Endpoint{sv[1]})};
}

// One payload under `tag` per element of `bytes`.
std::vector<FramePayload> train_of(
    std::uint16_t tag, const std::vector<std::vector<std::uint8_t>>& bytes) {
  std::vector<FramePayload> train;
  for (const auto& b : bytes) train.push_back(FramePayload{tag, 0, b});
  return train;
}

// Pumps the sender `a` and the receiver `b` until a's backlog is on the
// wire and b has delivered everything it holds (the kernel buffer may not
// take the whole backlog until b reads).
void pump_until_delivered(PipeChannel& a, PipeChannel& b) {
  do {
    a.poll();
  } while (b.poll() > 0 || a.tx_backlog() > 0);
}

// Reference: every contribution staged in memory, no transport.
std::vector<double> run_reference(const Graph& g) {
  std::vector<Staged> staged;
  run_phase(g, &staged,
            [&](NodeId src, NodeId, std::uint64_t,
                std::vector<std::uint8_t> w) {
              FramePayload p;
              p.bytes = std::move(w);
              staged.push_back(unmarshal(src, p));
            });
  return commit(g, std::move(staged));
}

TEST(PipeChannel, Em3dPhaseRoundTripsBitIdentical) {
  const Graph g = build_graph(0xE3D1);
  const std::vector<double> want = run_reference(g);

  auto [a, b] = make_endpoint_pair();
  std::vector<Staged> staged;
  b->set_deliver([&](const FrameHeader& h, const FramePayload& p) {
    EXPECT_EQ(p.tag, kAccumTag);
    staged.push_back(unmarshal(h.src, p));
  });
  a->set_deliver([](const FrameHeader&, const FramePayload&) {
    FAIL() << "nothing was sent toward side A";
  });
  std::vector<std::vector<FramePayload>> trains(kNodes * kNodes);
  run_phase(g, &staged,
            [&](NodeId src, NodeId dst, std::uint64_t,
                std::vector<std::uint8_t> w) {
              auto& train = trains[src * kNodes + dst];
              train.push_back(FramePayload{kAccumTag, 0, std::move(w)});
              if (train.size() < kTrainMax) return;
              a->send_frame(src, dst, train);
              train.clear();
            });
  for (NodeId src = 0; src < kNodes; ++src)
    for (NodeId dst = 0; dst < kNodes; ++dst)
      if (!trains[src * kNodes + dst].empty())
        a->send_frame(src, dst, trains[src * kNodes + dst]);
  pump_until_delivered(*a, *b);

  EXPECT_EQ(a->tx_backlog(), 0u);
  const exec::WireStats& sent = a->wire_stats();
  const exec::WireStats& ws = b->wire_stats();
  EXPECT_EQ(ws.payloads_recv, count_remote(g));
  EXPECT_EQ(ws.frames_recv, sent.frames_sent);
  EXPECT_GT(sent.frames_sent, 0u);
  // A frame carries a whole train: strictly fewer frames than messages.
  EXPECT_LT(sent.frames_sent, ws.payloads_recv);

  const std::vector<double> got = commit(g, std::move(staged));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "e[" << i << "] diverged";  // bit-identical
}

TEST(PipeChannel, ControlFramesCarryTheControlFlag) {
  // set_control(true) stamps kFrameFlagControl on every frame the channel
  // sends — the flag is how a prioritizing transport tells the proc
  // coordinator's termination traffic apart without decoding bodies. A
  // default channel stamps none.
  for (const bool control : {true, false}) {
    auto [a, b] = make_endpoint_pair();
    if (control) a->set_control(true);
    std::uint64_t delivered = 0;
    b->set_deliver([&](const FrameHeader& h, const FramePayload&) {
      EXPECT_EQ(h.flags, control ? kFrameFlagControl : 0) << control;
      ++delivered;
    });
    a->set_deliver([](const FrameHeader&, const FramePayload&) {});
    // Several frames: trains of two and of one payload, two sources.
    a->send_frame(0, 1, train_of(1, {{0}, {1}}));
    a->send_frame(0, 1, train_of(1, {{2}, {3}}));
    a->send_frame(0, 1, train_of(1, {{4}}));
    a->send_frame(2, 0, train_of(1, {{9}}));
    pump_until_delivered(*a, *b);
    EXPECT_EQ(delivered, 6u) << control;
    EXPECT_EQ(b->wire_stats().frames_recv, 4u) << control;
  }
}

// ---------- endpoints + peer death ----------
//
// Each side of a socketpair lives in a different channel (in production, a
// different process). A dead peer must
// surface as ChannelStatus::kPeerDown — never a SIGPIPE, never an abort —
// because the coordinator turns it into a reported error.

TEST(PipeEndpoint, TwoChannelsRoundTripOverOneSocketpair) {
  auto [a, b] = make_endpoint_pair();
  std::vector<std::vector<std::uint8_t>> got;
  b->set_deliver([&](const FrameHeader& h, const FramePayload& p) {
    EXPECT_EQ(h.src, 0u);
    EXPECT_EQ(h.dst, 1u);
    got.push_back(p.bytes);
  });
  a->set_deliver([](const FrameHeader&, const FramePayload&) {
    FAIL() << "nothing was sent toward side A";
  });

  a->send_frame(0, 1, train_of(7, {{1, 2, 3, 4}}));
  for (int i = 0; i < 100 && got.empty(); ++i) b->poll();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(a->status(), ChannelStatus::kOk);
  EXPECT_EQ(b->status(), ChannelStatus::kOk);
}

TEST(PipeEndpoint, SentFrameLeavesBeforeSendFrameReturns) {
  // A proc control message is one payload in a frame of its own. The
  // frame must leave on send_frame() itself, not wait for the sender's
  // next poll().
  auto [a, b] = make_endpoint_pair();
  std::vector<std::vector<std::uint8_t>> got;
  b->set_deliver([&](const FrameHeader&, const FramePayload& p) {
    got.push_back(p.bytes);
  });
  a->set_deliver([](const FrameHeader&, const FramePayload&) {});

  a->send_frame(0, 1, train_of(7, {{5, 6, 7}}));
  EXPECT_EQ(a->tx_backlog(), 0u);
  EXPECT_EQ(b->poll(), 1u);  // one non-blocking poll: already in the socket
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::uint8_t>{5, 6, 7}));
}

TEST(PipeEndpoint, PeerCloseSurfacesAsPeerDownOnRead) {
  auto [a, b] = make_endpoint_pair();
  b.reset();  // peer vanishes: its destructor closes the other half
  a->set_deliver([](const FrameHeader&, const FramePayload&) {});
  EXPECT_EQ(a->poll(), 0u);  // EOF, not a crash
  EXPECT_EQ(a->status(), ChannelStatus::kPeerDown);
  // The condition is sticky and polling a dead channel stays a no-op.
  EXPECT_EQ(a->poll(), 0u);
  EXPECT_EQ(a->status(), ChannelStatus::kPeerDown);
}

TEST(PipeEndpoint, WriteToDeadPeerIsPeerDownNotSigpipe) {
  auto [a, b] = make_endpoint_pair();
  b.reset();
  a->set_deliver([](const FrameHeader&, const FramePayload&) {});
  // A raw write() here would raise SIGPIPE and kill the process; the
  // channel sends with MSG_NOSIGNAL and maps EPIPE to kPeerDown. Reaching
  // the assertions below IS the no-SIGPIPE proof.
  a->send_frame(0, 1, train_of(7, {std::vector<std::uint8_t>(4096, 0xAB)}));
  a->poll();
  EXPECT_EQ(a->status(), ChannelStatus::kPeerDown);
}

TEST(PipeEndpoint, DrainReturnsInsteadOfSpinningOnADeadPeer) {
  auto [a, b] = make_endpoint_pair();
  b.reset();
  a->set_deliver([](const FrameHeader&, const FramePayload&) {});
  // Queue more than a kernel buffer could absorb unanswered, then drain:
  // the "until no progress" loop must bail on peer-down rather than wait
  // forever for the dead side to read.
  for (int i = 0; i < 64; ++i)
    a->send_frame(
        0, 1, train_of(7, {std::vector<std::uint8_t>(65536, std::uint8_t(i))}));
  a->drain();  // must return (the test would hang here on a regression)
  EXPECT_EQ(a->status(), ChannelStatus::kPeerDown);
}

}  // namespace
}  // namespace dpa::transport
