// PipeChannel: message trains as encoded frames over a byte stream — one
// end of a non-blocking AF_UNIX socketpair() whose other end lives in
// another process (the multi-process backend's data and control links;
// the tests hold both ends in one process).
//
// The channel batches nothing itself: the caller hands it whole trains
// (the proc backend's departing native trains, or one control payload),
// and each send_frame() encodes one frame (transport/frame.h). The other
// end reads the byte stream, reassembles and decodes the frames, and
// delivers them payload by payload. The frame header's src/dst route
// delivery; its epoch is always 0.
//
// A stream socket between live processes neither drops, duplicates nor
// reorders bytes, so the channel runs no sequence/ack protocol: what is
// sent arrives, once, in order. The one failure is the peer dying, which
// surfaces as ChannelStatus::kPeerDown.
//
// I/O model — a miniature event loop, non-blocking, used by one thread at
// a time:
//   * send_frame() appends the encoded frame to a TX backlog and writes as
//     much of the backlog as the kernel buffer takes (partial writes
//     resume mid-frame);
//   * poll() also writes the backlog, then reads everything available,
//     decodes complete frames from the reassembly buffer, and delivers.
// Only poll() reads, so deliveries run on the thread that polls even when
// other threads send (under the owner's lock). Writes never block, so the
// link makes progress as long as both ends keep polling — which is what
// their owners' loops do.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "transport/frame.h"

namespace dpa::transport {

// Liveness of the peer on the other end of a channel. A channel whose
// counterpart process died (EPIPE/ECONNRESET on write, EOF on read)
// reports kPeerDown instead of aborting, so a coordinator can detect the
// loss, name the dead peer, and fail the phase cleanly. Once kPeerDown, a
// channel stays down: sends are silently discarded and poll() makes no
// further progress.
enum class ChannelStatus : std::uint8_t { kOk, kPeerDown };

// Delivery callback: one decoded payload, with the frame header that
// carried it (routing + epoch).
using FrameDeliverFn =
    std::function<void(const FrameHeader&, const FramePayload&)>;

class PipeChannel {
 public:
  // Adopts one duplex fd: our half of a socketpair. Writes and reads both
  // use it; the channel owns it and closes it on destruction. Each proc
  // worker holds one PipeChannel per peer.
  struct Endpoint {
    int fd = -1;
  };
  explicit PipeChannel(Endpoint ep);

  ~PipeChannel();

  PipeChannel(const PipeChannel&) = delete;
  PipeChannel& operator=(const PipeChannel&) = delete;

  // Marks every frame this channel sends as a control frame
  // (kFrameFlagControl) — used by the multi-process coordinator's
  // termination-protocol channel, whose traffic a prioritizing transport
  // must tell apart from data without decoding bodies.
  void set_control(bool control) { mark_control_ = control; }

  void set_deliver(FrameDeliverFn fn) { deliver_ = std::move(fn); }

  // Encodes `payloads` as one frame from src to dst, queues it, and writes
  // the TX backlog. Contract: the frame leaves on this call unless the
  // kernel buffer is full (a later poll() writes the rest); called from
  // inside a delivery callback, the enclosing poll() writes it. Never
  // reads or delivers.
  void send_frame(NodeId src, NodeId dst,
                  const std::vector<FramePayload>& payloads);

  // Writes backlog / reads / decodes / delivers; returns payloads
  // delivered by this call. Once the peer is down this returns 0 forever
  // (status() says why) instead of aborting — see ChannelStatus.
  std::size_t poll() { return pump(); }

  ChannelStatus status() const {
    return peer_down_ ? ChannelStatus::kPeerDown : ChannelStatus::kOk;
  }

  // Forces everything queued onto the wire and drains until no progress:
  // the phase-end barrier.
  void drain();

  const exec::WireStats& wire_stats() const { return stats_; }
  std::size_t tx_backlog() const { return tx_.size(); }

  // The fd arrivals land on — what a multi-process event loop hands to
  // poll(2) to sleep until this channel has bytes to read.
  int wire_fd() const { return fd_; }

 private:
  // Writes backlog until the kernel buffer is full; true if any byte left.
  bool write_backlog();
  std::size_t pump();

  bool mark_control_ = false;
  FrameDeliverFn deliver_;

  int fd_ = -1;
  bool peer_down_ = false;  // EPIPE/ECONNRESET on write or EOF on read
  std::deque<std::vector<std::uint8_t>> tx_;  // encoded frames awaiting write
  std::size_t tx_off_ = 0;                    // partial-write offset in front
  std::vector<std::uint8_t> rx_;              // reassembly buffer
  std::size_t rx_pos_ = 0;                    // decoded-up-to offset in rx_
  bool pumping_ = false;                      // re-entrancy guard

  exec::WireStats stats_;
};

}  // namespace dpa::transport
