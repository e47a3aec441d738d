// PipeChannel: message trains as encoded frames over a byte stream — one
// end of a non-blocking AF_UNIX socketpair() whose other end lives in
// another process (the multi-process backend's data and control links;
// the tests hold both ends in one process).
//
// Every train a node flushes is encoded into one frame (transport/frame.h),
// written to the socket, read on the other end, reassembled from the
// byte stream, decoded, and delivered payload by payload. The frame
// header's src/dst route delivery; its epoch is always 0.
//
// A stream socket between live processes neither drops, duplicates nor
// reorders bytes, so the channel runs no sequence/ack protocol: what is
// flushed arrives, once, in order. The one failure is the peer dying,
// which surfaces as ChannelStatus::kPeerDown.
//
// I/O model — a miniature event loop, single-threaded and non-blocking:
//   * flush appends encoded frames to a TX backlog;
//   * pump() writes as much backlog as the kernel buffer takes (partial
//     writes resume mid-frame), then reads everything available,
//     decodes complete frames from the reassembly buffer, and delivers.
// Writes never block, so the link makes progress as long as both ends keep
// pumping — which is what their owners' poll() loops do.
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
  PipeChannel(std::uint32_t num_nodes, std::uint32_t train_max, Endpoint ep);

  ~PipeChannel();

  PipeChannel(const PipeChannel&) = delete;
  PipeChannel& operator=(const PipeChannel&) = delete;

  // Marks every frame this channel sends as a control frame
  // (kFrameFlagControl) — used by the multi-process coordinator's
  // termination-protocol channel, whose traffic a prioritizing transport
  // must tell apart from data without decoding bodies.
  void set_control(bool control) { mark_control_ = control; }

  void set_deliver(FrameDeliverFn fn) { deliver_ = std::move(fn); }

  // Appends one payload to src's train for dst. A train that reaches
  // train_max payloads is encoded into the TX backlog at once; it leaves
  // at the next flush() or poll().
  void send(NodeId src, NodeId dst, std::uint16_t tag,
            std::vector<std::uint8_t> bytes);

  // Encodes each non-empty train of src as one frame, queues it, and pumps
  // whenever the TX backlog is non-empty. Contract: a queued frame leaves
  // on this call unless the kernel buffer is full (a later pump writes the
  // rest); called from inside a delivery callback, the enclosing pump
  // writes it. The pump also reads, so send()+flush() may run the
  // delivery callback before flush() returns.
  void flush(NodeId src);

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
  struct SrcState {
    std::vector<std::vector<FramePayload>> train;
    std::uint32_t pending = 0;
  };

  void flush_dest(NodeId src, NodeId dst);
  std::size_t pump();

  std::uint32_t train_max_;
  bool mark_control_ = false;
  std::vector<SrcState> srcs_;
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
