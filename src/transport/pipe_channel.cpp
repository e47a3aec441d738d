#include "transport/pipe_channel.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "support/assert.h"

namespace dpa::transport {

namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  DPA_CHECK(flags >= 0) << "fcntl(F_GETFL): " << std::strerror(errno);
  DPA_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0)
      << "fcntl(F_SETFL): " << std::strerror(errno);
}

}  // namespace

PipeChannel::PipeChannel(Endpoint ep) : fd_(ep.fd) {
  DPA_CHECK(fd_ >= 0) << "PipeChannel needs a valid fd";
  set_nonblocking(fd_);
}

PipeChannel::~PipeChannel() { close(fd_); }

void PipeChannel::send_frame(NodeId src, NodeId dst,
                             const std::vector<FramePayload>& payloads) {
  std::vector<std::uint8_t> frame;
  encode_frame(src, dst, /*epoch=*/0, mark_control_ ? kFrameFlagControl : 0,
               payloads, &frame);
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  tx_.push_back(std::move(frame));
  if (!pumping_) write_backlog();
}

bool PipeChannel::write_backlog() {
  // Push backlog until the kernel buffer is full. send() with MSG_NOSIGNAL
  // instead of raw write(): a dead peer must surface as EPIPE ->
  // kPeerDown, not as a process-killing SIGPIPE.
  bool progress = false;
  while (!tx_.empty() && !peer_down_) {
    const auto& f = tx_.front();
    const ssize_t n =
        ::send(fd_, f.data() + tx_off_, f.size() - tx_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        peer_down_ = true;
        break;
      }
      DPA_CHECK(errno == EAGAIN || errno == EWOULDBLOCK)
          << "pipe write: " << std::strerror(errno);
      break;
    }
    progress = true;
    tx_off_ += std::size_t(n);
    if (tx_off_ == f.size()) {
      tx_.pop_front();
      tx_off_ = 0;
    }
  }
  return progress;
}

std::size_t PipeChannel::pump() {
  DPA_CHECK(!pumping_) << "re-entrant pump";
  if (peer_down_) return 0;
  pumping_ = true;
  std::size_t delivered = 0;
  bool progress = true;
  while (progress && !peer_down_) {
    progress = write_backlog();
    // Read side: drain the socket into the reassembly buffer. EOF means
    // the peer closed its half — also kPeerDown, never an abort.
    while (!peer_down_) {
      std::uint8_t buf[65536];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) {
          peer_down_ = true;
          break;
        }
        DPA_CHECK(errno == EAGAIN || errno == EWOULDBLOCK)
            << "pipe read: " << std::strerror(errno);
        break;
      }
      if (n == 0) {
        peer_down_ = true;
        break;
      }
      progress = true;
      rx_.insert(rx_.end(), buf, buf + n);
    }
    // Decode every complete frame in the buffer. A delivery callback that
    // sends appends to the TX backlog; the outer loop's progress flag
    // writes it before we give up.
    for (;;) {
      DecodedFrame frame;
      std::size_t consumed = 0;
      const DecodeStatus st = decode_frame(rx_.data() + rx_pos_,
                                           rx_.size() - rx_pos_, &frame,
                                           &consumed);
      if (st == DecodeStatus::kNeedMore) break;
      // A stream socket delivers every byte once and in order: a decode
      // failure here is a codec bug, not a transport fault.
      DPA_CHECK(st == DecodeStatus::kOk)
          << "pipe stream corrupt: " << to_string(st) << " at offset "
          << rx_pos_;
      rx_pos_ += consumed;
      ++stats_.frames_recv;
      stats_.payloads_recv += frame.payloads.size();
      delivered += frame.payloads.size();
      progress = true;
      DPA_CHECK(deliver_ != nullptr)
          << "pipe frame arrived with no delivery callback installed";
      for (const FramePayload& p : frame.payloads) deliver_(frame.header, p);
    }
    // Compact the reassembly buffer once the decoded prefix dominates.
    if (rx_pos_ > 0 && rx_pos_ >= rx_.size() / 2) {
      rx_.erase(rx_.begin(), rx_.begin() + std::ptrdiff_t(rx_pos_));
      rx_pos_ = 0;
    }
  }
  pumping_ = false;
  return delivered;
}

void PipeChannel::drain() {
  // Pumps until the backlog is on the wire and a pump delivers nothing.
  // Each pump writes what the kernel buffer takes; the rest leaves as the
  // peer reads, so this returns once a live peer has taken every byte. A
  // dead peer ends the loop at once — it will never read what we still
  // hold, and spinning on an undeliverable backlog would hang the caller.
  while (!peer_down_ && (pump() > 0 || !tx_.empty())) {
  }
}

}  // namespace dpa::transport
