// Frame codec: the versioned, self-delimiting binary encoding of a message
// train.
//
// One frame is one train hand-off: every payload buffered for a (src, dst)
// pair departs as a single frame, so a socket write amortizes per-message
// overhead exactly the way the in-memory mailbox hand-off amortizes the
// per-message lock — the paper's aggregation idea applied to the wire
// format itself. The same bytes work for any byte-stream transport;
// transport::PipeChannel writes them over the multi-process backend's
// socketpairs.
//
// Wire layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic "DPAF"
//        4     2  version (kFrameVersion)
//        6     2  flags (kFrameFlag*)
//        8     4  src node
//       12     4  dst node
//       16     8  phase epoch
//       24     8  seq_first  (min payload seq in the body; 0 = none)
//       32     8  seq_last   (max payload seq in the body; 0 = none)
//       40     4  payload count
//       44     4  body_len (bytes of the payload section)
//       48     4  header_crc = CRC-32 of bytes [0, 48)
//       52   ...  body: count x { tag u16, seq u64, len u32, bytes[len] }
//      ...     4  body_crc = CRC-32 of the body section
//
// The seq fields are part of the format but unused by the runtime: a
// stream socket is lossless and in order, so PipeChannel runs no
// sequence/ack protocol and every payload crosses with seq 0 (range 0..0).
// The codec still encodes, checks and returns whatever seqs it is given.
//
// Decoding is incremental (kNeedMore until a whole frame is buffered) and
// defensive: every length is bounds-checked before use and the header CRC
// is verified before body_len is trusted, so a flipped bit can make a
// frame *rejected* but never make the decoder read out of bounds — the
// property the fuzz suite locks in under ASan/UBSan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/types.h"

namespace dpa::transport {

using exec::NodeId;

constexpr std::uint32_t kFrameMagic = 0x46415044u;  // "DPAF" little-endian
constexpr std::uint16_t kFrameVersion = 1;
constexpr std::size_t kFrameHeaderBytes = 52;
constexpr std::size_t kFrameTrailerBytes = 4;  // body_crc
// Per-payload framing overhead: tag u16 + seq u64 + len u32.
constexpr std::size_t kPayloadHeaderBytes = 14;
// Defensive ceiling on the body a header may declare. Far above any train
// the runtime produces; its job is bounding what a corrupt (but
// CRC-colliding) header can make the decoder buffer for.
constexpr std::uint32_t kMaxFrameBody = 64u << 20;

// Frame flags.
// Control frames: the proc coordinator's termination protocol, told apart
// from data without decoding bodies.
constexpr std::uint16_t kFrameFlagControl = 1u << 0;

// One length-prefixed payload in a frame body. `seq` is a per-sender
// sequence number (0 = unsequenced), carried per payload because a
// sender's train may interleave sequences bound for many destinations —
// the header's [seq_first, seq_last] range is a summary, not a substitute.
struct FramePayload {
  std::uint16_t tag = 0;  // handler id / message kind, opaque to transport
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> bytes;
};

struct FrameHeader {
  std::uint16_t version = kFrameVersion;
  std::uint16_t flags = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t epoch = 0;
  std::uint64_t seq_first = 0;
  std::uint64_t seq_last = 0;
  std::uint32_t count = 0;
  std::uint32_t body_len = 0;
};

struct DecodedFrame {
  FrameHeader header;
  std::vector<FramePayload> payloads;
};

enum class DecodeStatus : std::uint8_t {
  kOk,
  kNeedMore,       // buffer holds a prefix of a (so far) valid frame
  kBadMagic,       // not a frame boundary
  kBadVersion,     // well-framed but from a future/unknown codec version
  kBadHeaderCrc,   // header bytes corrupted
  kBadBodyCrc,     // body bytes corrupted
  kBadLength,      // lengths inconsistent (payloads overrun/underrun body)
  kBadSeqRange,    // header seq range disagrees with the payloads
};

const char* to_string(DecodeStatus s);

// CRC-32 (IEEE reflected polynomial 0xEDB88320), the frame checksum.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed = 0);

// Encodes one frame and appends it to `out` (append, so a flush can pack
// several trains into one write buffer). Computes count, body_len, the
// seq range, and both CRCs. Payload sizes must keep body_len under
// kMaxFrameBody (DPA_CHECKed).
void encode_frame(NodeId src, NodeId dst, std::uint64_t epoch,
                  std::uint16_t flags, const std::vector<FramePayload>& train,
                  std::vector<std::uint8_t>* out);

// Attempts to decode one frame from the front of data[0, len). On kOk,
// *consumed is the frame's full size (the caller advances its buffer by
// that much); on every other status *consumed is 0. kNeedMore means the
// prefix is valid so far — buffer more bytes and retry. Any other status
// means the stream is corrupt at this offset; resynchronization policy is
// the caller's (the in-process transports treat it as fatal).
DecodeStatus decode_frame(const std::uint8_t* data, std::size_t len,
                          DecodedFrame* out, std::size_t* consumed);

}  // namespace dpa::transport
