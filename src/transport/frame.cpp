#include "transport/frame.h"

#include <cstring>

#include "support/assert.h"

namespace dpa::transport {

namespace {

// Little-endian scalar append/read. memcpy keeps every access aligned-safe
// (the decoder walks arbitrary offsets into a byte buffer).
template <class T>
void put(std::vector<std::uint8_t>* out, T v) {
  std::uint8_t buf[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = std::uint8_t(v & 0xff);
    v = T(v >> 8);
  }
  out->insert(out->end(), buf, buf + sizeof(T));
}

template <class T>
T get(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) v = T((v << 8) | p[i]);
  return v;
}

// Slice-by-8 tables for the reflected polynomial 0xEDB88320: t[0] is the
// classic bytewise table, and t[k][i] is the CRC of byte i followed by k
// zero bytes, so eight table lookups fold one 64-bit word at a time.
using CrcTables = std::uint32_t[8][256];

const CrcTables& crc_tables() {
  static const auto* tables = [] {
    static CrcTables t;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (int k = 1; k < 8; ++k)
        t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    return &t;
  }();
  return *tables;
}

}  // namespace

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadHeaderCrc: return "bad-header-crc";
    case DecodeStatus::kBadBodyCrc: return "bad-body-crc";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadSeqRange: return "bad-seq-range";
  }
  return "unknown";
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  const CrcTables& t = crc_tables();
  std::uint32_t c = seed ^ 0xffffffffu;
  // Eight bytes per step, assembled little-endian so the result does not
  // depend on the host's byte order; the tail goes bytewise.
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = c ^ (std::uint32_t(data[0]) |
                                  std::uint32_t(data[1]) << 8 |
                                  std::uint32_t(data[2]) << 16 |
                                  std::uint32_t(data[3]) << 24);
    const std::uint32_t hi = std::uint32_t(data[4]) |
                             std::uint32_t(data[5]) << 8 |
                             std::uint32_t(data[6]) << 16 |
                             std::uint32_t(data[7]) << 24;
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void encode_frame(NodeId src, NodeId dst, std::uint64_t epoch,
                  std::uint16_t flags, const std::vector<FramePayload>& train,
                  std::vector<std::uint8_t>* out) {
  std::uint64_t body_len = 0;
  std::uint64_t seq_first = 0, seq_last = 0;
  for (const FramePayload& p : train) {
    body_len += kPayloadHeaderBytes + p.bytes.size();
    if (p.seq != 0) {
      if (seq_first == 0 || p.seq < seq_first) seq_first = p.seq;
      if (p.seq > seq_last) seq_last = p.seq;
    }
  }
  DPA_CHECK(body_len <= kMaxFrameBody)
      << "frame body " << body_len << " exceeds the codec ceiling "
      << kMaxFrameBody << " — split the train before encoding";

  const std::size_t base = out->size();
  out->reserve(base + kFrameHeaderBytes + std::size_t(body_len) +
               kFrameTrailerBytes);
  put<std::uint32_t>(out, kFrameMagic);
  put<std::uint16_t>(out, kFrameVersion);
  put<std::uint16_t>(out, flags);
  put<std::uint32_t>(out, src);
  put<std::uint32_t>(out, dst);
  put<std::uint64_t>(out, epoch);
  put<std::uint64_t>(out, seq_first);
  put<std::uint64_t>(out, seq_last);
  put<std::uint32_t>(out, std::uint32_t(train.size()));
  put<std::uint32_t>(out, std::uint32_t(body_len));
  put<std::uint32_t>(out, crc32(out->data() + base, kFrameHeaderBytes - 4));

  const std::size_t body_base = out->size();
  for (const FramePayload& p : train) {
    put<std::uint16_t>(out, p.tag);
    put<std::uint64_t>(out, p.seq);
    put<std::uint32_t>(out, std::uint32_t(p.bytes.size()));
    out->insert(out->end(), p.bytes.begin(), p.bytes.end());
  }
  put<std::uint32_t>(out,
                     crc32(out->data() + body_base, out->size() - body_base));
}

DecodeStatus decode_frame(const std::uint8_t* data, std::size_t len,
                          DecodedFrame* out, std::size_t* consumed) {
  *consumed = 0;
  // Reject a wrong magic as soon as the prefix disproves it — a stream that
  // lost framing should fail fast, not wait for 52 bytes of garbage.
  const std::uint8_t magic_bytes[4] = {
      std::uint8_t(kFrameMagic & 0xff), std::uint8_t((kFrameMagic >> 8) & 0xff),
      std::uint8_t((kFrameMagic >> 16) & 0xff),
      std::uint8_t((kFrameMagic >> 24) & 0xff)};
  for (std::size_t i = 0; i < len && i < 4; ++i)
    if (data[i] != magic_bytes[i]) return DecodeStatus::kBadMagic;
  if (len < kFrameHeaderBytes) return DecodeStatus::kNeedMore;

  // Header CRC before anything else is trusted: body_len in particular must
  // not make the caller buffer for a corrupt length.
  const std::uint32_t want_crc = get<std::uint32_t>(data + 48);
  if (crc32(data, kFrameHeaderBytes - 4) != want_crc)
    return DecodeStatus::kBadHeaderCrc;

  FrameHeader h;
  h.version = get<std::uint16_t>(data + 4);
  h.flags = get<std::uint16_t>(data + 6);
  h.src = get<std::uint32_t>(data + 8);
  h.dst = get<std::uint32_t>(data + 12);
  h.epoch = get<std::uint64_t>(data + 16);
  h.seq_first = get<std::uint64_t>(data + 24);
  h.seq_last = get<std::uint64_t>(data + 32);
  h.count = get<std::uint32_t>(data + 40);
  h.body_len = get<std::uint32_t>(data + 44);
  if (h.version != kFrameVersion) return DecodeStatus::kBadVersion;
  if (h.body_len > kMaxFrameBody) return DecodeStatus::kBadLength;
  // Every payload costs at least its fixed header, so a count the body
  // cannot hold is structurally impossible.
  if (std::uint64_t(h.count) * kPayloadHeaderBytes > h.body_len)
    return DecodeStatus::kBadLength;

  const std::size_t total =
      kFrameHeaderBytes + std::size_t(h.body_len) + kFrameTrailerBytes;
  if (len < total) return DecodeStatus::kNeedMore;

  const std::uint8_t* body = data + kFrameHeaderBytes;
  if (crc32(body, h.body_len) != get<std::uint32_t>(body + h.body_len))
    return DecodeStatus::kBadBodyCrc;

  std::vector<FramePayload> payloads;
  payloads.reserve(h.count);
  std::size_t off = 0;
  std::uint64_t seq_first = 0, seq_last = 0;
  for (std::uint32_t i = 0; i < h.count; ++i) {
    if (off + kPayloadHeaderBytes > h.body_len) return DecodeStatus::kBadLength;
    FramePayload p;
    p.tag = get<std::uint16_t>(body + off);
    p.seq = get<std::uint64_t>(body + off + 2);
    const std::uint32_t plen = get<std::uint32_t>(body + off + 10);
    off += kPayloadHeaderBytes;
    if (plen > h.body_len - off) return DecodeStatus::kBadLength;
    p.bytes.assign(body + off, body + off + plen);
    off += plen;
    if (p.seq != 0) {
      if (seq_first == 0 || p.seq < seq_first) seq_first = p.seq;
      if (p.seq > seq_last) seq_last = p.seq;
    }
    payloads.push_back(std::move(p));
  }
  if (off != h.body_len) return DecodeStatus::kBadLength;
  if (seq_first != h.seq_first || seq_last != h.seq_last)
    return DecodeStatus::kBadSeqRange;

  out->header = h;
  out->payloads = std::move(payloads);
  *consumed = total;
  return DecodeStatus::kOk;
}

}  // namespace dpa::transport
