// Transport-layer unit + fuzz coverage: the frame codec (transport/frame.h)
// and the relocated reliability core (transport/reliable.h).
//
// The codec suite mirrors json_fuzz_test's shape: a seeded-random corpus
// round-trips byte-stably, and a mutation corpus (truncations, bit flips,
// inserted bytes, duplicated frames) must decode to a clean failure status —
// never crash, never read out of bounds (the property the ASan/UBSan CI leg
// locks in).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/rng.h"
#include "transport/frame.h"
#include "transport/reliable.h"

namespace dpa::transport {
namespace {

// ---------- generators ----------

FramePayload gen_payload(Rng& rng, std::uint64_t seq) {
  FramePayload p;
  p.tag = std::uint16_t(rng.next_below(0x10000));
  p.seq = seq;
  const auto len = rng.next_below(64);  // includes empty payloads
  p.bytes.reserve(len);
  for (std::uint64_t i = 0; i < len; ++i)
    p.bytes.push_back(std::uint8_t(rng.next_below(256)));
  return p;
}

std::vector<FramePayload> gen_train(Rng& rng) {
  std::vector<FramePayload> train;
  const auto n = rng.next_below(6);  // includes empty trains
  std::uint64_t seq = rng.next_below(1000);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Mix sequenced and unsequenced payloads; sequences need not be dense.
    const bool sequenced = rng.next_below(4) != 0;
    train.push_back(gen_payload(rng, sequenced ? ++seq : 0));
  }
  return train;
}

void expect_equal(const std::vector<FramePayload>& train,
                  const DecodedFrame& got, int iter) {
  ASSERT_EQ(got.payloads.size(), train.size()) << "iter " << iter;
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(got.payloads[i].tag, train[i].tag) << "iter " << iter;
    EXPECT_EQ(got.payloads[i].seq, train[i].seq) << "iter " << iter;
    EXPECT_EQ(got.payloads[i].bytes, train[i].bytes) << "iter " << iter;
  }
}

// ---------- pinned basics ----------

TEST(Crc32, MatchesTheReferenceVector) {
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, WordWiseMatchesTheBytewiseReference) {
  // crc32() folds eight bytes per step; the bitwise loop below is the
  // definition. Every start alignment 0-7 and every length 0-300 covers
  // the word loop, the byte tail and their seams, and a nonzero seed
  // covers chaining.
  const auto reference = [](const std::uint8_t* p, std::size_t n,
                            std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
  };
  Rng rng(0xC3C32);
  std::vector<std::uint8_t> buf(8 + 300);
  for (auto& b : buf) b = std::uint8_t(rng.next_below(256));
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buf.data() + align;
      ASSERT_EQ(crc32(p, len), reference(p, len, 0))
          << "align " << align << " len " << len;
      ASSERT_EQ(crc32(p, len, 0x1234abcdu), reference(p, len, 0x1234abcdu))
          << "align " << align << " len " << len << " seeded";
    }
  }
}

TEST(FrameCodec, EncodesTheDocumentedLayout) {
  std::vector<FramePayload> train(1);
  train[0].tag = 7;
  train[0].seq = 42;
  train[0].bytes = {0xAA, 0xBB, 0xCC};
  std::vector<std::uint8_t> buf;
  encode_frame(/*src=*/3, /*dst=*/9, /*epoch=*/5, /*flags=*/0, train, &buf);
  ASSERT_EQ(buf.size(), kFrameHeaderBytes + kPayloadHeaderBytes + 3 +
                            kFrameTrailerBytes);
  // magic "DPAF" little-endian.
  EXPECT_EQ(buf[0], 'D');
  EXPECT_EQ(buf[1], 'P');
  EXPECT_EQ(buf[2], 'A');
  EXPECT_EQ(buf[3], 'F');
  EXPECT_EQ(buf[4], kFrameVersion);  // version lo byte
  EXPECT_EQ(buf[8], 3);              // src lo byte
  EXPECT_EQ(buf[12], 9);             // dst lo byte
  EXPECT_EQ(buf[16], 5);             // epoch lo byte
  EXPECT_EQ(buf[24], 42);            // seq_first lo byte
  EXPECT_EQ(buf[32], 42);            // seq_last lo byte
  EXPECT_EQ(buf[40], 1);             // count lo byte
  EXPECT_EQ(buf[44], kPayloadHeaderBytes + 3);  // body_len lo byte

  DecodedFrame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(buf.data(), buf.size(), &frame, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(frame.header.src, 3u);
  EXPECT_EQ(frame.header.dst, 9u);
  EXPECT_EQ(frame.header.epoch, 5u);
  EXPECT_EQ(frame.header.seq_first, 42u);
  EXPECT_EQ(frame.header.seq_last, 42u);
  expect_equal(train, frame, 0);
}

TEST(FrameCodec, RejectsFutureVersionsAsBadVersion) {
  std::vector<std::uint8_t> buf;
  encode_frame(0, 1, 0, 0, {}, &buf);
  buf[4] = kFrameVersion + 1;  // bump version...
  // ...and re-seal the header so the version check (not the CRC) fires.
  const std::uint32_t crc = crc32(buf.data(), 48);
  std::memcpy(buf.data() + 48, &crc, 4);
  DecodedFrame frame;
  std::size_t consumed = 1;
  EXPECT_EQ(decode_frame(buf.data(), buf.size(), &frame, &consumed),
            DecodeStatus::kBadVersion);
  EXPECT_EQ(consumed, 0u);
}

TEST(FrameCodec, RejectsOversizedBodyDeclarations) {
  std::vector<std::uint8_t> buf;
  encode_frame(0, 1, 0, 0, {}, &buf);
  const std::uint32_t huge = kMaxFrameBody + 1;
  std::memcpy(buf.data() + 44, &huge, 4);
  const std::uint32_t crc = crc32(buf.data(), 48);
  std::memcpy(buf.data() + 48, &crc, 4);
  DecodedFrame frame;
  std::size_t consumed = 0;
  // A CRC-valid header may not make the decoder buffer 64 MiB+.
  EXPECT_EQ(decode_frame(buf.data(), buf.size(), &frame, &consumed),
            DecodeStatus::kBadLength);
}

TEST(FrameCodec, RejectsSeqRangeDisagreeingWithPayloads) {
  std::vector<FramePayload> train(1);
  train[0].seq = 7;
  std::vector<std::uint8_t> buf;
  encode_frame(0, 1, 0, 0, train, &buf);
  const std::uint64_t lie = 8;
  std::memcpy(buf.data() + 24, &lie, 8);  // seq_first
  std::memcpy(buf.data() + 32, &lie, 8);  // seq_last
  const std::uint32_t crc = crc32(buf.data(), 48);
  std::memcpy(buf.data() + 48, &crc, 4);
  DecodedFrame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(buf.data(), buf.size(), &frame, &consumed),
            DecodeStatus::kBadSeqRange);
}

TEST(FrameCodec, NonMagicPrefixFailsFastAsBadMagic) {
  const std::uint8_t junk[] = {'n', 'o', 'p', 'e', 0, 0, 0, 0};
  DecodedFrame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(junk, sizeof junk, &frame, &consumed),
            DecodeStatus::kBadMagic);
  // A short buffer that cannot be a frame prefix fails fast too (the
  // stream will never heal by buffering more bytes).
  const std::uint8_t bad2[] = {'D', 'X'};
  EXPECT_EQ(decode_frame(bad2, 2, &frame, &consumed), DecodeStatus::kBadMagic);
}

// ---------- properties ----------

TEST(FrameFuzz, RandomTrainsRoundTrip) {
  Rng rng(0xF4a3e1);
  for (int iter = 0; iter < 500; ++iter) {
    const auto train = gen_train(rng);
    const NodeId src = NodeId(rng.next_below(64));
    const NodeId dst = NodeId(rng.next_below(64));
    const std::uint64_t epoch = rng.next_u64() >> 8;
    const std::uint16_t flags =
        rng.next_below(2) ? kFrameFlagControl : std::uint16_t(0);

    std::vector<std::uint8_t> buf;
    encode_frame(src, dst, epoch, flags, train, &buf);
    // Byte-stable: re-encoding the same train yields the same bytes.
    std::vector<std::uint8_t> buf2;
    encode_frame(src, dst, epoch, flags, train, &buf2);
    EXPECT_EQ(buf, buf2) << "iter " << iter;

    DecodedFrame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(buf.data(), buf.size(), &frame, &consumed),
              DecodeStatus::kOk)
        << "iter " << iter;
    EXPECT_EQ(consumed, buf.size()) << "iter " << iter;
    EXPECT_EQ(frame.header.src, src);
    EXPECT_EQ(frame.header.dst, dst);
    EXPECT_EQ(frame.header.epoch, epoch);
    EXPECT_EQ(frame.header.flags, flags);
    expect_equal(train, frame, iter);
  }
}

TEST(FrameFuzz, ConcatenatedFramesDecodeSequentially) {
  Rng rng(0xF4a3e2);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::vector<FramePayload>> trains;
    std::vector<std::uint8_t> stream;
    const auto n = 1 + rng.next_below(5);
    for (std::uint64_t i = 0; i < n; ++i) {
      trains.push_back(gen_train(rng));
      encode_frame(NodeId(i), NodeId(i + 1), 1, 0, trains.back(), &stream);
    }
    std::size_t pos = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      DecodedFrame frame;
      std::size_t consumed = 0;
      ASSERT_EQ(decode_frame(stream.data() + pos, stream.size() - pos, &frame,
                             &consumed),
                DecodeStatus::kOk)
          << "iter " << iter << " frame " << i;
      pos += consumed;
      EXPECT_EQ(frame.header.src, NodeId(i));
      expect_equal(trains[i], frame, iter);
    }
    EXPECT_EQ(pos, stream.size()) << "iter " << iter;
  }
}

TEST(FrameFuzz, EveryTruncationNeedsMoreAndNeverCrashes) {
  Rng rng(0xF4a3e3);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::uint8_t> buf;
    encode_frame(2, 3, 9, 0, gen_train(rng), &buf);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      DecodedFrame frame;
      std::size_t consumed = 7;
      const DecodeStatus s = decode_frame(buf.data(), cut, &frame, &consumed);
      // A prefix of a valid frame is always "buffer more": incremental
      // reassembly must never misread a partial frame as corrupt.
      EXPECT_EQ(s, DecodeStatus::kNeedMore)
          << "iter " << iter << " cut at " << cut;
      EXPECT_EQ(consumed, 0u);
    }
  }
}

TEST(FrameFuzz, SingleBitFlipsAreAlwaysDetected) {
  Rng rng(0xF4a3e4);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::uint8_t> buf;
    encode_frame(1, 2, 3, 0, gen_train(rng), &buf);
    // CRC-32 detects every single-bit error, so any one-bit flip must turn
    // into a clean failure status — kOk here would mean a checksum gap.
    std::vector<std::uint8_t> mut = buf;
    const std::size_t byte = rng.next_below(mut.size());
    mut[byte] ^= std::uint8_t(1u << rng.next_below(8));
    DecodedFrame frame;
    std::size_t consumed = 0;
    const DecodeStatus s =
        decode_frame(mut.data(), mut.size(), &frame, &consumed);
    EXPECT_NE(s, DecodeStatus::kOk)
        << "iter " << iter << ": flip at byte " << byte << " undetected";
    EXPECT_EQ(consumed, 0u);
    // kNeedMore is legitimate: a flip in body_len can declare a longer
    // body... no — body_len is under the header CRC. But a flip in the
    // *magic* of a frame whose remaining bytes happen to follow is
    // kBadMagic, and flips elsewhere in [0,48) are kBadHeaderCrc. Assert
    // the statuses stay in the failure set.
    EXPECT_TRUE(s == DecodeStatus::kBadMagic ||
                s == DecodeStatus::kBadHeaderCrc ||
                s == DecodeStatus::kBadBodyCrc)
        << "iter " << iter << ": status " << to_string(s);
  }
}

TEST(FrameFuzz, MutatedFramesNeverCrash) {
  Rng rng(0xF4a3e5);
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<std::uint8_t> buf;
    encode_frame(NodeId(rng.next_below(8)), NodeId(rng.next_below(8)),
                 rng.next_below(100), 0, gen_train(rng), &buf);
    const auto n_edits = 1 + rng.next_below(4);
    for (std::uint64_t e = 0; e < n_edits && !buf.empty(); ++e) {
      const std::size_t at = rng.next_below(buf.size());
      switch (rng.next_below(4)) {
        case 0:  // truncate
          buf.resize(at);
          break;
        case 1:  // flip a whole byte
          buf[at] = std::uint8_t(rng.next_below(256));
          break;
        case 2:  // insert a byte (shifts the body against its lengths)
          buf.insert(buf.begin() + std::ptrdiff_t(at),
                     std::uint8_t(rng.next_below(256)));
          break;
        default:  // delete a byte
          buf.erase(buf.begin() + std::ptrdiff_t(at));
      }
    }
    DecodedFrame frame;
    std::size_t consumed = 0;
    const DecodeStatus s =
        decode_frame(buf.data(), buf.size(), &frame, &consumed);
    // Must not crash or read out of bounds; consumed advances only on kOk.
    if (s != DecodeStatus::kOk) {
      EXPECT_EQ(consumed, 0u) << "iter " << iter;
    }
  }
}

TEST(FrameFuzz, DuplicatedFramesDecodeIdentically) {
  // The codec is stateless: the same frame appearing twice in a stream
  // (a retransmission, a fault-injected dup) decodes to the same train
  // both times — dedup is the reliability layer's job, not the codec's.
  Rng rng(0xF4a3e6);
  for (int iter = 0; iter < 100; ++iter) {
    const auto train = gen_train(rng);
    std::vector<std::uint8_t> stream;
    encode_frame(4, 5, 6, 0, train, &stream);
    const std::size_t one = stream.size();
    stream.insert(stream.end(), stream.begin(), stream.begin() + one);
    DecodedFrame a, b;
    std::size_t ca = 0, cb = 0;
    ASSERT_EQ(decode_frame(stream.data(), stream.size(), &a, &ca),
              DecodeStatus::kOk);
    ASSERT_EQ(ca, one);
    ASSERT_EQ(decode_frame(stream.data() + ca, stream.size() - ca, &b, &cb),
              DecodeStatus::kOk);
    expect_equal(train, a, iter);
    expect_equal(train, b, iter);
  }
}

TEST(FrameFuzz, RandomByteSoupNeverCrashes) {
  Rng rng(0xF4a3e7);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> soup;
    const auto len = rng.next_below(128);
    for (std::uint64_t i = 0; i < len; ++i)
      soup.push_back(std::uint8_t(rng.next_below(256)));
    DecodedFrame frame;
    std::size_t consumed = 0;
    const DecodeStatus s =
        decode_frame(soup.data(), soup.size(), &frame, &consumed);
    if (s != DecodeStatus::kOk) {
      EXPECT_EQ(consumed, 0u);
    }
  }
}

// ---------- the reliability core ----------

Reliable::Pending make_pending(NodeId dst) {
  Reliable::Pending p;
  p.dst = dst;
  p.handler = 1;
  p.bytes = 8;
  return p;
}

TEST(Reliable, SequencesTrackAckAndDrain) {
  Reliable rel(4, RetryPolicy{}, /*self=*/0);
  EXPECT_EQ(rel.in_flight(), 0u);
  EXPECT_EQ(rel.next_seq(), 1u);
  EXPECT_EQ(rel.next_seq(), 2u);

  const Time deadline = rel.track(1, make_pending(2), /*now=*/100);
  EXPECT_EQ(deadline, 100 + RetryPolicy{}.timeout_ns);
  rel.track(2, make_pending(3), 100);
  EXPECT_EQ(rel.in_flight(), 2u);
  EXPECT_TRUE(rel.is_pending(1));

  EXPECT_TRUE(rel.on_ack(1));
  EXPECT_FALSE(rel.on_ack(1));  // stale ack: already cleared
  EXPECT_FALSE(rel.is_pending(1));
  EXPECT_EQ(rel.in_flight(), 1u);
  EXPECT_TRUE(rel.on_ack(2));
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(Reliable, RetryBacksOffExponentiallyAndCapsAtMaxTimeout) {
  RetryPolicy policy;
  policy.timeout_ns = 1000;
  policy.backoff = 2.0;
  policy.max_timeout_ns = 3500;
  Reliable rel(2, policy, 0);
  rel.track(rel.next_seq(), make_pending(1), 0);

  const Reliable::Pending* p = rel.retry(1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->attempts, 1u);
  EXPECT_EQ(p->timeout, 2000);
  p = rel.retry(1);
  EXPECT_EQ(p->timeout, 3500);  // capped, not 4000
  p = rel.retry(1);
  EXPECT_EQ(p->timeout, 3500);  // stays at the cap

  // Acked messages stop retrying: the timer that fires after the ack
  // finds nothing and must get null (not a resurrection).
  EXPECT_TRUE(rel.on_ack(1));
  EXPECT_EQ(rel.retry(1), nullptr);
}

TEST(ReliableDeathTest, GivesUpLoudlyAfterMaxRetries) {
  RetryPolicy policy;
  policy.timeout_ns = 1000;
  policy.max_retries = 3;
  Reliable rel(4, policy, 0);

  const std::uint64_t seq = rel.next_seq();
  rel.track(seq, make_pending(3), /*now=*/0);

  // max_retries retransmissions are granted...
  for (std::uint32_t i = 1; i <= policy.max_retries; ++i) {
    const Reliable::Pending* p = rel.retry(seq);
    ASSERT_NE(p, nullptr) << "retry " << i;
    EXPECT_EQ(p->attempts, i);
  }
  EXPECT_EQ(rel.in_flight(), 1u);

  // ...and the next deadline gives the message up by dying, naming every
  // transmission ever made — the original send plus max_retries
  // retransmissions.
  EXPECT_DEATH(rel.retry(seq),
               R"(after 4 sends \(1 original \+ 3 retransmissions\))");
}

TEST(Reliable, AcceptDedupsPerSourceSequences) {
  Reliable rel(3, RetryPolicy{}, /*self=*/2);
  EXPECT_TRUE(rel.accept(0, 1));
  EXPECT_FALSE(rel.accept(0, 1));  // duplicate from the same source
  EXPECT_TRUE(rel.accept(1, 1));   // same seq, different source: distinct
  EXPECT_TRUE(rel.accept(0, 2));
}

}  // namespace
}  // namespace dpa::transport
