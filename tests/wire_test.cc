// Wire codec coverage: round-trips for every frame type, structural
// rejection of truncated/oversized/bad-magic/bad-version frames, and a
// fuzz pass feeding random byte strings through the decoder — the decoder
// must classify every input without reading out of bounds (the CI ASan+
// UBSan job runs this test to enforce "without UB" mechanically).
//
// Protocol v2 adds per-stream sequence numbers on element frames plus the
// kHelloAck/kCheckpointAck control frames; version skew decodes to the
// distinct kVersionMismatch result, not generic kMalformed.
//
// Round trips would pass an encoder and decoder that changed together, so
// one frame of each type is also pinned byte for byte, and decoded from
// an odd offset: frames start anywhere in a connection's buffer.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/net/wire.h"

namespace klink {
namespace {

Frame MustDecode(const std::vector<uint8_t>& bytes) {
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string hex;
  char digits[3];
  for (const uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    hex += digits;
  }
  return hex;
}

std::vector<uint8_t> Unhex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

void ExpectSameEvent(const Event& got, const Event& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.stream, want.stream);
  EXPECT_EQ(got.event_time, want.event_time);
  EXPECT_EQ(got.ingest_time, want.ingest_time);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.value),
            std::bit_cast<uint64_t>(want.value));
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  EXPECT_EQ(got.swm, want.swm);
}

/// Compares every field a frame of `want.type` defines.
void ExpectSameFrame(const Frame& got, const Frame& want) {
  ASSERT_EQ(got.type, want.type);
  switch (want.type) {
    case FrameType::kHello:
      EXPECT_EQ(got.stream_id, want.stream_id);
      break;
    case FrameType::kData:
    case FrameType::kWatermark:
    case FrameType::kMarker:
    case FrameType::kRetraction:
    case FrameType::kUpdate:
      EXPECT_EQ(got.seq, want.seq);
      ExpectSameEvent(got.event, want.event);
      break;
    case FrameType::kError:
      EXPECT_EQ(got.error_code, want.error_code);
      EXPECT_EQ(got.error_message, want.error_message);
      break;
    case FrameType::kBye:
      break;
    case FrameType::kHelloAck:
      EXPECT_EQ(got.stream_id, want.stream_id);
      EXPECT_EQ(got.next_seq, want.next_seq);
      break;
    case FrameType::kCheckpointAck:
      EXPECT_EQ(got.epoch, want.epoch);
      EXPECT_EQ(got.durable_seq, want.durable_seq);
      break;
  }
}

/// A frame of `type` whose own fields `set` fills.
template <typename Set>
Frame MakeFrame(FrameType type, Set set) {
  Frame f;
  f.type = type;
  set(f);
  return f;
}

Frame ElementFrame(FrameType type, const Event& e, uint64_t seq) {
  return MakeFrame(type, [&](Frame& f) {
    f.event = e;
    f.seq = seq;
  });
}

Event SwmWatermark(TimeMicros timestamp, TimeMicros ingest_time) {
  Event wm = MakeWatermark(timestamp, ingest_time);
  wm.swm = true;
  return wm;
}

/// One frame of a type: how it is encoded, its bytes, and what it decodes
/// to.
struct GoldenFrame {
  std::function<void(std::vector<uint8_t>*)> encode;
  const char* hex;
  Frame decoded;
};

std::vector<GoldenFrame> GoldenFrames() {
  const Event data = MakeDataEvent(123456789, 123459999, 0xDEADBEEFCAFEull,
                                   -3.25, /*payload_bytes=*/96);
  const Event retraction = MakeRetractionEvent(1000, 1600, 42, 5.5, 64);
  const Event update = MakeUpdateEvent(1000, 1600, 42, 7.5, 64);
  const Event wm = MakeWatermark(1000, 2000);
  const Event swm = SwmWatermark(1000, 2000);
  const Event marker = MakeLatencyMarker(777, 888);
  return {
      {[](auto* out) { EncodeHello(0x01020304u, out); },
       "4c4b03010400000004030201",
       MakeFrame(FrameType::kHello,
                 [](Frame& f) { f.stream_id = 0x01020304u; })},
      {[=](auto* out) { EncodeEvent(data, 77, out); },
       "4c4b03022c0000004d0000000000000015cd5b07000000009fd95b0700000000"
       "fecaefbeadde00000000000000000ac060000000",
       ElementFrame(FrameType::kData, data, 77)},
      {[=](auto* out) { EncodeEvent(retraction, 9, out); },
       "4c4b03092c0000000900000000000000e8030000000000004006000000000000"
       "2a00000000000000000000000000164040000000",
       ElementFrame(FrameType::kRetraction, retraction, 9)},
      {[=](auto* out) { EncodeEvent(update, 10, out); },
       "4c4b030a2c0000000a00000000000000e8030000000000004006000000000000"
       "2a000000000000000000000000001e4040000000",
       ElementFrame(FrameType::kUpdate, update, 10)},
      {[=](auto* out) { EncodeEvent(wm, 1, out); },
       "4c4b0303190000000100000000000000e803000000000000d007000000000000"
       "00",
       ElementFrame(FrameType::kWatermark, wm, 1)},
      {[=](auto* out) { EncodeEvent(swm, 2, out); },
       "4c4b0303190000000200000000000000e803000000000000d007000000000000"
       "01",
       ElementFrame(FrameType::kWatermark, swm, 2)},
      {[=](auto* out) { EncodeEvent(marker, 999, out); },
       "4c4b030418000000e70300000000000009030000000000007803000000000000",
       ElementFrame(FrameType::kMarker, marker, 999)},
      {[](auto* out) {
         EncodeError(WireError::kUnknownStream, "no such stream", out);
       },
       "4c4b03051000000002006e6f20737563682073747265616d",
       MakeFrame(FrameType::kError,
                 [](Frame& f) {
                   f.error_code =
                       static_cast<uint16_t>(WireError::kUnknownStream);
                   f.error_message = "no such stream";
                 })},
      {[](auto* out) { EncodeBye(out); }, "4c4b030600000000",
       MakeFrame(FrameType::kBye, [](Frame&) {})},
      {[](auto* out) { EncodeHelloAck(13, 0x1122334455667788ull, out); },
       "4c4b03070c0000000d0000008877665544332211",
       MakeFrame(FrameType::kHelloAck,
                 [](Frame& f) {
                   f.stream_id = 13;
                   f.next_seq = 0x1122334455667788ull;
                 })},
      {[](auto* out) { EncodeCheckpointAck(5, 123456, out); },
       "4c4b030810000000050000000000000040e2010000000000",
       MakeFrame(FrameType::kCheckpointAck,
                 [](Frame& f) {
                   f.epoch = 5;
                   f.durable_seq = 123456;
                 })},
  };
}

TEST(WireTest, GoldenFramesPinTheWireFormat) {
  for (const GoldenFrame& g : GoldenFrames()) {
    SCOPED_TRACE(g.hex);
    std::vector<uint8_t> bytes;
    g.encode(&bytes);
    EXPECT_EQ(Hex(bytes), g.hex);
    // Appending encodes after what the buffer already holds.
    std::vector<uint8_t> appended = {0xAB};
    g.encode(&appended);
    EXPECT_EQ(Hex(appended), "ab" + std::string(g.hex));
  }
}

TEST(WireTest, GoldenFramesDecodeFromOddOffsets) {
  for (const GoldenFrame& g : GoldenFrames()) {
    SCOPED_TRACE(g.hex);
    const std::vector<uint8_t> frame = Unhex(g.hex);
    for (const size_t offset : {size_t{1}, size_t{3}, size_t{7}}) {
      // The frame sits between unrelated bytes, as in a receive buffer.
      std::vector<uint8_t> buf(offset, 0xEE);
      buf.insert(buf.end(), frame.begin(), frame.end());
      buf.insert(buf.end(), {0x4C, 0x4B, 0x03});
      Frame f;
      size_t consumed = 0;
      ASSERT_EQ(DecodeFrame(buf.data() + offset, buf.size() - offset, &f,
                            &consumed),
                DecodeResult::kOk);
      EXPECT_EQ(consumed, frame.size());
      ExpectSameFrame(f, g.decoded);
    }
  }
}

TEST(WireTest, ReusedFrameKeepsNoStaleFields) {
  // The server decodes a read's frames into one Frame, and an element
  // frame does not reset the control fields: every decode must define
  // each field of its own type, whatever the frame held before.
  const std::vector<Frame> sequence = {
      ElementFrame(FrameType::kWatermark, SwmWatermark(50, 60), 1),
      // A data frame after a watermark: swm and payload_bytes are its own.
      ElementFrame(FrameType::kData,
                   MakeDataEvent(100, 110, /*key=*/0xFEEDull, /*value=*/2.5,
                                 /*payload_bytes=*/96),
                   2),
      // A watermark after a data frame with a nonzero key and value.
      ElementFrame(FrameType::kWatermark, MakeWatermark(120, 130), 3),
      ElementFrame(FrameType::kUpdate, MakeUpdateEvent(140, 150, 7, 9.5, 80),
                   4),
      // A marker after an update.
      ElementFrame(FrameType::kMarker, MakeLatencyMarker(160, 170), 5),
      ElementFrame(FrameType::kRetraction,
                   MakeRetractionEvent(180, 190, 8, -1.5, 72), 6),
      // Control frames after element frames read back exactly.
      MakeFrame(FrameType::kError,
                [](Frame& f) {
                  f.error_code = static_cast<uint16_t>(WireError::kIdleTimeout);
                  f.error_message = "idle";
                }),
      ElementFrame(FrameType::kData, MakeDataEvent(200, 210, 9, 4.0), 7),
      MakeFrame(FrameType::kHelloAck,
                [](Frame& f) {
                  f.stream_id = 3;
                  f.next_seq = 41;
                }),
      ElementFrame(FrameType::kUpdate, MakeUpdateEvent(220, 230, 10, 1.0),
                   8),
      MakeFrame(FrameType::kCheckpointAck,
                [](Frame& f) {
                  f.epoch = 6;
                  f.durable_seq = 40;
                }),
      // An empty message after a longer one.
      MakeFrame(FrameType::kError,
                [](Frame& f) {
                  f.error_code =
                      static_cast<uint16_t>(WireError::kServerShutdown);
                }),
  };
  const auto encode = [](const Frame& f, std::vector<uint8_t>* out) {
    switch (f.type) {
      case FrameType::kError:
        EncodeError(static_cast<WireError>(f.error_code), f.error_message,
                    out);
        break;
      case FrameType::kHelloAck:
        EncodeHelloAck(f.stream_id, f.next_seq, out);
        break;
      case FrameType::kCheckpointAck:
        EncodeCheckpointAck(f.epoch, f.durable_seq, out);
        break;
      case FrameType::kData:
      case FrameType::kWatermark:
      case FrameType::kMarker:
      case FrameType::kRetraction:
      case FrameType::kUpdate:
        EncodeEvent(f.event, f.seq, out);
        break;
      case FrameType::kHello:
      case FrameType::kBye:
        FAIL() << "not in the sequence";
    }
  };
  // Every field starts out holding something no frame above decodes to.
  Frame frame;
  frame.event = MakeDataEvent(-9, -9, 99, 99.0, 999, /*stream=*/5);
  frame.event.swm = true;
  frame.seq = 999;
  frame.stream_id = 999;
  frame.next_seq = 999;
  frame.epoch = 999;
  frame.durable_seq = 999;
  frame.error_code = 999;
  frame.error_message = "stale";
  for (const Frame& want : sequence) {
    std::vector<uint8_t> bytes;
    encode(want, &bytes);
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
              DecodeResult::kOk);
    EXPECT_EQ(consumed, bytes.size());
    ExpectSameFrame(frame, want);
  }
}

TEST(WireTest, HelloRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeHello(42, &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(f.stream_id, 42u);
}

TEST(WireTest, DataEventRoundTrip) {
  const Event e = MakeDataEvent(/*event_time=*/123456789, /*ingest_time=*/
                                123459999, /*key=*/0xDEADBEEFCAFEull,
                                /*value=*/-3.25, /*payload_bytes=*/96);
  std::vector<uint8_t> bytes;
  EncodeEvent(e, /*seq=*/77, &bytes);
  EXPECT_EQ(bytes.size(), EncodedEventSize(e));
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kData);
  EXPECT_EQ(f.seq, 77u);
  EXPECT_TRUE(f.event.is_data());
  EXPECT_EQ(f.event.event_time, e.event_time);
  EXPECT_EQ(f.event.ingest_time, e.ingest_time);
  EXPECT_EQ(f.event.key, e.key);
  EXPECT_EQ(f.event.value, e.value);
  EXPECT_EQ(f.event.payload_bytes, e.payload_bytes);
}

TEST(WireTest, RetractionAndUpdateRoundTrip) {
  // v3 correction elements: same layout as kData, distinct frame types, so
  // a correction pair survives the wire byte-exactly (the retraction must
  // name the exact speculative result it cancels).
  struct Case {
    Event e;
    FrameType type;
  };
  const Case cases[] = {
      {MakeRetractionEvent(1000, 1600, /*key=*/42, /*value=*/5.5, 64),
       FrameType::kRetraction},
      {MakeUpdateEvent(1000, 1600, /*key=*/42, /*value=*/7.5, 64),
       FrameType::kUpdate},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> bytes;
    EncodeEvent(c.e, /*seq=*/9, &bytes);
    EXPECT_EQ(bytes.size(), EncodedEventSize(c.e));
    const Frame f = MustDecode(bytes);
    EXPECT_EQ(f.type, c.type);
    EXPECT_EQ(f.seq, 9u);
    EXPECT_EQ(f.event.kind, c.e.kind);
    EXPECT_EQ(f.event.event_time, c.e.event_time);
    EXPECT_EQ(f.event.ingest_time, c.e.ingest_time);
    EXPECT_EQ(f.event.key, c.e.key);
    EXPECT_EQ(f.event.value, c.e.value);
    EXPECT_EQ(f.event.payload_bytes, c.e.payload_bytes);
    EXPECT_TRUE(f.event.is_keyed_element());
    EXPECT_FALSE(f.event.is_data());
  }
}

TEST(WireTest, WatermarkRoundTripPreservesSwmFlag) {
  for (const bool swm : {false, true}) {
    Event wm = MakeWatermark(/*timestamp=*/1000, /*ingest_time=*/2000);
    wm.swm = swm;
    std::vector<uint8_t> bytes;
    EncodeEvent(wm, /*seq=*/1, &bytes);
    const Frame f = MustDecode(bytes);
    EXPECT_EQ(f.type, FrameType::kWatermark);
    EXPECT_EQ(f.seq, 1u);
    EXPECT_TRUE(f.event.is_watermark());
    EXPECT_EQ(f.event.event_time, wm.event_time);
    EXPECT_EQ(f.event.ingest_time, wm.ingest_time);
    EXPECT_EQ(f.event.swm, swm);
  }
}

TEST(WireTest, LatencyMarkerRoundTrip) {
  const Event m = MakeLatencyMarker(/*emit_time=*/777, /*ingest_time=*/888);
  std::vector<uint8_t> bytes;
  EncodeEvent(m, /*seq=*/999, &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kMarker);
  EXPECT_EQ(f.seq, 999u);
  EXPECT_TRUE(f.event.is_latency_marker());
  EXPECT_EQ(f.event.event_time, 777);
  EXPECT_EQ(f.event.ingest_time, 888);
}

TEST(WireTest, HelloAckRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeHelloAck(/*stream_id=*/13, /*next_seq=*/0x1122334455667788ull,
                 &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kHelloAck);
  EXPECT_EQ(f.stream_id, 13u);
  EXPECT_EQ(f.next_seq, 0x1122334455667788ull);
}

TEST(WireTest, CheckpointAckRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeCheckpointAck(/*epoch=*/5, /*durable_seq=*/123456, &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kCheckpointAck);
  EXPECT_EQ(f.epoch, 5u);
  EXPECT_EQ(f.durable_seq, 123456u);
}

TEST(WireTest, ErrorRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeError(WireError::kUnknownStream, "no such stream", &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.error_code, static_cast<uint16_t>(WireError::kUnknownStream));
  EXPECT_EQ(f.error_message, "no such stream");
}

TEST(WireTest, ErrorMessageTruncatedToLimit) {
  std::vector<uint8_t> bytes;
  EncodeError(WireError::kMalformedFrame,
              std::string(kMaxErrorMessageLen + 100, 'x'), &bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.error_message.size(), kMaxErrorMessageLen);
}

TEST(WireTest, ByeRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeBye(&bytes);
  const Frame f = MustDecode(bytes);
  EXPECT_EQ(f.type, FrameType::kBye);
}

TEST(WireTest, BackToBackFramesDecodeSequentially) {
  std::vector<uint8_t> bytes;
  EncodeHello(7, &bytes);
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  EncodeCheckpointAck(1, 10, &bytes);
  EncodeBye(&bytes);

  size_t off = 0;
  std::vector<FrameType> types;
  while (off < bytes.size()) {
    Frame f;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes.data() + off, bytes.size() - off, &f,
                          &consumed),
              DecodeResult::kOk);
    types.push_back(f.type);
    off += consumed;
  }
  EXPECT_EQ(types, (std::vector<FrameType>{FrameType::kHello,
                                           FrameType::kData,
                                           FrameType::kCheckpointAck,
                                           FrameType::kBye}));
}

TEST(WireTest, EveryTruncationPrefixNeedsMoreNeverCrashes) {
  // Element frame plus both new v2 control frames: every strict prefix
  // must classify as kNeedMore without reading out of bounds.
  const auto check_prefixes = [](const std::vector<uint8_t>& bytes) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      Frame f;
      size_t consumed = 0;
      EXPECT_EQ(DecodeFrame(bytes.data(), len, &f, &consumed),
                DecodeResult::kNeedMore)
          << "prefix length " << len;
    }
  };
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(100, 200, 5, 1.5), /*seq=*/1, &bytes);
  check_prefixes(bytes);
  bytes.clear();
  EncodeHelloAck(3, 42, &bytes);
  check_prefixes(bytes);
  bytes.clear();
  EncodeCheckpointAck(2, 99, &bytes);
  check_prefixes(bytes);
}

TEST(WireTest, BadMagicRejected) {
  std::vector<uint8_t> bytes;
  EncodeBye(&bytes);
  bytes[0] ^= 0xFF;
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, VersionSkewDistinctFromMalformed) {
  // A structurally valid frame from a peer speaking another protocol
  // version must decode to kVersionMismatch (so the server can reply with
  // the typed WireError::kVersionMismatch), not generic kMalformed.
  for (const uint8_t version : {uint8_t{1}, uint8_t{kWireVersion + 1}}) {
    std::vector<uint8_t> bytes;
    EncodeBye(&bytes);
    bytes[2] = version;
    Frame f;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
              DecodeResult::kVersionMismatch);
  }
}

TEST(WireTest, BadTypeRejected) {
  std::vector<uint8_t> bytes;
  EncodeBye(&bytes);
  for (const uint8_t type : {uint8_t{0}, uint8_t{9}, uint8_t{200}}) {
    bytes[3] = type;
    Frame f;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
              DecodeResult::kMalformed);
  }
}

TEST(WireTest, WrongPayloadLengthForTypeRejected) {
  // A data frame whose length prefix disagrees with the fixed layout.
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  bytes[4] = 43;  // one byte short of the 44-byte v2 data payload
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, OversizedLengthPrefixRejectedWithoutBuffering) {
  // Claims a payload over the hard cap: must be rejected immediately from
  // the 8-byte header, not buffered until "enough" bytes arrive.
  std::vector<uint8_t> bytes;
  EncodeBye(&bytes);
  const uint32_t huge = kMaxPayloadLen + 1;
  std::memcpy(bytes.data() + 4, &huge, sizeof(huge));
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, ZeroSequenceNumberRejected) {
  // seq is contiguous from 1; a zero seq can only come from a broken or
  // pre-v2 client whose frame slipped past the version check.
  for (const Event& e :
       {MakeDataEvent(1, 2, 3, 4.0), MakeWatermark(10, 20),
        MakeLatencyMarker(5, 6)}) {
    std::vector<uint8_t> bytes;
    EncodeEvent(e, /*seq=*/1, &bytes);
    const uint64_t zero = 0;
    std::memcpy(bytes.data() + kWireHeaderLen, &zero, sizeof(zero));
    Frame f;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
              DecodeResult::kMalformed);
  }
}

TEST(WireTest, NegativeTimesRejected) {
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  const uint64_t neg = static_cast<uint64_t>(int64_t{-5});
  // event_time sits after the 8-byte seq prefix in v2.
  std::memcpy(bytes.data() + kWireHeaderLen + 8, &neg, sizeof(neg));
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, AbsurdEventPayloadBytesRejected) {
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  const uint32_t huge = kMaxEventPayloadBytes + 1;
  std::memcpy(bytes.data() + kWireHeaderLen + 40, &huge, sizeof(huge));
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, UnknownWatermarkFlagsRejected) {
  Event wm = MakeWatermark(10, 20);
  std::vector<uint8_t> bytes;
  EncodeEvent(wm, /*seq=*/1, &bytes);
  bytes[kWireHeaderLen + 24] = 0x02;  // reserved flag bit
  Frame f;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(WireTest, RandomBytesNeverCrashTheDecoder) {
  Rng rng(0xF00D);
  std::vector<uint8_t> bytes;
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = static_cast<int>(rng.NextInt(0, 128));
    bytes.resize(static_cast<size_t>(len));
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    Frame f;
    size_t consumed = 0;
    const DecodeResult r =
        DecodeFrame(bytes.data(), bytes.size(), &f, &consumed);
    if (r == DecodeResult::kOk) {
      EXPECT_LE(consumed, bytes.size());
      EXPECT_GE(consumed, kWireHeaderLen);
    }
  }
}

TEST(WireTest, RandomPayloadBehindValidHeaderNeverCrashes) {
  // Valid header, fuzzed payload: exercises per-type payload validation
  // across the element frames and both v2 control frames.
  Rng rng(0xBEEF);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes;
    switch (rng.NextInt(0, 4)) {
      case 0:
        EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
        break;
      case 1:
        EncodeEvent(MakeWatermark(1, 2), /*seq=*/1, &bytes);
        break;
      case 2:
        EncodeHelloAck(1, 2, &bytes);
        break;
      case 3:
        EncodeCheckpointAck(1, 2, &bytes);
        break;
      default:
        EncodeError(WireError::kMalformedFrame, "msg", &bytes);
        break;
    }
    for (size_t i = kWireHeaderLen; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    Frame f;
    size_t consumed = 0;
    const DecodeResult r =
        DecodeFrame(bytes.data(), bytes.size(), &f, &consumed);
    EXPECT_TRUE(r == DecodeResult::kOk || r == DecodeResult::kMalformed);
  }
}

}  // namespace
}  // namespace klink
