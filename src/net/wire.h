#ifndef KLINK_NET_WIRE_H_
#define KLINK_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/event/event.h"

namespace klink {

/// The Klink ingest wire protocol: length-prefixed binary frames carrying
/// stream elements (data events, watermarks with the SWM flag, latency
/// markers) and control frames (session hello, error, end-of-stream) from
/// remote sources into the engine (see DESIGN.md "Network ingest").
///
/// Every frame is an 8-byte header followed by `payload_len` payload bytes;
/// all integers are little-endian:
///
///   offset  size  field
///        0     2  magic        0x4B4C ("KL")
///        2     1  version      kWireVersion
///        3     1  type         FrameType
///        4     4  payload_len  payload bytes that follow
///
/// Element frames have fixed payload layouts (exact length is enforced).
/// Since protocol v2 every element frame starts with a client-assigned
/// per-stream sequence number (1, 2, 3, ... per connection stream) used for
/// exactly-once ingest: the server dedups duplicates after a reconnect and
/// acks durable prefixes so the client can trim its retransmit buffer.
///
///   kData (44 B):      seq u64, event_time i64, ingest_time i64, key u64,
///                      value f64 (IEEE-754 bits), payload_bytes u32
///   kWatermark (25 B): seq u64, event_time i64, ingest_time i64, flags u8
///                      (bit 0 = SWM)
///   kMarker (24 B):    seq u64, event_time i64, ingest_time i64
///   kRetraction (44 B), kUpdate (44 B): same layout as kData — the
///                      late-data correction elements (protocol v3; a v2
///                      peer never sees them because version skew is
///                      rejected at the header)
///
/// Control frames:
///
///   kHello (4 B):         stream_id u32 — must be the first frame on a
///                         connection; binds it to one ingest stream
///   kError (2..514 B):    code u16, utf-8 message — sent by the server
///                         before closing a misbehaving connection
///   kBye (0 B):           graceful end-of-stream
///   kHelloAck (12 B):     stream_id u32, next_seq u64 — server reply to
///                         hello; the first sequence number it expects
///                         (resume cursor after a reconnect/restore)
///   kCheckpointAck (16 B): epoch u64, durable_seq u64 — server notification
///                         that checkpoint `epoch` is durable and covers the
///                         stream prefix up to durable_seq; the client may
///                         discard retained events with seq <= durable_seq
///
/// Decoding is strictly bounds-checked: a frame that is structurally
/// invalid (bad magic/type, wrong payload length for its type, or a length
/// above kMaxPayloadLen) is rejected as malformed without reading past the
/// supplied buffer, and the connection that sent it is closed. A frame
/// whose version byte disagrees with kWireVersion decodes to the distinct
/// kVersionMismatch result so the server can answer version skew with a
/// typed error instead of a generic close.
inline constexpr uint16_t kWireMagic = 0x4B4C;  // "KL"
/// v2: element frames carry sequence numbers; kHelloAck/kCheckpointAck.
/// v3: kRetraction/kUpdate late-data correction element frames.
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kWireHeaderLen = 8;

/// Upper bound on any payload; guards against absurd length prefixes from
/// corrupt or adversarial peers.
inline constexpr uint32_t kMaxPayloadLen = 1u << 20;

/// Upper bound on the simulated payload_bytes field of a data event.
inline constexpr uint32_t kMaxEventPayloadBytes = 1u << 20;

/// Longest error message the encoder will emit / the decoder will accept.
inline constexpr size_t kMaxErrorMessageLen = 512;

enum class FrameType : uint8_t {
  kHello = 1,
  kData = 2,
  kWatermark = 3,
  kMarker = 4,
  kError = 5,
  kBye = 6,
  kHelloAck = 7,
  kCheckpointAck = 8,
  kRetraction = 9,
  kUpdate = 10,
};

/// Returns true for frame types that carry a stream element.
inline bool IsElementFrame(FrameType t) {
  return t == FrameType::kData || t == FrameType::kWatermark ||
         t == FrameType::kMarker || t == FrameType::kRetraction ||
         t == FrameType::kUpdate;
}

/// Error codes carried by kError frames.
enum class WireError : uint16_t {
  kMalformedFrame = 1,
  kUnknownStream = 2,
  kProtocolViolation = 3,  // e.g. element frame before hello, or a seq gap
  kServerShutdown = 4,
  kIdleTimeout = 5,
  kVersionMismatch = 6,  // peer speaks a different protocol version
};

/// One decoded frame. `event`/`seq` are valid for element frames (the
/// event's kind/swm fields are filled from the frame type), `stream_id` for
/// kHello and kHelloAck, `next_seq` for kHelloAck, `epoch`/`durable_seq`
/// for kCheckpointAck, and `error_code`/`error_message` for kError.
/// DecodeFrame writes exactly the valid fields of the decoded type; the
/// others keep what they held, so one Frame can be reused across frames.
struct Frame {
  FrameType type = FrameType::kBye;
  uint32_t stream_id = 0;
  Event event;
  uint64_t seq = 0;
  uint64_t next_seq = 0;
  uint64_t epoch = 0;
  uint64_t durable_seq = 0;
  uint16_t error_code = 0;
  std::string error_message;
};

enum class DecodeResult {
  /// A frame was decoded; `*consumed` bytes were used.
  kOk,
  /// The buffer holds only a prefix of a frame; read more bytes.
  kNeedMore,
  /// The buffer does not start with a valid frame; close the connection.
  kMalformed,
  /// Structurally a frame, but the peer speaks a different protocol
  /// version; reply with WireError::kVersionMismatch and close.
  kVersionMismatch,
};

/// Decodes the frame at the start of `data`. On kOk fills `*frame` and sets
/// `*consumed` to the total frame size (header + payload). Never reads past
/// `data + len`.
DecodeResult DecodeFrame(const uint8_t* data, size_t len, Frame* frame,
                         size_t* consumed);

/// ---- encoding: each appends one frame to `out` -------------------------
void EncodeHello(uint32_t stream_id, std::vector<uint8_t>* out);
/// Encodes a stream element as kData/kWatermark/kMarker from `e.kind`,
/// stamped with the per-stream sequence number `seq`. Checkpoint barriers
/// never cross the wire (they are injected server-side) and encode nothing.
void EncodeEvent(const Event& e, uint64_t seq, std::vector<uint8_t>* out);
void EncodeError(WireError code, const std::string& message,
                 std::vector<uint8_t>* out);
void EncodeBye(std::vector<uint8_t>* out);
void EncodeHelloAck(uint32_t stream_id, uint64_t next_seq,
                    std::vector<uint8_t>* out);
void EncodeCheckpointAck(uint64_t epoch, uint64_t durable_seq,
                         std::vector<uint8_t>* out);

/// Encoded size of an element frame (header + payload), for send budgeting.
size_t EncodedEventSize(const Event& e);

}  // namespace klink

#endif  // KLINK_NET_WIRE_H_
