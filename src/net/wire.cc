#include "src/net/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/little_endian.h"

namespace klink {
namespace {

constexpr size_t kDataPayloadLen = 44;
constexpr size_t kWatermarkPayloadLen = 25;
constexpr size_t kMarkerPayloadLen = 24;
constexpr size_t kHelloPayloadLen = 4;
constexpr size_t kHelloAckPayloadLen = 12;
constexpr size_t kCheckpointAckPayloadLen = 16;

/// Grows `out` by one whole frame of `payload_len` bytes, writes its
/// header, and returns where the payload goes: a frame is appended with
/// one write, not byte by byte.
uint8_t* AppendFrame(FrameType type, uint32_t payload_len,
                     std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + kWireHeaderLen + payload_len);
  uint8_t* p = out->data() + at;
  StoreLittleEndian(kWireMagic, p);
  p[2] = kWireVersion;
  p[3] = static_cast<uint8_t>(type);
  StoreLittleEndian(payload_len, p + 4);
  return p + kWireHeaderLen;
}

uint16_t GetU16(const uint8_t* p) { return LoadLittleEndian<uint16_t>(p); }
uint32_t GetU32(const uint8_t* p) { return LoadLittleEndian<uint32_t>(p); }
uint64_t GetU64(const uint8_t* p) { return LoadLittleEndian<uint64_t>(p); }

TimeMicros GetTime(const uint8_t* p) {
  return static_cast<TimeMicros>(GetU64(p));
}

void PutTime(TimeMicros t, uint8_t* p) {
  StoreLittleEndian(static_cast<uint64_t>(t), p);
}

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kUpdate);
}

/// Expected payload length for fixed-size frame types; -1 for variable.
int64_t ExpectedPayloadLen(FrameType t) {
  switch (t) {
    case FrameType::kHello:
      return kHelloPayloadLen;
    case FrameType::kData:
    case FrameType::kRetraction:
    case FrameType::kUpdate:
      return kDataPayloadLen;
    case FrameType::kWatermark:
      return kWatermarkPayloadLen;
    case FrameType::kMarker:
      return kMarkerPayloadLen;
    case FrameType::kBye:
      return 0;
    case FrameType::kError:
      return -1;
    case FrameType::kHelloAck:
      return kHelloAckPayloadLen;
    case FrameType::kCheckpointAck:
      return kCheckpointAckPayloadLen;
  }
  return -1;
}

}  // namespace

DecodeResult DecodeFrame(const uint8_t* data, size_t len, Frame* frame,
                         size_t* consumed) {
  if (len < kWireHeaderLen) return DecodeResult::kNeedMore;
  if (GetU16(data) != kWireMagic) return DecodeResult::kMalformed;
  if (data[2] != kWireVersion) return DecodeResult::kVersionMismatch;
  if (!ValidType(data[3])) return DecodeResult::kMalformed;
  const FrameType type = static_cast<FrameType>(data[3]);
  const uint32_t payload_len = GetU32(data + 4);
  if (payload_len > kMaxPayloadLen) return DecodeResult::kMalformed;
  const int64_t expected = ExpectedPayloadLen(type);
  if (expected >= 0 && payload_len != static_cast<uint32_t>(expected)) {
    return DecodeResult::kMalformed;
  }
  if (type == FrameType::kError &&
      (payload_len < 2 || payload_len > 2 + kMaxErrorMessageLen)) {
    return DecodeResult::kMalformed;
  }
  if (len < kWireHeaderLen + payload_len) return DecodeResult::kNeedMore;

  // Each type writes exactly its own fields. Data frames are nearly every
  // frame, so they store each event field in place: assigning a whole
  // Event built on the stack reloads it over the fresh stores.
  const uint8_t* p = data + kWireHeaderLen;
  frame->type = type;
  switch (type) {
    case FrameType::kHello:
      frame->stream_id = GetU32(p);
      break;
    case FrameType::kData:
    case FrameType::kRetraction:
    case FrameType::kUpdate: {
      Event& e = frame->event;
      e.kind = type == FrameType::kData ? EventKind::kData
               : type == FrameType::kRetraction ? EventKind::kRetraction
                                                : EventKind::kUpdate;
      e.stream = 0;
      frame->seq = GetU64(p);
      e.event_time = GetTime(p + 8);
      e.ingest_time = GetTime(p + 16);
      e.key = GetU64(p + 24);
      e.value = std::bit_cast<double>(GetU64(p + 32));
      e.payload_bytes = GetU32(p + 40);
      e.swm = false;
      if (frame->seq == 0 || e.event_time < 0 || e.ingest_time < 0 ||
          e.payload_bytes > kMaxEventPayloadBytes) {
        return DecodeResult::kMalformed;
      }
      break;
    }
    case FrameType::kWatermark: {
      frame->seq = GetU64(p);
      frame->event = MakeWatermark(GetTime(p + 8), GetTime(p + 16));
      const uint8_t flags = p[24];
      if ((flags & ~uint8_t{1}) != 0) return DecodeResult::kMalformed;
      frame->event.swm = (flags & 1) != 0;
      if (frame->seq == 0 || frame->event.ingest_time < 0) {
        return DecodeResult::kMalformed;
      }
      break;
    }
    case FrameType::kMarker:
      frame->seq = GetU64(p);
      frame->event = MakeLatencyMarker(GetTime(p + 8), GetTime(p + 16));
      if (frame->seq == 0 || frame->event.event_time < 0 ||
          frame->event.ingest_time < 0) {
        return DecodeResult::kMalformed;
      }
      break;
    case FrameType::kError:
      frame->error_code = GetU16(p);
      frame->error_message.assign(reinterpret_cast<const char*>(p + 2),
                                  payload_len - 2);
      break;
    case FrameType::kBye:
      break;
    case FrameType::kHelloAck:
      frame->stream_id = GetU32(p);
      frame->next_seq = GetU64(p + 4);
      if (frame->next_seq == 0) return DecodeResult::kMalformed;
      break;
    case FrameType::kCheckpointAck:
      frame->epoch = GetU64(p);
      frame->durable_seq = GetU64(p + 8);
      break;
  }
  *consumed = kWireHeaderLen + payload_len;
  return DecodeResult::kOk;
}

void EncodeHello(uint32_t stream_id, std::vector<uint8_t>* out) {
  StoreLittleEndian(stream_id,
                    AppendFrame(FrameType::kHello, kHelloPayloadLen, out));
}

void EncodeEvent(const Event& e, uint64_t seq, std::vector<uint8_t>* out) {
  uint8_t* p = nullptr;
  switch (e.kind) {
    case EventKind::kData:
    case EventKind::kRetraction:
    case EventKind::kUpdate: {
      const FrameType type = e.kind == EventKind::kData ? FrameType::kData
                             : e.kind == EventKind::kRetraction
                                 ? FrameType::kRetraction
                                 : FrameType::kUpdate;
      p = AppendFrame(type, kDataPayloadLen, out);
      StoreLittleEndian(e.key, p + 24);
      StoreLittleEndian(std::bit_cast<uint64_t>(e.value), p + 32);
      StoreLittleEndian(e.payload_bytes, p + 40);
      break;
    }
    case EventKind::kWatermark:
      p = AppendFrame(FrameType::kWatermark, kWatermarkPayloadLen, out);
      p[24] = e.swm ? 1 : 0;
      break;
    case EventKind::kLatencyMarker:
      p = AppendFrame(FrameType::kMarker, kMarkerPayloadLen, out);
      break;
    case EventKind::kCheckpointBarrier:
      // Barriers are injected by the server-side coordinator; they never
      // cross the ingest wire.
      return;
  }
  StoreLittleEndian(seq, p);
  PutTime(e.event_time, p + 8);
  PutTime(e.ingest_time, p + 16);
}

void EncodeError(WireError code, const std::string& message,
                 std::vector<uint8_t>* out) {
  const size_t msg_len = std::min(message.size(), kMaxErrorMessageLen);
  uint8_t* p = AppendFrame(FrameType::kError,
                           static_cast<uint32_t>(2 + msg_len), out);
  StoreLittleEndian(static_cast<uint16_t>(code), p);
  std::memcpy(p + 2, message.data(), msg_len);
}

void EncodeBye(std::vector<uint8_t>* out) {
  AppendFrame(FrameType::kBye, 0, out);
}

void EncodeHelloAck(uint32_t stream_id, uint64_t next_seq,
                    std::vector<uint8_t>* out) {
  uint8_t* p = AppendFrame(FrameType::kHelloAck, kHelloAckPayloadLen, out);
  StoreLittleEndian(stream_id, p);
  StoreLittleEndian(next_seq, p + 4);
}

void EncodeCheckpointAck(uint64_t epoch, uint64_t durable_seq,
                         std::vector<uint8_t>* out) {
  uint8_t* p =
      AppendFrame(FrameType::kCheckpointAck, kCheckpointAckPayloadLen, out);
  StoreLittleEndian(epoch, p);
  StoreLittleEndian(durable_seq, p + 8);
}

size_t EncodedEventSize(const Event& e) {
  switch (e.kind) {
    case EventKind::kData:
    case EventKind::kRetraction:
    case EventKind::kUpdate:
      return kWireHeaderLen + kDataPayloadLen;
    case EventKind::kWatermark:
      return kWireHeaderLen + kWatermarkPayloadLen;
    case EventKind::kLatencyMarker:
      return kWireHeaderLen + kMarkerPayloadLen;
    case EventKind::kCheckpointBarrier:
      return 0;
  }
  return kWireHeaderLen;
}

}  // namespace klink
