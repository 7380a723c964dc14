#include "net/frame.h"

#include <bit>
#include <cstdio>
#include <cstring>

namespace qpp::net {
namespace {

/// Little-endian scalar append/read. The wire format is explicitly
/// little-endian regardless of host order; these helpers byte-serialize
/// through shifts so they are endian-correct everywhere.
void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint16_t ReadU16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(static_cast<uint16_t>(b[0]) |
                               static_cast<uint16_t>(b[1]) << 8);
}

uint32_t ReadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(b[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
  return v;
}

bool KnownFrameType(uint8_t t) {
  return t == static_cast<uint8_t>(FrameType::kRequest) ||
         t == static_cast<uint8_t>(FrameType::kResponse) ||
         t == static_cast<uint8_t>(FrameType::kError);
}

std::string HexU32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return std::string(buf);
}

/// Compact the buffer only once the dead prefix is both sizeable and at
/// least half of it: each compaction then moves no more bytes than were
/// released since the last one, so total bytes moved never exceeds total
/// bytes fed (amortized O(1) per byte; the regression test checks this).
constexpr size_t kCompactionMinBytes = 4096;

}  // namespace

const char* FrameTypeName(FrameType t) {
  switch (t) {
    case FrameType::kRequest: return "request";
    case FrameType::kResponse: return "response";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

std::string EncodeFrameHeader(uint8_t version, FrameType type,
                              uint64_t request_id, uint32_t payload_len) {
  std::string out;
  out.reserve(kFrameHeaderBytes);
  AppendU32(&out, kFrameMagic);
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(type));
  AppendU16(&out, 0);  // reserved
  AppendU64(&out, request_id);
  AppendU32(&out, payload_len);
  return out;
}

std::string EncodeFrame(const Frame& frame) {
  if (frame.payload.size() > kMaxPayloadBytes) return std::string();
  std::string out = EncodeFrameHeader(kProtocolVersion, frame.type,
                                      frame.request_id,
                                      static_cast<uint32_t>(frame.payload.size()));
  out += frame.payload;
  return out;
}

std::string EncodeRequestPayload(uint32_t deadline_us,
                                 const QueryRecord& record) {
  std::string out;
  AppendU32(&out, deadline_us);
  out += SerializeQueryRecord(record);
  return out;
}

std::string EncodeRequestPayloadBinary(uint32_t deadline_us,
                                       const QueryRecord& record) {
  std::string out;
  AppendU32(&out, deadline_us);
  out += SerializeQueryRecordBinary(record);
  return out;
}

Result<RequestPayload> DecodeRequestPayload(std::string_view payload) {
  if (payload.size() < 4) {
    return Status::InvalidArgument("request payload shorter than header");
  }
  RequestPayload req;
  req.deadline_us = ReadU32(payload.data());
  QPP_ASSIGN_OR_RETURN(req.record,
                       ParseQueryRecordAuto(payload.substr(4), "<wire>"));
  return req;
}

std::string EncodeResponsePayload(double predicted_ms,
                                  uint64_t model_version) {
  std::string out;
  AppendU64(&out, std::bit_cast<uint64_t>(predicted_ms));
  AppendU64(&out, model_version);
  return out;
}

Result<ResponsePayload> DecodeResponsePayload(std::string_view payload) {
  if (payload.size() != 16) {
    return Status::InvalidArgument("response payload must be 16 bytes, got " +
                                   std::to_string(payload.size()));
  }
  ResponsePayload resp;
  resp.predicted_ms = std::bit_cast<double>(ReadU64(payload.data()));
  resp.model_version = ReadU64(payload.data() + 8);
  return resp;
}

std::string EncodeErrorPayload(ErrorCode code, std::string_view message) {
  std::string out;
  AppendU16(&out, static_cast<uint16_t>(code));
  if (message.size() > kMaxErrorMessageBytes) {
    // Truncate visibly: clamp below the cap and append the ellipsis mark so
    // a cut diagnostic can never pass for a complete one.
    out += message.substr(0,
                          kMaxErrorMessageBytes - kErrorTruncationMark.size());
    out += kErrorTruncationMark;
  } else {
    out += message;
  }
  return out;
}

Result<ErrorPayload> DecodeErrorPayload(std::string_view payload) {
  if (payload.size() < 2) {
    return Status::InvalidArgument("error payload shorter than code field");
  }
  ErrorPayload err;
  err.code = static_cast<ErrorCode>(ReadU16(payload.data()));
  err.message = std::string(payload.substr(2));
  return err;
}

Status FrameDecoder::Feed(const char* data, size_t n) {
  QPP_RETURN_NOT_OK(poison_);
  if (buffered_bytes() + n > kMaxDecoderBufferBytes) {
    poison_ = Status::InvalidArgument(
        "frame decoder buffer overflow: peer sent more than " +
        std::to_string(kMaxDecoderBufferBytes) + " unconsumed bytes");
    return poison_;
  }
  const size_t released = ReleasedPrefix();
  if (released == buffer_.size()) {
    // Everything buffered was consumed: restart at offset 0 for free.
    buffer_.clear();
    scan_ = 0;
  } else if (released >= kCompactionMinBytes &&
             released * 2 >= buffer_.size()) {
    const size_t live = buffer_.size() - released;
    std::memmove(buffer_.data(), buffer_.data() + released, live);
    buffer_.resize(live);
    bytes_moved_ += live;
    scan_ -= released;
    for (auto& f : ready_) {
      f.begin -= released;
      f.payload_off -= released;
    }
  }
  buffer_.append(data, n);
  poison_ = ParseReady();
  return poison_;
}

Status FrameDecoder::ParseReady() {
  while (buffer_.size() - scan_ >= kFrameHeaderBytes) {
    const char* h = buffer_.data() + scan_;
    const uint32_t magic = ReadU32(h);
    if (magic != kFrameMagic) {
      return Status::InvalidArgument("bad frame magic 0x" + HexU32(magic));
    }
    const uint8_t version = static_cast<uint8_t>(h[4]);
    if (version != kProtocolVersion) {
      return Status::InvalidArgument("unsupported protocol version " +
                                     std::to_string(version));
    }
    const uint8_t type = static_cast<uint8_t>(h[5]);
    if (!KnownFrameType(type)) {
      return Status::InvalidArgument("unknown frame type " +
                                     std::to_string(type));
    }
    if (ReadU16(h + 6) != 0) {
      return Status::InvalidArgument("nonzero reserved header bits");
    }
    const uint32_t payload_len = ReadU32(h + 16);
    if (payload_len > kMaxPayloadBytes) {
      return Status::InvalidArgument(
          "frame payload length " + std::to_string(payload_len) +
          " exceeds limit " + std::to_string(kMaxPayloadBytes));
    }
    if (buffer_.size() - scan_ < kFrameHeaderBytes + payload_len) {
      break;  // header valid; wait for the rest of the payload
    }
    ReadyFrame frame;
    frame.type = static_cast<FrameType>(type);
    frame.request_id = ReadU64(h + 8);
    frame.begin = scan_;
    frame.payload_off = scan_ + kFrameHeaderBytes;
    frame.payload_len = payload_len;
    // ready_ growth is bounded by Feed, which rejects input once buffer_
    // would exceed the decoder cap -- bytes are checked before they enter.
    // qpp-lint: allow(unbounded-member-push): kMaxDecoderBufferBytes cap
    ready_.push_back(frame);
    scan_ += kFrameHeaderBytes + payload_len;
  }
  return Status::OK();
}

std::optional<FrameView> FrameDecoder::NextView() {
  if (ready_.empty()) return std::nullopt;
  const ReadyFrame rf = ready_.front();
  ready_.pop_front();
  FrameView view;
  view.type = rf.type;
  view.request_id = rf.request_id;
  view.payload =
      std::string_view(buffer_.data() + rf.payload_off, rf.payload_len);
  return view;
}

std::optional<Frame> FrameDecoder::Next() {
  std::optional<FrameView> view = NextView();
  if (!view) return std::nullopt;
  Frame f;
  f.type = view->type;
  f.request_id = view->request_id;
  f.payload.assign(view->payload.data(), view->payload.size());
  return f;
}

size_t FrameDecoder::PendingFrameBytes() const {
  if (!poison_.ok()) return 0;
  const size_t remaining = buffer_.size() - scan_;
  if (remaining == 0) return 0;
  if (remaining < kFrameHeaderBytes) return kFrameHeaderBytes - remaining;
  // ParseReady stopped here with a validated header and an incomplete
  // payload; report exactly what is still missing.
  const uint32_t payload_len = ReadU32(buffer_.data() + scan_ + 16);
  return kFrameHeaderBytes + payload_len - remaining;
}

}  // namespace qpp::net
