#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "workload/query_log.h"

namespace qpp::net {

/// \brief Versioned length-prefixed binary wire protocol for the prediction
/// server (see DESIGN.md "Network serving" for the byte layout).
///
/// Every frame is a fixed 20-byte little-endian header followed by
/// `payload_len` payload bytes:
///
///   offset  size  field
///   0       4     magic        0x51505057 ("QPPW")
///   4       1     version      1 (kProtocolVersion)
///   5       1     type         FrameType
///   6       2     reserved     must be 0
///   8       8     request_id   echoed verbatim in the response
///   16      4     payload_len  <= kMaxPayloadBytes
///
/// A batch is N frames written back to back (pipelining); each request is
/// answered by its own frame.
///
/// Decoding is strict: bad magic, an unsupported version, nonzero reserved
/// bits, an unknown type or an oversized length prefix poison the decoder
/// with a typed error — the server answers with kBadRequest and closes the
/// connection rather than resynchronizing on a corrupt stream.

inline constexpr uint32_t kFrameMagic = 0x51505057u;  // "QPPW"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;
/// Upper bound on one frame's payload; a length prefix above this (which
/// includes any "negative" 32-bit value reinterpreted as unsigned) is a
/// protocol violation, detected before buffering the payload.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;
/// Upper bound on bytes buffered inside one FrameDecoder (pipelined frames
/// awaiting Next()); Feed fails beyond it instead of growing unboundedly.
inline constexpr size_t kMaxDecoderBufferBytes = 8u << 20;
/// Longest error message EncodeErrorPayload can carry; anything longer is
/// truncated *visibly* (kErrorTruncationMark suffix within the cap).
inline constexpr size_t kMaxErrorMessageBytes = kMaxPayloadBytes - 2;
/// UTF-8 "…", appended to a truncated error message so a clamped
/// diagnostic can never be mistaken for a complete one.
inline constexpr std::string_view kErrorTruncationMark = "\xE2\x80\xA6";

enum class FrameType : uint8_t {
  /// Client -> server: one QueryRecord to predict (EncodeRequestPayload).
  kRequest = 1,
  /// Server -> client: a prediction (EncodeResponsePayload).
  kResponse = 2,
  /// Server -> client: a typed failure (EncodeErrorPayload).
  kError = 3,
};
const char* FrameTypeName(FrameType t);

/// Typed server-side failure, carried in kError payloads. The numeric
/// values are wire format — append only.
enum class ErrorCode : uint16_t {
  kNone = 0,
  /// Malformed frame or unparseable request payload.
  kBadRequest = 1,
  /// No model published in the registry yet.
  kNoModel = 2,
  /// Reserved: the server sheds nothing on admission (its micro-batch,
  /// bounded by kMaxBatch, is its only queue), so nothing sends it.
  kOverloaded = 3,
  /// The request's deadline expired before dispatch.
  kDeadlineExceeded = 4,
  /// The server is draining and no longer admits new requests.
  kShuttingDown = 5,
  /// Prediction failed for an unexpected reason (message has details).
  kInternal = 6,
};

struct Frame {
  FrameType type = FrameType::kRequest;
  uint64_t request_id = 0;
  std::string payload;
};

/// \brief A decoded frame whose payload is a view into the decoder's
/// buffer — the zero-copy sibling of Frame. The view stays valid until the
/// next Feed() on the decoder that produced it (Feed may compact or grow
/// the buffer); consume or copy before feeding more bytes.
struct FrameView {
  FrameType type = FrameType::kRequest;
  uint64_t request_id = 0;
  std::string_view payload;
};

/// Serializes header + payload. The frame's payload must not exceed
/// kMaxPayloadBytes (checked; oversized frames encode as an empty string —
/// callers build payloads with the Encode*Payload helpers, which cannot
/// exceed the bound for any QueryRecord the log format accepts).
std::string EncodeFrame(const Frame& frame);

/// Serializes just the 20-byte header for a payload of `payload_len` bytes
/// — the scatter-gather building block: header and payload stay separate
/// buffers and writev stitches them on the wire.
std::string EncodeFrameHeader(uint8_t version, FrameType type,
                              uint64_t request_id, uint32_t payload_len);

/// Request payload: u32 deadline_us (0 = none) + the QueryRecord in the
/// query-log text format (SerializeQueryRecord).
std::string EncodeRequestPayload(uint32_t deadline_us,
                                 const QueryRecord& record);
/// Request payload with the record in the compact binary format
/// (SerializeQueryRecordBinary) — the fast path batched clients use.
/// DecodeRequestPayload sniffs the format, so both kinds may interleave.
std::string EncodeRequestPayloadBinary(uint32_t deadline_us,
                                       const QueryRecord& record);
struct RequestPayload {
  uint32_t deadline_us = 0;
  QueryRecord record;
};
Result<RequestPayload> DecodeRequestPayload(std::string_view payload);

/// Response payload: u64 bit pattern of predicted_ms + u64 model_version.
std::string EncodeResponsePayload(double predicted_ms,
                                  uint64_t model_version);
struct ResponsePayload {
  double predicted_ms = 0.0;
  uint64_t model_version = 0;
};
Result<ResponsePayload> DecodeResponsePayload(std::string_view payload);

/// Error payload: u16 ErrorCode + UTF-8 message bytes. Messages over
/// kMaxErrorMessageBytes are truncated with a trailing
/// kErrorTruncationMark (still within the cap).
std::string EncodeErrorPayload(ErrorCode code, std::string_view message);
struct ErrorPayload {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};
Result<ErrorPayload> DecodeErrorPayload(std::string_view payload);

/// \brief Incremental frame decoder tolerant of arbitrary read
/// fragmentation: feed whatever bytes arrived (down to one at a time), pop
/// complete frames with Next()/NextView(). Headers are validated eagerly —
/// a protocol violation surfaces from Feed as a typed error even before
/// the bogus payload would have arrived — and a violation poisons the
/// decoder: every later Feed returns the same error, so a connection can
/// never resume on a corrupt stream.
///
/// Decoding is zero-copy: frames are parsed in place over an
/// offset-windowed buffer. The consumed prefix is dropped only when it is
/// both large and at least half the buffer, so every retained byte moves
/// O(1) times no matter how finely reads fragment (the old
/// erase-per-Feed compaction was O(buffered x frames) under pipelining;
/// compaction_bytes_moved() exposes the cost to the regression test).
class FrameDecoder {
 public:
  /// Appends raw bytes and validates/extracts any complete frames.
  /// Invalidates FrameViews returned earlier.
  Status Feed(const char* data, size_t n);

  /// Pops the next complete frame in arrival order as an owning copy;
  /// nullopt when more bytes are needed.
  std::optional<Frame> Next();

  /// Pops the next complete frame as a view into the decode buffer (no
  /// payload copy); nullopt when more bytes are needed. The view is valid
  /// until the next Feed.
  std::optional<FrameView> NextView();

  /// Bytes buffered that are still live: the unparsed suffix plus any
  /// parsed-but-unpopped frames.
  size_t buffered_bytes() const { return buffer_.size() - ReleasedPrefix(); }
  bool poisoned() const { return !poison_.ok(); }

  /// Bytes still missing to complete the partially-buffered frame at the
  /// head of the stream (0 when unknown or nothing is pending). Callers
  /// size their next read with this, so a 1 MiB frame arrives in a few
  /// large reads instead of hundreds of fixed-size ones.
  size_t PendingFrameBytes() const;

  /// Total bytes memmoved by front-compaction since construction. Test
  /// hook: bounds the decoder's copy cost under adversarial fragmentation.
  size_t compaction_bytes_moved() const { return bytes_moved_; }

 private:
  /// A parsed frame described by offsets into buffer_.
  struct ReadyFrame {
    FrameType type = FrameType::kRequest;
    uint64_t request_id = 0;
    size_t begin = 0;        // offset of this frame's header
    size_t payload_off = 0;  // offset of this frame's payload
    uint32_t payload_len = 0;
  };

  Status ParseReady();
  /// Offset below which no queued frame or unparsed byte lives.
  size_t ReleasedPrefix() const {
    return ready_.empty() ? scan_ : ready_.front().begin;
  }

  std::string buffer_;
  /// Offset where header parsing resumes (end of the last parsed frame).
  size_t scan_ = 0;
  std::deque<ReadyFrame> ready_;
  size_t bytes_moved_ = 0;
  Status poison_ = Status::OK();
};

}  // namespace qpp::net
