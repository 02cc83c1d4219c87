#include "mcsort/net/wire.h"

#include "mcsort/common/crc32c.h"

namespace mcsort {
namespace net {

bool IsClientFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kQuery:
    case FrameType::kCancel:
    case FrameType::kPing:
    case FrameType::kMetricsRequest:
    case FrameType::kSchemaRequest:
    case FrameType::kGoodbye:
    case FrameType::kSaveTable:
    case FrameType::kLoadTable:
    case FrameType::kDml:
      return true;
    default:
      return false;
  }
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kMalformedFrame: return "malformed_frame";
    case ErrorCode::kCrcMismatch: return "crc_mismatch";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kOversizedFrame: return "oversized_frame";
    case ErrorCode::kUnknownType: return "unknown_type";
    case ErrorCode::kMalformedQuery: return "malformed_query";
    case ErrorCode::kBadQuery: return "bad_query";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kProtocolViolation: return "protocol_violation";
    case ErrorCode::kUnknownTable: return "unknown_table";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kIoError: return "io_error";
  }
  return "unknown";
}

Status ToStatus(ErrorCode code, std::string detail) {
  switch (code) {
    case ErrorCode::kNone: return Status::Ok();
    case ErrorCode::kMalformedFrame:
    case ErrorCode::kMalformedQuery:
    case ErrorCode::kBadQuery:
    case ErrorCode::kOversizedFrame:
    case ErrorCode::kUnknownType:
      return Status::InvalidArgument(std::move(detail));
    case ErrorCode::kCrcMismatch: return Status::DataLoss(std::move(detail));
    case ErrorCode::kUnsupportedVersion:
    case ErrorCode::kProtocolViolation:
      return Status::FailedPrecondition(std::move(detail));
    case ErrorCode::kBusy:
    case ErrorCode::kShuttingDown:
    case ErrorCode::kIoError:
      return Status::Unavailable(std::move(detail));
    case ErrorCode::kCancelled: return Status::Cancelled(std::move(detail));
    case ErrorCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(detail));
    case ErrorCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(detail));
    case ErrorCode::kUnknownTable:
      return Status::NotFound(std::move(detail));
    case ErrorCode::kInternal: return Status::Internal(std::move(detail));
  }
  return Status::Internal(std::move(detail));
}

ErrorCode ToErrorCode(const Status& status) {
  switch (status.code) {
    case StatusCode::kOk: return ErrorCode::kNone;
    case StatusCode::kCancelled: return ErrorCode::kCancelled;
    case StatusCode::kDeadlineExceeded: return ErrorCode::kDeadlineExceeded;
    case StatusCode::kResourceExhausted: return ErrorCode::kResourceExhausted;
    case StatusCode::kInvalidArgument: return ErrorCode::kBadQuery;
    case StatusCode::kNotFound: return ErrorCode::kUnknownTable;
    case StatusCode::kUnavailable: return ErrorCode::kIoError;
    case StatusCode::kDataLoss: return ErrorCode::kCrcMismatch;
    case StatusCode::kFailedPrecondition: return ErrorCode::kProtocolViolation;
    case StatusCode::kUnimplemented: return ErrorCode::kBadQuery;
    case StatusCode::kInternal: return ErrorCode::kInternal;
  }
  return ErrorCode::kInternal;
}

void EncodeHeader(const FrameHeader& header, uint8_t out[kHeaderSize]) {
  std::string buf;
  buf.reserve(kHeaderSize);
  WireWriter w(&buf);
  w.U32(header.magic);
  w.U8(header.version);
  w.U8(header.type);
  w.U16(header.flags);
  w.U32(header.payload_len);
  w.U32(header.payload_crc);
  w.U64(header.request_id);
  std::memcpy(out, buf.data(), kHeaderSize);
}

FrameHeader DecodeHeader(const uint8_t in[kHeaderSize]) {
  WireReader r(in, kHeaderSize);
  FrameHeader h;
  h.magic = r.U32();
  h.version = r.U8();
  h.type = r.U8();
  h.flags = r.U16();
  h.payload_len = r.U32();
  h.payload_crc = r.U32();
  h.request_id = r.U64();
  return h;
}

std::string SealFrame(FrameType type, uint16_t flags, uint64_t request_id,
                      const std::string& payload) {
  std::string frame;
  frame.reserve(kHeaderSize + payload.size());
  frame.resize(kHeaderSize);
  frame += payload;
  SealFrameInPlace(type, flags, request_id, &frame);
  return frame;
}

void SealFrameInPlace(FrameType type, uint16_t flags, uint64_t request_id,
                      std::string* frame) {
  const char* payload = frame->data() + kHeaderSize;
  const size_t payload_len = frame->size() - kHeaderSize;
  FrameHeader header;
  header.type = static_cast<uint8_t>(type);
  header.flags = flags;
  header.payload_len = static_cast<uint32_t>(payload_len);
  header.payload_crc = Crc32c(payload, payload_len);
  header.request_id = request_id;
  EncodeHeader(header, reinterpret_cast<uint8_t*>(frame->data()));
}

void WireWriter::Str(const std::string& s) {
  const size_t n = s.size() < 65535 ? s.size() : 65535;
  U16(static_cast<uint16_t>(n));
  Raw(s.data(), n);
}

std::string WireReader::Str() {
  const uint16_t n = U16();
  if (!ok_ || n_ - pos_ < n) {
    ok_ = false;
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(p_ + pos_), n);
  pos_ += n;
  return s;
}

bool WireReader::Array(void* out, size_t n, size_t elem_size) {
  const size_t bytes = n * elem_size;
  if (!ok_ || n_ - pos_ < bytes) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, p_ + pos_, bytes);
  pos_ += bytes;
  return true;
}

}  // namespace net
}  // namespace mcsort
