#include "mcsort/net/frame_io.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "mcsort/common/crc32c.h"

namespace mcsort {
namespace net {

void FrameAssembler::Append(const void* data, size_t n) {
  std::memcpy(Reserve(n), data, n);
  end_ += n;
}

ssize_t FrameAssembler::ReadFrom(int fd) {
  char* out = Reserve(kReadChunk);
  for (;;) {
    const ssize_t got = ::read(fd, out, kReadChunk);
    if (got < 0 && errno == EINTR) continue;
    if (got > 0) end_ += static_cast<size_t>(got);
    return got;
  }
}

char* FrameAssembler::Reserve(size_t n) {
  // Drop the consumed prefix when it is free (nothing left) or large, so a
  // long-lived connection neither grows the buffer without bound nor slides
  // a partial frame to the front on every read.
  if (pos_ == end_) {
    pos_ = end_ = 0;
  } else if (pos_ > size_t{1} << 20) {
    std::memmove(buffer_.data(), buffer_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (buffer_.size() - end_ < n) {
    buffer_.resize(std::max(end_ + n, 2 * buffer_.size()));
  }
  return buffer_.data() + end_;
}

FrameAssembler::Next FrameAssembler::Pull(Frame* frame, ErrorCode* error,
                                          bool* fatal) {
  if (end_ - pos_ < kHeaderSize) return Next::kNeedMore;

  const FrameHeader header = DecodeHeader(
      reinterpret_cast<const uint8_t*>(buffer_.data() + pos_));
  if (header.magic != kMagic) {
    *error = ErrorCode::kMalformedFrame;
    *fatal = true;
    return Next::kBadFrame;
  }
  if (header.version < kMinProtocolVersion ||
      header.version > kProtocolVersion) {
    *error = ErrorCode::kUnsupportedVersion;
    *fatal = true;
    return Next::kBadFrame;
  }
  if (header.payload_len > max_payload_) {
    *error = ErrorCode::kOversizedFrame;
    *fatal = true;
    return Next::kBadFrame;
  }
  if (end_ - pos_ < kHeaderSize + header.payload_len) {
    return Next::kNeedMore;
  }
  const char* payload = buffer_.data() + pos_ + kHeaderSize;
  const uint32_t crc = Crc32c(payload, header.payload_len);
  pos_ += kHeaderSize + header.payload_len;  // frame consumed either way
  if (crc != header.payload_crc) {
    *error = ErrorCode::kCrcMismatch;
    *fatal = false;  // framing is intact; only this payload is corrupt
    return Next::kBadFrame;
  }
  frame->header = header;
  frame->payload.assign(payload, header.payload_len);
  return Next::kFrame;
}

bool SendAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (written == 0) return false;
    p += written;
    n -= static_cast<size_t>(written);
  }
  return true;
}

bool RecvSome(int fd, std::string* buf) {
  char chunk[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF
    buf->append(chunk, static_cast<size_t>(got));
    return true;
  }
}

FrameAssembler::Next RecvFrame(int fd, FrameAssembler* assembler,
                               Frame* frame, ErrorCode* error, bool* fatal) {
  for (;;) {
    const FrameAssembler::Next next = assembler->Pull(frame, error, fatal);
    if (next != FrameAssembler::Next::kNeedMore) return next;
    if (assembler->ReadFrom(fd) <= 0) return FrameAssembler::Next::kNeedMore;
  }
}

}  // namespace net
}  // namespace mcsort
