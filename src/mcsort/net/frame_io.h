// Frame transport: turning a TCP byte stream back into frames.
//
// FrameAssembler is the incremental decoder both ends share: append raw
// socket bytes, pull complete frames. It distinguishes recoverable frame
// errors (CRC mismatch on a well-formed header: the frame is skipped, the
// stream stays in sync) from fatal ones (bad magic / version / oversized
// length: the length prefix can no longer be trusted, so the connection
// must close after reporting the typed error).
//
// Both ends read socket bytes straight into the assembler (ReadFrom): the
// blocking helpers below are the client/tool side, and the server's epoll
// loop calls ReadFrom on its non-blocking sockets.
#ifndef MCSORT_NET_FRAME_IO_H_
#define MCSORT_NET_FRAME_IO_H_

#include <sys/types.h>

#include <cstddef>
#include <string>

#include "mcsort/net/wire.h"

namespace mcsort {
namespace net {

struct Frame {
  FrameHeader header;
  std::string payload;
  FrameType type() const { return static_cast<FrameType>(header.type); }
  bool last_chunk() const { return (header.flags & kFlagLastChunk) != 0; }
};

class FrameAssembler {
 public:
  explicit FrameAssembler(size_t max_payload = kMaxPayloadCap)
      : max_payload_(max_payload < kMaxPayloadCap ? max_payload
                                                  : kMaxPayloadCap) {}

  void Append(const void* data, size_t n);

  // One read(2) of up to kReadChunk bytes from `fd` straight into the
  // buffer, retrying EINTR. Returns what read(2) returned: the byte count,
  // 0 at EOF, or -1 with errno set (EAGAIN on a drained non-blocking
  // socket or an expired SO_RCVTIMEO).
  static constexpr size_t kReadChunk = size_t{1} << 16;
  ssize_t ReadFrom(int fd);

  enum class Next {
    kFrame,     // *frame holds the next complete frame
    kNeedMore,  // only a partial frame buffered; feed more bytes
    kBadFrame,  // *error filled; *fatal says whether the stream is dead
  };
  Next Pull(Frame* frame, ErrorCode* error, bool* fatal);

  // Bytes buffered but not yet consumed — nonzero means a frame is in
  // flight, which is what the server's stalled-read timeout watches.
  size_t pending_bytes() const { return end_ - pos_; }

 private:
  // Room for `n` more bytes at end_, dropping the consumed prefix first.
  char* Reserve(size_t n);

  size_t max_payload_;
  // Bytes [pos_, end_) are buffered and unconsumed. The string's size is
  // the capacity, so reads land in it without zero-filling each time.
  std::string buffer_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

// ---------------------------------------------------------------------------
// Blocking helpers (client library, probe tool). All return false on
// error/EOF; EINTR is retried internally.
// ---------------------------------------------------------------------------

bool SendAll(int fd, const void* data, size_t n);
inline bool SendAll(int fd, const std::string& bytes) {
  return SendAll(fd, bytes.data(), bytes.size());
}

// One read(2) of up to 64 KiB appended to *buf; false on EOF or error
// (including a receive-timeout set via SO_RCVTIMEO).
bool RecvSome(int fd, std::string* buf);

// Reads until the assembler yields an event. Returns kFrame/kBadFrame as
// the assembler does, or kNeedMore to signal EOF/timeout mid-frame.
FrameAssembler::Next RecvFrame(int fd, FrameAssembler* assembler,
                               Frame* frame, ErrorCode* error, bool* fatal);

}  // namespace net
}  // namespace mcsort

#endif  // MCSORT_NET_FRAME_IO_H_
