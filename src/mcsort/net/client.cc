#include "mcsort/net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace mcsort {
namespace net {

namespace {

void SetSocketTimeout(int fd, int which, double seconds) {
  if (seconds <= 0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) *
                               1e6);
  setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

// Blocking connect with a timeout: non-blocking connect + poll(POLLOUT),
// then back to blocking mode.
bool ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t len,
                        double seconds, std::string* error) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = connect(fd, addr, len);
  if (rc != 0 && errno != EINPROGRESS) {
    if (error != nullptr) *error = std::string("connect: ") + strerror(errno);
    return false;
  }
  if (rc != 0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int timeout_ms =
        seconds > 0 ? static_cast<int>(seconds * 1e3) : -1;
    do {
      rc = poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      if (error != nullptr) {
        *error = rc == 0 ? "connect: timed out"
                         : std::string("connect poll: ") + strerror(errno);
      }
      return false;
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len);
    if (so_error != 0) {
      if (error != nullptr) {
        *error = std::string("connect: ") + strerror(so_error);
      }
      return false;
    }
  }
  fcntl(fd, F_SETFL, flags);
  return true;
}

}  // namespace

McsortClient::McsortClient(const ClientOptions& options) : options_(options) {}

McsortClient::~McsortClient() { Close(); }

void McsortClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  assembler_ = FrameAssembler();
  inflight_query_.store(0, std::memory_order_relaxed);
}

void McsortClient::FailTransport() { Close(); }

bool McsortClient::Connect(std::string* error) {
  Close();

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host address: " + options_.host;
    return false;
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return false;
  }
  if (!ConnectWithTimeout(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr),
                          options_.connect_timeout_seconds, error)) {
    ::close(fd);
    return false;
  }

  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetSocketTimeout(fd, SO_RCVTIMEO, options_.io_timeout_seconds);
  SetSocketTimeout(fd, SO_SNDTIMEO, options_.io_timeout_seconds);
  fd_ = fd;

  // HELLO handshake.
  HelloRequest hello;
  hello.version = kProtocolVersion;
  hello.capabilities = kCapMergeKeys;
  hello.client_name = options_.client_name;
  const uint64_t id = NextRequestId();
  if (!SendFrame(FrameType::kHello, id, EncodeHello(hello))) {
    if (error != nullptr) *error = "hello: send failed";
    FailTransport();
    return false;
  }
  Frame frame;
  if (!ReadReply(id, &frame)) {
    if (error != nullptr) *error = "hello: no reply";
    FailTransport();
    return false;
  }
  if (frame.type() == FrameType::kError) {
    ErrorInfo info;
    DecodeError(frame.payload, &info);
    if (error != nullptr) {
      *error = std::string("hello rejected: ") + ErrorCodeName(info.code) +
               (info.detail.empty() ? "" : ": " + info.detail);
    }
    FailTransport();
    return false;
  }
  if (frame.type() != FrameType::kHelloAck ||
      !DecodeHelloReply(frame.payload, &hello_)) {
    if (error != nullptr) *error = "hello: malformed reply";
    FailTransport();
    return false;
  }
  // Version range check from the client side: reject a server whose
  // accepted window [min_version, version] misses ours. (The server does
  // the symmetric check on our HELLO and answers kUnsupportedVersion.)
  if (hello_.min_version > kProtocolVersion ||
      hello_.version < kMinProtocolVersion) {
    if (error != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "hello: server speaks versions %u..%u, client speaks "
                    "%u..%u",
                    hello_.min_version, hello_.version, kMinProtocolVersion,
                    kProtocolVersion);
      *error = buf;
    }
    FailTransport();
    return false;
  }
  return true;
}

bool McsortClient::SendFrame(FrameType type, uint64_t request_id,
                             const std::string& payload) {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ < 0) return false;
  return SendAll(fd_, SealFrame(type, 0, request_id, payload));
}

bool McsortClient::ReadReply(uint64_t request_id, Frame* frame) {
  bool timed_out = false;
  return ReadReplyUntil(request_id, frame, /*has_deadline=*/false,
                        std::chrono::steady_clock::time_point{}, &timed_out);
}

bool McsortClient::ReadReplyUntil(uint64_t request_id, Frame* frame,
                                  bool has_deadline,
                                  std::chrono::steady_clock::time_point deadline,
                                  bool* timed_out) {
  *timed_out = false;
  for (;;) {
    if (has_deadline) {
      const double remaining =
          std::chrono::duration<double>(deadline -
                                        std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) {
        *timed_out = true;
        return false;
      }
      // Narrow the per-operation receive window to whatever is left of the
      // call budget (never widening past the configured io timeout).
      const double window = options_.io_timeout_seconds > 0
                                ? std::min(options_.io_timeout_seconds,
                                           remaining)
                                : remaining;
      SetSocketTimeout(fd_, SO_RCVTIMEO, window);
    }
    ErrorCode code = ErrorCode::kNone;
    bool fatal = false;
    const auto next = RecvFrame(fd_, &assembler_, frame, &code, &fatal);
    if (next != FrameAssembler::Next::kFrame) {
      // A receive that failed with EAGAIN after the call deadline passed is
      // the narrowed SO_RCVTIMEO firing — report it as a timeout, not a
      // transport fault.
      if (has_deadline && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          std::chrono::steady_clock::now() >= deadline) {
        *timed_out = true;
      }
      return false;
    }
    if (frame->header.request_id == request_id) return true;
    // A stale reply from a request this client abandoned (e.g. the tail of
    // a cancelled query's result stream) — discard and keep reading.
  }
}

RemoteResult McsortClient::Query(const QuerySpec& spec,
                                 const QueryCallOptions& options) {
  RemoteResult out;
  TryQuery(spec, options, &out);
  return out;
}

Status McsortClient::TryQuery(const QuerySpec& spec,
                              const QueryCallOptions& options,
                              RemoteResult* result) {
  *result = RemoteResult();
  RemoteResult& out = *result;
  const auto finish = [&out](Status status) {
    out.status = std::move(status);
    return out.status;
  };
  // A failed transport leaves the stream position unrecoverable (the
  // server may still be streaming an abandoned result): the connection
  // dies and the caller must Connect again.
  const auto transport_failure = [&](Status status) {
    inflight_query_.store(0, std::memory_order_release);
    FailTransport();
    return finish(std::move(status));
  };
  if (fd_ < 0) return finish(Status::FailedPrecondition("not connected"));

  QueryEnvelope envelope;
  envelope.table = options.table;
  if (options.deadline_seconds > 0) {
    envelope.deadline_micros =
        static_cast<uint64_t>(options.deadline_seconds * 1e6);
    if (envelope.deadline_micros == 0) envelope.deadline_micros = 1;
  }
  envelope.want_merge_keys = options.want_merge_keys;
  envelope.spec = spec;

  const bool has_deadline = options.call_timeout_seconds > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              has_deadline ? options.call_timeout_seconds : 0));

  const uint64_t id = NextRequestId();
  inflight_query_.store(id, std::memory_order_release);
  if (!SendFrame(FrameType::kQuery, id, EncodeQuery(envelope))) {
    return transport_failure(Status::Unavailable("send failed"));
  }

  ResultAssembler assembler;
  Frame frame;
  for (;;) {
    bool timed_out = false;
    if (!ReadReplyUntil(id, &frame, has_deadline, deadline, &timed_out)) {
      return transport_failure(
          timed_out ? Status::DeadlineExceeded("call timed out")
                    : Status::Unavailable("connection lost mid-reply"));
    }
    if (frame.type() == FrameType::kError) {
      ErrorInfo info;
      if (!DecodeError(frame.payload, &info) ||
          info.code == ErrorCode::kNone) {
        return transport_failure(
            Status::Unavailable("malformed error frame"));
      }
      inflight_query_.store(0, std::memory_order_release);
      if (has_deadline) {
        SetSocketTimeout(fd_, SO_RCVTIMEO, options_.io_timeout_seconds);
      }
      out.transport_ok = true;
      out.error = info.code;
      return finish(ToStatus(info.code, std::move(info.detail)));
    }
    if (frame.type() != FrameType::kResult) {
      // Unrelated frame type with our id — protocol confusion; bail.
      return transport_failure(
          Status::Unavailable("unexpected frame type in result stream"));
    }
    if (!assembler.Consume(frame.payload, frame.last_chunk())) {
      return transport_failure(Status::Unavailable("malformed result chunk"));
    }
    if (assembler.done()) break;
  }

  inflight_query_.store(0, std::memory_order_release);
  if (has_deadline) {
    SetSocketTimeout(fd_, SO_RCVTIMEO, options_.io_timeout_seconds);
  }
  out.transport_ok = true;
  ResultPayload& payload = assembler.result();
  out.summary = payload.summary;
  out.aggregate_values = std::move(payload.aggregate_values);
  out.aggregate_avg = std::move(payload.aggregate_avg);
  out.ranks = std::move(payload.ranks);
  out.result_oids = std::move(payload.result_oids);
  out.result_group_order = std::move(payload.result_group_order);
  out.extras = std::move(payload.extras);
  return Status::Ok();
}

bool McsortClient::Cancel() {
  const uint64_t id = inflight_query_.load(std::memory_order_acquire);
  if (id == 0) return false;
  // CANCEL is fire-and-forget: the blocked Query() observes the outcome as
  // ERROR kCancelled (or a completed result, if it raced and won).
  return SendFrame(FrameType::kCancel, id, std::string());
}

bool McsortClient::Ping(double* rtt_seconds) {
  if (fd_ < 0) return false;
  const uint64_t id = NextRequestId();
  const auto start = std::chrono::steady_clock::now();
  if (!SendFrame(FrameType::kPing, id, "ping")) {
    FailTransport();
    return false;
  }
  Frame frame;
  if (!ReadReply(id, &frame) || frame.type() != FrameType::kPong) {
    FailTransport();
    return false;
  }
  if (rtt_seconds != nullptr) {
    *rtt_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return true;
}

bool McsortClient::GetMetrics(std::string* text) {
  if (fd_ < 0) return false;
  const uint64_t id = NextRequestId();
  if (!SendFrame(FrameType::kMetricsRequest, id, std::string())) {
    FailTransport();
    return false;
  }
  Frame frame;
  if (!ReadReply(id, &frame) || frame.type() != FrameType::kMetricsReply) {
    FailTransport();
    return false;
  }
  if (text != nullptr) *text = frame.payload;
  return true;
}

TableOpResult McsortClient::TableOp(FrameType type, const std::string& table) {
  TableOpResult result;
  const auto transport_failure = [&](std::string detail) {
    FailTransport();
    result.error_detail = std::move(detail);
    return result;
  };
  if (fd_ < 0) {
    result.error_detail = "not connected";
    return result;
  }
  const uint64_t id = NextRequestId();
  TableOpRequest request;
  request.table = table;
  errno = 0;
  if (!SendFrame(type, id, EncodeTableOp(request))) {
    return transport_failure(std::string("send failed: ") +
                             std::strerror(errno));
  }
  Frame frame;
  errno = 0;
  if (!ReadReply(id, &frame)) {
    return transport_failure(
        errno != 0 ? std::string("no reply: ") + std::strerror(errno)
                   : "no reply: connection closed by the server");
  }
  if (frame.type() == FrameType::kError) {
    ErrorInfo info;
    if (!DecodeError(frame.payload, &info)) {
      return transport_failure("malformed ERROR reply");
    }
    result.transport_ok = true;
    result.error = info.code;
    result.error_detail = info.detail;
    return result;
  }
  if (frame.type() != FrameType::kTableOpReply ||
      !DecodeTableOpReply(frame.payload, &result.reply)) {
    return transport_failure("malformed TABLE_OP reply");
  }
  result.transport_ok = true;
  return result;
}

TableOpResult McsortClient::SaveTable(const std::string& table) {
  return TableOp(FrameType::kSaveTable, table);
}

TableOpResult McsortClient::LoadTable(const std::string& table) {
  return TableOp(FrameType::kLoadTable, table);
}

DmlResult McsortClient::ExecuteDml(const delta::DmlCommand& cmd) {
  DmlResult result;
  const auto transport_failure = [&](std::string detail) {
    FailTransport();
    result.error_detail = std::move(detail);
    return result;
  };
  if (fd_ < 0) {
    result.error_detail = "not connected";
    return result;
  }
  const uint64_t id = NextRequestId();
  errno = 0;
  if (!SendFrame(FrameType::kDml, id, EncodeDml(cmd))) {
    return transport_failure(std::string("send failed: ") +
                             std::strerror(errno));
  }
  Frame frame;
  errno = 0;
  if (!ReadReply(id, &frame)) {
    return transport_failure(
        errno != 0 ? std::string("no reply: ") + std::strerror(errno)
                   : "no reply: connection closed by the server");
  }
  if (frame.type() == FrameType::kError) {
    ErrorInfo info;
    if (!DecodeError(frame.payload, &info)) {
      return transport_failure("malformed ERROR reply");
    }
    result.transport_ok = true;
    result.error = info.code;
    result.error_detail = info.detail;
    return result;
  }
  if (frame.type() != FrameType::kDmlReply ||
      !DecodeDmlReply(frame.payload, &result.reply)) {
    return transport_failure("malformed DML reply");
  }
  result.transport_ok = true;
  return result;
}

bool McsortClient::GetSchema(SchemaReply* schema) {
  if (fd_ < 0) return false;
  const uint64_t id = NextRequestId();
  if (!SendFrame(FrameType::kSchemaRequest, id, std::string())) {
    FailTransport();
    return false;
  }
  Frame frame;
  if (!ReadReply(id, &frame) || frame.type() != FrameType::kSchemaReply) {
    FailTransport();
    return false;
  }
  return schema == nullptr || DecodeSchemaReply(frame.payload, schema);
}

}  // namespace net
}  // namespace mcsort
