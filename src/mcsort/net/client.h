// McsortClient — the blocking C++ client library for the mcsort wire
// protocol. One client owns one TCP connection; Query/Ping/GetMetrics/
// GetSchema are synchronous request/response calls made from a single
// thread. The one sanctioned cross-thread call is Cancel(): it writes a
// CANCEL frame for the in-flight query from any thread (sends are
// serialized by an internal mutex), and the blocked Query() then returns
// with status kCancelled as soon as the server's executor unwinds.
//
// Used by bench/net_throughput.cc, examples/remote_query.cpp, and
// tools/net_probe.cc.
#ifndef MCSORT_NET_CLIENT_H_
#define MCSORT_NET_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "mcsort/common/exec_context.h"
#include "mcsort/engine/query.h"
#include "mcsort/net/frame_io.h"
#include "mcsort/net/protocol.h"

namespace mcsort {
namespace net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  double connect_timeout_seconds = 5;
  // Receive/send timeout per socket operation. Query() waits up to this
  // long *between* frames, not for the whole result, so slow queries only
  // need the server's per-chunk cadence to beat it.
  double io_timeout_seconds = 30;
  std::string client_name = "mcsort-client";
};

struct QueryCallOptions {
  // Relative deadline shipped in the QUERY header; 0 = none. The server
  // maps it onto the ExecContext deadline (admission wait + execution).
  double deadline_seconds = 0;
  // Client-side wall-clock bound on the whole call (0 = none). Unlike
  // io_timeout_seconds (per socket operation, between frames) this caps
  // send + all result chunks together. On expiry TryQuery returns
  // kDeadlineExceeded and the connection is closed — the server may still be
  // streaming the stale result, so the caller must Connect again (the
  // coordinator treats it like any transport failure and fails over).
  double call_timeout_seconds = 0;
  // Ask the server to append the distributed merge sections (RESULT
  // sections 6-9) — requires the server to advertise kCapMergeKeys.
  bool want_merge_keys = false;
  std::string table;  // empty = server default
};

// Outcome of one remote query. `status` is the whole call's outcome (see
// McsortClient::TryQuery). `transport_ok` distinguishes "the wire failed"
// (connection lost, garbled reply, call timeout) from "the server
// answered"; when it is true, `error` is the server's wire verdict (kNone
// on success), which the coordinator's retry rule branches on.
struct RemoteResult {
  bool transport_ok = false;
  ErrorCode error = ErrorCode::kNone;
  Status status;

  ResultSummary summary;
  std::vector<std::vector<int64_t>> aggregate_values;
  std::vector<double> aggregate_avg;
  std::vector<uint32_t> ranks;
  std::vector<uint32_t> result_oids;
  std::vector<uint32_t> result_group_order;
  // Distributed merge sections (populated when the call set
  // want_merge_keys and the server supports them).
  ResultExtras extras;

  bool ok() const { return transport_ok && status.ok(); }
};

// Outcome of a remote SAVE_TABLE / LOAD_TABLE. The server runs the
// snapshot IO on a worker and answers with a TABLE_OP_REPLY (or a typed
// ERROR, mapped into `error` here). When the transport failed
// (!transport_ok), `error_detail` says how.
struct TableOpResult {
  bool transport_ok = false;
  ErrorCode error = ErrorCode::kNone;  // kNone when the server replied
  std::string error_detail;
  TableOpReply reply;

  bool ok() const {
    return transport_ok && error == ErrorCode::kNone && reply.ok;
  }
};

// Outcome of one remote DML command. `reply` is only meaningful when the
// server answered with a DML_REPLY (transport_ok && error == kNone);
// op-level rejections (unknown table, bad column list) come back as typed
// ERROR frames and land in `error`. Row-level INSERT rejections ride in
// reply.row_errors with the command still partially applied. When the
// transport failed (!transport_ok), `error_detail` says how.
struct DmlResult {
  bool transport_ok = false;
  ErrorCode error = ErrorCode::kNone;  // kNone when the server replied
  std::string error_detail;
  DmlReply reply;

  bool ok() const {
    return transport_ok && error == ErrorCode::kNone && reply.ok;
  }
};

class McsortClient {
 public:
  explicit McsortClient(const ClientOptions& options);
  ~McsortClient();

  McsortClient(const McsortClient&) = delete;
  McsortClient& operator=(const McsortClient&) = delete;

  // Connects and performs the HELLO handshake. False (with *error filled)
  // on failure; the client may retry Connect.
  bool Connect(std::string* error = nullptr);
  bool connected() const { return fd_ >= 0; }
  void Close();

  // The server's HELLO_ACK (valid after a successful Connect).
  const HelloReply& hello() const { return hello_; }
  // Capability bits the server advertised in its HELLO_ACK.
  uint32_t server_capabilities() const { return hello_.capabilities; }
  bool ServerHasCapability(uint32_t bit) const {
    return (hello_.capabilities & bit) != 0;
  }

  // Executes `spec` remotely and reassembles the chunked result. On a
  // transport failure the connection is closed (call Connect again).
  RemoteResult Query(const QuerySpec& spec,
                     const QueryCallOptions& options = {});

  // Same call, returning the outcome (also stored in result->status) so
  // the caller learns *why* a call failed without parsing error strings:
  // kFailedPrecondition when not connected, kUnavailable on a transport
  // failure, kDeadlineExceeded when call_timeout_seconds expired, and a
  // server ERROR mapped through net::ToStatus (result->error keeps the
  // wire code). `*result` is always filled; on a server answer it carries
  // the server's verdict or result.
  Status TryQuery(const QuerySpec& spec, const QueryCallOptions& options,
                  RemoteResult* result);

  // Cancels the Query currently blocked in another thread. Returns false
  // when no query is in flight or the frame could not be sent.
  bool Cancel();

  // Round-trip liveness probe; fills *rtt_seconds when non-null.
  bool Ping(double* rtt_seconds = nullptr);

  // Fetches the server's text metrics dump (service + net.* counters).
  bool GetMetrics(std::string* text);

  // Fetches the table catalog, so clients need not hardcode columns.
  bool GetSchema(SchemaReply* schema);

  // Snapshots `table` (empty = server default) into the server's catalog
  // directory / loads it back. Blocking: the reply carries the server-side
  // wall time and the table's row count.
  TableOpResult SaveTable(const std::string& table = std::string());
  TableOpResult LoadTable(const std::string& table);

  // Applies one DML command (INSERT / DELETE / UPDATE) remotely. Blocking;
  // the reply carries per-row errors and the table's post-command epoch.
  DmlResult ExecuteDml(const delta::DmlCommand& cmd);

 private:
  uint64_t NextRequestId() {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }
  bool SendFrame(FrameType type, uint64_t request_id,
                 const std::string& payload);
  TableOpResult TableOp(FrameType type, const std::string& table);
  // Reads frames until one with `request_id` arrives (stale replies from
  // abandoned requests are discarded). False on transport failure.
  bool ReadReply(uint64_t request_id, Frame* frame);
  // ReadReply bounded by an absolute wall-clock deadline: before each
  // receive the socket timeout is narrowed to min(io timeout, remaining).
  // On expiry returns false with *timed_out set.
  bool ReadReplyUntil(uint64_t request_id, Frame* frame, bool has_deadline,
                      std::chrono::steady_clock::time_point deadline,
                      bool* timed_out);
  void FailTransport();

  ClientOptions options_;
  int fd_ = -1;
  FrameAssembler assembler_;
  HelloReply hello_;
  std::mutex send_mu_;
  std::atomic<uint64_t> next_request_{1};
  std::atomic<uint64_t> inflight_query_{0};  // request id Cancel targets
};

}  // namespace net
}  // namespace mcsort

#endif  // MCSORT_NET_CLIENT_H_
