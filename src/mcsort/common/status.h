// mcsort::Status — the one status type of the system. Every layer
// returns and stores it: the executor and ExecContext, the in-memory and
// external sorts, snapshot / CSV ingest / fs_util, admission, the client
// and the coordinator. The wire's net::ErrorCode is the only other error
// vocabulary, and net/wire.h holds the only conversion (ToErrorCode /
// net::ToStatus).
//
// Code vocabulary follows the familiar canonical set (gRPC/absl) so the
// meaning of each code is obvious, but only the codes an mcsort layer
// actually produces are defined — this is not a kitchen sink. Finer
// distinctions inside one layer (a bad magic vs a bad field in a
// snapshot, say) live in the detail string, which names the defect.
#ifndef MCSORT_COMMON_STATUS_H_
#define MCSORT_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

namespace mcsort {

enum class StatusCode : uint8_t {
  kOk = 0,
  kCancelled = 1,           // caller cancelled
  kDeadlineExceeded = 2,    // deadline expired before completion
  kResourceExhausted = 3,   // scratch/memory budget unsatisfiable
  kInvalidArgument = 4,     // malformed input (bad query, bad format)
  kNotFound = 5,            // named table/file does not exist
  kUnavailable = 6,         // transient: transport/IO failure, busy, shard
                            // down — retrying may succeed
  kDataLoss = 7,            // CRC mismatch / truncated section: the bytes
                            // are gone, retrying the same medium won't help
  kFailedPrecondition = 8,  // call sequencing / version / state error
  kUnimplemented = 9,       // spec shape a tier does not cover
  kInternal = 10,           // invariant violation; a bug, not an input
};

// Stable lowercase name ("ok", "deadline_exceeded", ...) for metrics keys
// and logs; "unknown" for out-of-range values.
const char* StatusCodeName(StatusCode code);

// The status value. `detail` is a human-readable elaboration (may
// be empty); equality of outcomes is equality of `code`.
struct Status {
  StatusCode code = StatusCode::kOk;
  std::string detail;

  Status() = default;
  Status(StatusCode code, std::string detail)
      : code(code), detail(std::move(detail)) {}

  bool ok() const { return code == StatusCode::kOk; }
  const char* name() const { return StatusCodeName(code); }

  // "ok" or "<name>: <detail>" ("<name>" when detail is empty).
  std::string ToString() const;

  static Status Ok() { return {}; }
  static Status Cancelled(std::string detail = "cancelled") {
    return {StatusCode::kCancelled, std::move(detail)};
  }
  static Status DeadlineExceeded(std::string detail = "deadline exceeded") {
    return {StatusCode::kDeadlineExceeded, std::move(detail)};
  }
  static Status ResourceExhausted(std::string detail) {
    return {StatusCode::kResourceExhausted, std::move(detail)};
  }
  static Status InvalidArgument(std::string detail) {
    return {StatusCode::kInvalidArgument, std::move(detail)};
  }
  static Status NotFound(std::string detail) {
    return {StatusCode::kNotFound, std::move(detail)};
  }
  static Status Unavailable(std::string detail) {
    return {StatusCode::kUnavailable, std::move(detail)};
  }
  static Status DataLoss(std::string detail) {
    return {StatusCode::kDataLoss, std::move(detail)};
  }
  static Status FailedPrecondition(std::string detail) {
    return {StatusCode::kFailedPrecondition, std::move(detail)};
  }
  static Status Unimplemented(std::string detail) {
    return {StatusCode::kUnimplemented, std::move(detail)};
  }
  static Status Internal(std::string detail) {
    return {StatusCode::kInternal, std::move(detail)};
  }
};

}  // namespace mcsort

#endif  // MCSORT_COMMON_STATUS_H_
