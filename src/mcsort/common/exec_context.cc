#include "mcsort/common/exec_context.h"

#include <cstdlib>
#include <cstring>

namespace mcsort {

FaultInjector FaultInjector::FromString(const char* spec) {
  if (spec == nullptr || *spec == '\0') return FaultInjector();
  const char* at = std::strchr(spec, '@');
  const size_t name_len = at != nullptr ? static_cast<size_t>(at - spec)
                                        : std::strlen(spec);
  uint64_t trigger = 1;
  if (at != nullptr) {
    const uint64_t parsed = std::strtoull(at + 1, nullptr, 10);
    if (parsed > 0) trigger = parsed;
  }
  auto matches = [&](const char* name) {
    return std::strlen(name) == name_len &&
           std::strncmp(spec, name, name_len) == 0;
  };
  if (matches("cancel")) return FaultInjector(Kind::kCancel, trigger);
  if (matches("deadline")) return FaultInjector(Kind::kDeadline, trigger);
  if (matches("alloc")) return FaultInjector(Kind::kAlloc, trigger);
  return FaultInjector();
}

FaultInjector FaultInjector::FromEnv() {
  return FromString(std::getenv("MCSORT_FAULT"));
}

FaultInjector::Kind FaultInjector::Poll() {
  if (kind_ == Kind::kNone) return Kind::kNone;
  const uint64_t boundary =
      boundaries_.fetch_add(1, std::memory_order_relaxed) + 1;
  return boundary == trigger_ ? kind_ : Kind::kNone;
}

const ExecContext& ExecContext::Default() {
  static const ExecContext kDefault;
  return kDefault;
}

ExecContext& ExecContext::WithDeadlineAfter(double seconds) {
  return WithDeadline(std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(seconds)));
}

ExecContext& ExecContext::WithFault(FaultInjector* fault) {
  fault_ = fault;
  if (fault_ != nullptr && injected_ == nullptr) {
    injected_ = std::make_shared<std::atomic<int>>(0);
  }
  return *this;
}

StatusCode ExecContext::StopCheck() const {
  if (injected_ != nullptr) {
    const int injected = injected_->load(std::memory_order_relaxed);
    if (injected != 0) return static_cast<StatusCode>(injected);
  }
  if (token_.cancelled()) return StatusCode::kCancelled;
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return StatusCode::kDeadlineExceeded;
  }
  return StatusCode::kOk;
}

Status ExecContext::StopStatus() const {
  switch (StopCheck()) {
    case StatusCode::kOk:
      return Status::Ok();
    case StatusCode::kCancelled:
      return Status::Cancelled();
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded();
    default:
      return Status::ResourceExhausted("injected allocation failure");
  }
}

Status ExecContext::CheckRound() const {
  if (fault_ != nullptr && injected_ != nullptr) {
    StatusCode inject = StatusCode::kOk;
    switch (fault_->Poll()) {
      case FaultInjector::Kind::kNone:
        break;
      case FaultInjector::Kind::kCancel:
        inject = StatusCode::kCancelled;
        break;
      case FaultInjector::Kind::kDeadline:
        inject = StatusCode::kDeadlineExceeded;
        break;
      case FaultInjector::Kind::kAlloc:
        inject = StatusCode::kResourceExhausted;
        break;
    }
    if (inject != StatusCode::kOk) {
      injected_->store(static_cast<int>(inject), std::memory_order_relaxed);
    }
  }
  return StopStatus();
}

bool ExecContext::ClearResourceFault() const {
  if (injected_ == nullptr) return false;
  int expected = static_cast<int>(StatusCode::kResourceExhausted);
  return injected_->compare_exchange_strong(expected, 0,
                                            std::memory_order_relaxed);
}

}  // namespace mcsort
