// ExecContext — per-execution robustness contract threaded through every
// long-running loop of the stack (morsel dispatch, per-bank merge passes,
// segment sorts, chunk-parallel gather/group-scan, ROGA plan search):
//
//   * cooperative cancellation: a CancellationSource owned by the client
//     (typically another thread) flips a shared flag; executors poll it at
//     morsel / merge-pass / round boundaries and unwind with a typed
//     Status — no exceptions on the hot path, latency bounded by one
//     morsel's worth of work;
//   * absolute deadline: checked at the same boundaries, so a query past
//     its deadline stops claiming work instead of running to completion;
//   * scratch-memory budget: a soft cap the executor compares against the
//     chosen plan's estimated scratch; over budget it degrades to a
//     narrower-bank plan (re-running ROGA with a bank cap) instead of
//     failing the query;
//   * fault injection: an env-driven FaultInjector (MCSORT_FAULT) forces
//     cancellation, deadline expiry, or allocation failure at round
//     boundaries so the unwind paths are exercised under TSan/ASan.
//
// An ExecContext is cheap to copy; copies share the cancellation flag and
// the injected-fault cell, so a context handed to the executor observes
// faults and cancellations raised through any copy. The default context
// (ExecContext::Default() or a default-constructed one) is never stoppable
// and adds only two predictable branches per boundary check.
#ifndef MCSORT_COMMON_EXEC_CONTEXT_H_
#define MCSORT_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "mcsort/common/status.h"

namespace mcsort {

struct PlanHint;  // engine/query.h — opaque at this layer

// Read side of a cancellation flag. Copies share the flag; a
// default-constructed token is never cancelled.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool valid() const { return flag_ != nullptr; }
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Write side: the client (usually a different thread than the executing
// one) calls Cancel(); every token minted from this source observes it.
class CancellationSource {
 public:
  CancellationSource()
      : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }
  void Cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Forces one fault at a chosen round boundary. Boundaries are counted
// process-wide per injector via Poll(); the fault fires exactly once, at
// the `trigger`-th boundary (1-based). Thread-safe: concurrent pollers
// agree on which one observes the fault.
class FaultInjector {
 public:
  enum class Kind { kNone, kCancel, kDeadline, kAlloc };

  FaultInjector() = default;
  FaultInjector(Kind kind, uint64_t trigger)
      : kind_(kind), trigger_(trigger == 0 ? 1 : trigger) {}

  // Parses "cancel", "deadline", or "alloc", optionally suffixed with
  // "@N" (the boundary to fire at, default 1): "alloc@3" fires at the
  // third round boundary. Unrecognized spellings yield a disabled
  // injector.
  static FaultInjector FromString(const char* spec);
  // FromString of the MCSORT_FAULT variable; disabled when unset.
  static FaultInjector FromEnv();

  bool enabled() const { return kind_ != Kind::kNone; }
  Kind kind() const { return kind_; }
  uint64_t trigger() const { return trigger_; }

  // Round-boundary hook: counts the boundary and returns the kind to
  // inject if this is the trigger boundary (kNone otherwise / afterwards).
  Kind Poll();

 private:
  Kind kind_ = Kind::kNone;
  uint64_t trigger_ = 1;
  std::atomic<uint64_t> boundaries_{0};
};

class ExecContext {
 public:
  ExecContext() = default;

  // The process-wide default context: no token, no deadline, no budget, no
  // fault injector. Safe to share across concurrent executions.
  static const ExecContext& Default();

  // Fluent setup (each returns *this for chaining).
  ExecContext& WithToken(CancellationToken token) {
    token_ = std::move(token);
    return *this;
  }
  // Absolute deadline on the steady clock.
  ExecContext& WithDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
    return *this;
  }
  // Deadline `seconds` from now.
  ExecContext& WithDeadlineAfter(double seconds);
  // Soft scratch-memory budget in bytes (0 = unlimited); the executor
  // degrades to narrower-bank plans to fit, and only fails with
  // kResourceExhausted when even the narrowest plan does not.
  ExecContext& WithScratchBudget(size_t bytes) {
    scratch_budget_bytes_ = bytes;
    return *this;
  }
  // Attach a fault injector (borrowed; must outlive every execution using
  // this context). Allocates the shared injected-fault cell.
  ExecContext& WithFault(FaultInjector* fault);
  // Planning context for the engine (borrowed; engine/query.h interprets).
  ExecContext& WithHint(const PlanHint* hint) {
    hint_ = hint;
    return *this;
  }

  const CancellationToken& token() const { return token_; }
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }
  size_t scratch_budget_bytes() const { return scratch_budget_bytes_; }
  FaultInjector* fault() const { return fault_; }
  const PlanHint* hint() const { return hint_; }

  // True when any stop source is attached; the hot-path check is skipped
  // entirely for plain contexts.
  bool stoppable() const {
    return token_.valid() || has_deadline_ || fault_ != nullptr;
  }

  // Hot-path check, called at morsel / merge-pass / chunk boundaries:
  // injected faults first (relaxed atomic), then the cancellation flag,
  // then the deadline (one steady-clock read). Never consults the fault
  // injector itself — that is CheckRound's job. Returns a bare code, so
  // the non-stopped path builds no string: kOk, kCancelled,
  // kDeadlineExceeded, or kResourceExhausted (injected allocation failure).
  StatusCode StopCheck() const;
  bool StopRequested() const { return StopCheck() != StatusCode::kOk; }
  // StopCheck lifted to a Status; the detail is built only when stopped.
  Status StopStatus() const;

  // Round-boundary check: polls the fault injector (arming injected
  // cancellation / deadline / allocation failure) and then behaves like
  // StopStatus. Injected allocation failure surfaces as
  // kResourceExhausted, which the executor may absorb by degrading to a
  // narrower plan (ClearResourceFault) instead of failing the query.
  Status CheckRound() const;

  // Consumes an injected allocation failure so a degraded re-execution can
  // proceed. Returns true when one was pending.
  bool ClearResourceFault() const;

 private:
  CancellationToken token_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  size_t scratch_budget_bytes_ = 0;
  FaultInjector* fault_ = nullptr;
  const PlanHint* hint_ = nullptr;
  // Injected-fault cell (holds a StatusCode as int; 0 = none). Shared by
  // copies so a fault armed inside the executor is visible to the caller's
  // context object too. Allocated only when a fault injector is attached.
  std::shared_ptr<std::atomic<int>> injected_;
};

}  // namespace mcsort

#endif  // MCSORT_COMMON_EXEC_CONTEXT_H_
