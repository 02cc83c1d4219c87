// Wall-clock timing utilities.
//
// The paper's cost model is expressed in CPU cycles; we measure wall time
// with the steady clock and convert to "cycles" using the nominal frequency
// detected by CpuInfo. On the pinned single-socket machines used here this
// is equivalent up to turbo variation, which the calibration absorbs.
#ifndef MCSORT_COMMON_TIMER_H_
#define MCSORT_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace mcsort {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  // Elapsed time since construction/Restart, in seconds / ns.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  uint64_t Nanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mcsort

#endif  // MCSORT_COMMON_TIMER_H_
