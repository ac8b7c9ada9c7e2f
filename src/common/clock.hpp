// Clock abstraction: one interface over simulated and wall-clock time.
//
// Profiling code (overhead decomposition, TTC) stamps events through a
// Clock so that the same core/pattern/runtime code runs unchanged on
// the discrete-event backend (virtual seconds) and the local backend
// (real seconds).
#pragma once

#include <chrono>

#include "common/types.hpp"

namespace entk {

class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in seconds. Monotone non-decreasing.
  virtual TimePoint now() const = 0;
};

/// Wall-clock backed by std::chrono::steady_clock, zeroed at creation.
class WallClock final : public Clock {
 public:
  WallClock() : origin_(std::chrono::steady_clock::now()) {}

  TimePoint now() const override {
    const auto elapsed = std::chrono::steady_clock::now() - origin_;
    return std::chrono::duration<double>(elapsed).count();
  }

 private:
  std::chrono::steady_clock::time_point origin_;
};

/// Manually advanced clock; the simulation engine drives one of these.
class ManualClock final : public Clock {
 public:
  TimePoint now() const override { return now_; }
  void advance_to(TimePoint t) {
    if (t > now_) now_ = t;
  }

 private:
  TimePoint now_ = 0.0;
};

}  // namespace entk
