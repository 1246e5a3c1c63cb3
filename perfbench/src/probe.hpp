/// \file probe.hpp
/// The reference probe: a fixed piece of allocation-heavy work that uses no
/// qirkit code, run beside every timed job so that a job's time can be
/// stated relative to the speed the host gave the process at that moment.
/// See ../README.md, "Why a relative job time".
#pragma once

#include "spans.hpp"

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Builds, walks and frees a 3000-entry std::map of short strings (about
/// 0.6 ms on the reference host): node allocation, pointer chasing and
/// string copies, the mix of work the program's front ends and passes do.
/// Returns its wall time in ms.
[[nodiscard]] inline double probeMs() {
  const std::uint64_t t0 = nowNs();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0;
  {
    std::map<std::uint64_t, std::string> m;
    for (int i = 0; i < 3000; ++i) {
      x ^= x << 13U;
      x ^= x >> 7U;
      x ^= x << 17U;
      m.emplace(x, std::string(24 + (x & 15U), static_cast<char>('a' + x % 26)));
    }
    for (const auto& [k, v] : m) {
      h += k ^ v.size();
    }
  }
  static volatile std::uint64_t sink = 0;
  sink = sink + h;
  return static_cast<double>(nowNs() - t0) * 1e-6;
}

/// Times jobs against the probe. The probe runs before a job unless the
/// probe after the previous job is still adjacent; a job's relative time
/// is its wall time over the mean of the probes on either side. Off (every
/// relative time 0) in traced runs, whose throughput figures would
/// otherwise include probe time.
class ProbeClock {
public:
  explicit ProbeClock(bool on) : on_(on) {}
  /// Call right before a job.
  void before() {
    if (on_ && last_ == 0) {
      last_ = probeMs();
    }
  }
  /// Call right after the job that took \p jobMs; returns its relative time.
  [[nodiscard]] double after(double jobMs) {
    if (!on_) {
      return 0;
    }
    const double previous = last_;
    last_ = probeMs();
    return jobMs / ((previous + last_) / 2);
  }
  /// Other work ran since the last probe: the next job probes anew.
  void reset() { last_ = 0; }

private:
  bool on_;
  double last_ = 0; // ms; 0: no adjacent probe
};

} // namespace perfbench
