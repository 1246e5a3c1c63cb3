/// \file spans.hpp
/// In-memory span recorder for the traced run: one span (name, start,
/// end, parent, job id) around each call into a qirkit layer, kept until
/// the run ends. A null recorder records nothing, so the untraced run
/// pays one pointer test per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  int parent = -1;
  std::uint64_t job = 0;
};

/// One recorder per thread; the run merges them when it ends.
class SpanRecorder {
public:
  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::uint64_t job) {
    spans_.push_back(Span{std::move(name), nowNs(), 0,
                          stack_.empty() ? -1 : stack_.back(), job});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].endNs = nowNs();
    stack_.pop_back();
  }
  /// Records an already measured span (e.g. a server-side stage) under
  /// \p parent.
  void add(std::string name, std::uint64_t startNs, std::uint64_t endNs, int parent,
           std::uint64_t job) {
    spans_.push_back(Span{std::move(name), startNs, endNs, parent, job});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int current() const { return stack_.empty() ? -1 : stack_.back(); }

private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; no-op when the recorder is null.
class Scope {
public:
  Scope(SpanRecorder* recorder, const char* name, std::uint64_t job)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      recorder_->open(name, job);
    }
  }
  ~Scope() {
    if (recorder_ != nullptr) {
      recorder_->close();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  SpanRecorder* recorder_;
};

} // namespace perfbench
