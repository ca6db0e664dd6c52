// In-memory span recorder for the benchmark's traced run (README.md,
// "Traced run"). The benchmark opens a span around every call it makes into
// a layer of the simulator; spans stay in memory and are written out once,
// when the run ends. Recording is off in the timed run: a Scope then costs
// one branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wecbench {

/// Nanoseconds on CLOCK_MONOTONIC, the clock run.py stamps a process launch
/// with, so set-up time can be measured from before the process existed.
int64_t mono_ns();

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool enabled() const { return enabled_; }

  /// One span: opened on construction, closed on destruction. Its parent is
  /// the innermost span open at construction; `point` names the grid point
  /// the call served (-1: none).
  class Scope {
   public:
    Scope(Spans& spans, const char* name, int point = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_ = -1;
  };

  /// Per span name: how many spans, their summed duration, and their summed
  /// self time (duration minus the time their direct children cover).
  struct Total {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Total> totals() const;

  /// Durations in seconds of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// One JSON object per span: name, start/end ns, parent index, point.
  /// Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int point;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace wecbench
