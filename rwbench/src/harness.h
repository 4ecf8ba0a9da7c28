// Measurement plumbing for the benchmark: sample sets, in-memory spans
// and the per-layer summary written by a traced run.
#ifndef RWBENCH_HARNESS_H_
#define RWBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rwbench {

using SteadyClock = std::chrono::steady_clock;

inline double MicrosBetween(SteadyClock::time_point a,
                            SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// A set of measurements with order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Quantile q in [0, 1], linear interpolation between order
  /// statistics; 0 for an empty set.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Mean of the values left after dropping the lowest and the highest
  /// `trim` share (trim < 0.5); 0 for an empty set.
  double TrimmedMean(double trim) const;

 private:
  std::vector<double> values_;
};

/// One timed call: name (layer.operation), interval, the span that
/// caused it, and the benchmark operation it belongs to.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0 = top level
  uint64_t op;      // benchmark operation id (0 = none)
};

/// Keeps spans in memory, one buffer per thread, until the run ends.
/// Disabled (the untraced runs) it records nothing and costs one
/// branch per call.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  uint64_t Begin(const char* name);
  void End(uint64_t id);
  /// Operation id inherited by the spans this thread opens next.
  void SetOp(uint64_t op);

  /// Every span of every thread. Call after the threads are joined.
  std::vector<Span> Collect() const;

 private:
  struct ThreadBuffer {
    uint64_t tid = 0;
    uint64_t op = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  // indexes of unfinished spans
  };
  ThreadBuffer* Local();

  bool on_ = false;
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(Tracer::Get().on() ? Tracer::Get().Begin(name) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

/// Durations (microseconds) of every span with the given name.
std::map<std::string, Samples> DurationsByName(const std::vector<Span>& spans);

/// Writes the spans and a per-name and per-layer summary (count, busy
/// time, self time) as one JSON document. Self time is a span's
/// duration minus the time its child spans cover.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace rwbench

#endif  // RWBENCH_HARNESS_H_
