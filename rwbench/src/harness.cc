#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace rwbench {

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::TrimmedMean(double trim) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t drop = static_cast<size_t>(trim * static_cast<double>(sorted.size()));
  double sum = 0;
  for (size_t i = drop; i < sorted.size() - drop; i++) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * drop);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

thread_local void* tls_buffer = nullptr;

constexpr size_t kMaxSpansWritten = 200'000;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = buffers_.size();
    buffers_.back()->spans.reserve(1 << 16);
    tls_buffer = buffers_.back().get();
  }
  return static_cast<ThreadBuffer*>(tls_buffer);
}

uint64_t Tracer::Begin(const char* name) {
  ThreadBuffer* b = Local();
  const uint64_t parent =
      b->open.empty() ? 0 : b->spans[b->open.back()].id;
  const uint64_t id = (b->tid << 40) | (b->spans.size() + 1);
  b->open.push_back(b->spans.size());
  b->spans.push_back(Span{name, NowNanos(), 0, id, parent, b->op});
  return id;
}

void Tracer::End(uint64_t id) {
  const int64_t now = NowNanos();
  ThreadBuffer* b = Local();
  Span& s = b->spans[(id & ((uint64_t{1} << 40) - 1)) - 1];
  s.end_ns = now;
  if (!b->open.empty()) b->open.pop_back();
}

void Tracer::SetOp(uint64_t op) {
  if (on_) Local()->op = op;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::map<std::string, Samples> DurationsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, Samples> out;
  for (const Span& s : spans) {
    out[s.name].Add(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
  }
  return out;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;  // parent id -> covered
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Summary {
    uint64_t count = 0;
    int64_t busy_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Summary> by_name, by_layer;
  for (const Span& s : spans) {
    const int64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    for (Summary* sum : {&by_name[name], &by_layer[layer]}) {
      sum->count++;
      sum->busy_ns += dur;
      sum->self_ns += self;
    }
  }

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto write_summary = [&](const char* key,
                           const std::map<std::string, Summary>& m) {
    std::fprintf(f, "\"%s\": {", key);
    bool first = true;
    for (const auto& [name, sum] : m) {
      std::fprintf(f,
                   "%s\n  \"%s\": {\"count\": %llu, \"busy_ms\": %.3f, "
                   "\"self_ms\": %.3f}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(sum.count),
                   static_cast<double>(sum.busy_ns) / 1e6,
                   static_cast<double>(sum.self_ns) / 1e6);
      first = false;
    }
    std::fprintf(f, "\n}");
  };
  std::fprintf(f, "{");
  write_summary("layers", by_layer);
  std::fprintf(f, ",\n");
  write_summary("calls", by_name);
  // The summaries cover every span; the span list itself is capped so a
  // long traced run writes a file of bounded size.
  const size_t written = std::min(spans.size(), kMaxSpansWritten);
  std::fprintf(f, ",\n\"spans_total\": %zu, \"spans_written\": %zu",
               spans.size(), written);
  std::fprintf(f, ",\n\"spans\": [");
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < written; i++) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n[\"%s\", %lld, %lld, %llu, %llu, %llu]",
                 i == 0 ? "" : ",", s.name,
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n],\n\"span_fields\": [\"name\", \"start_ns\", "
                  "\"end_ns\", \"id\", \"parent\", \"op\"]}\n");
  return std::fclose(f) == 0;
}

}  // namespace rwbench
