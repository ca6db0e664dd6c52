#include "spans.h"

#include <time.h>

#include <cstdio>

namespace wecbench {

int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Spans::Scope::Scope(Spans& spans, const char* name, int point)
    : spans_(spans) {
  if (!spans_.enabled_) return;
  id_ = static_cast<int>(spans_.spans_.size());
  const int parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  spans_.spans_.push_back(Span{name, mono_ns(), 0, parent, point});
  spans_.open_.push_back(id_);
}

Spans::Scope::~Scope() {
  if (id_ < 0) return;
  spans_.spans_[static_cast<size_t>(id_)].end_ns = mono_ns();
  spans_.open_.pop_back();
}

std::map<std::string, Spans::Total> Spans::totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Total> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Total& t = out[s.name];
    ++t.count;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool Spans::write_jsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"point\":%d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.point);
  }
  return std::fclose(f) == 0;
}

}  // namespace wecbench
