#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace bench {

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer),
      index_(tracer.record(name, tracer.now(), -1.0,
                           tracer.open_.empty() ? -1 : tracer.open_.back(), tracer.request_)) {
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end = tracer_.now();
  tracer_.open_.pop_back();
}

std::int32_t Tracer::record(const char* name, double start, double end, std::int32_t parent,
                            std::int64_t request) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<long long>(s.request), s.start * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent);
  }
  std::fputs("]}\n", out);
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans[i].end);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

}  // namespace bench
