#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace ttbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::begin(const std::string& layer, const std::string& name) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_us = now_us();
  cursor_us_.push_back(span.start_us);
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("Tracer::end: spans must close innermost first");
  spans_[static_cast<std::size_t>(span)].end_us = now_us();
  open_.pop_back();
}

void Tracer::relabel(int span, const std::string& layer,
                     const std::string& name) {
  Span& s = spans_.at(static_cast<std::size_t>(span));
  s.layer = layer;
  s.name = name;
}

void Tracer::attribute(const std::string& layer, const std::string& name,
                       double duration_ms) {
  if (open_.empty())
    throw std::logic_error("Tracer::attribute: no open span");
  const std::size_t parent = static_cast<std::size_t>(open_.back());
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = open_.back();
  span.op = spans_[parent].op;
  span.start_us = cursor_us_[parent];
  span.end_us = span.start_us + duration_ms * 1000.0;
  cursor_us_[parent] = span.end_us;
  cursor_us_.push_back(span.start_us);
  spans_.push_back(std::move(span));
}

void Tracer::fold() {
  if (!open_.empty())
    throw std::logic_error("Tracer::fold: a span is still open");
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op == kOutside) continue;
    self_ms_[s.layer] += (s.end_us - s.start_us - child_us[i]) / 1000.0;
  }
  if (kept_.size() + spans_.size() <= kKeptSpans) {
    const int offset = static_cast<int>(kept_.size());
    for (Span& s : spans_) {
      if (s.parent >= 0) s.parent += offset;
      kept_.push_back(std::move(s));
    }
  }
  spans_.clear();
  cursor_us_.clear();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%ld,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                 s.start_us, s.end_us - s.start_us, s.op, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ttbench
