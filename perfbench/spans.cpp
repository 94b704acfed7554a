#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::begin(std::string name, std::int64_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int index) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span '" + spans_.at(static_cast<std::size_t>(index)).name +
                           "' closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

double SpanRecorder::seconds(int index) const {
  const Span& s = spans_.at(static_cast<std::size_t>(index));
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = seconds(static_cast<int>(i));
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return self;
}

std::map<std::string, double> SpanRecorder::layer_self_seconds(const std::string& root) const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Walk up to the top-level ancestor; only spans under `root` count.
    std::size_t top = i;
    while (spans_[top].parent >= 0) top = static_cast<std::size_t>(spans_[top].parent);
    if (spans_[top].name != root) continue;
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(seconds(static_cast<int>(i)));
  }
  return out;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("span file write failed: " + path);
}

}  // namespace perfbench
