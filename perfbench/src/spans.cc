#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t SpanRecorder::Begin(std::string name, int64_t op_id) {
  Span span;
  span.name = std::move(name);
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op_id = op_id;
  spans_.push_back(std::move(span));
  const auto id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::TotalSeconds() const {
  std::map<std::string, double> total;
  for (const Span& s : spans_) {
    total[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  // Spans come from one thread and nest strictly, so the children of a
  // span never overlap and its covered time is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

distme::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return distme::Status::IOError("cannot open " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::fputs("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
             "\"args\":{\"name\":\"perfbench\"}},\n"
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
             "\"args\":{\"name\":\"driver\"}}",
             f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"op\":%lld}}",
                 s.name.c_str(),
                 static_cast<int>(s.name.find('.') == std::string::npos
                                      ? s.name.size()
                                      : s.name.find('.')),
                 s.name.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op_id));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    return distme::Status::IOError("cannot write " + path);
  }
  return distme::Status::OK();
}

}  // namespace perfbench
