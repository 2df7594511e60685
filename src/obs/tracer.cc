#include "obs/tracer.h"

#include <cstdio>

#include "obs/metrics.h"

namespace rdfql {
namespace {

void RenderTree(const TraceSpan& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += span.op;
  if (!span.detail.empty()) *out += " " + span.detail;
  *out += " t=" + DurationString(span.duration_ns);
  for (const auto& [name, value] : span.counters) {
    *out += " " + name + "=" + std::to_string(value);
  }
  *out += "\n";
  for (const auto& child : span.children) {
    RenderTree(*child, depth + 1, out);
  }
}

void RenderChromeEvent(const TraceSpan& span, bool* first, std::string* out) {
  if (!*first) *out += ",\n";
  *first = false;
  // A complete event ("ph":"X"); ts/dur are in microseconds per the format.
  *out += "{\"name\":\"";
  AppendJsonEscaped(span.op, out);
  if (!span.detail.empty()) {
    *out += " ";
    AppendJsonEscaped(span.detail, out);
  }
  char buf[112];
  std::snprintf(buf, sizeof(buf),
                "\",\"cat\":\"eval\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"pid\":1,\"tid\":%u",
                static_cast<double>(span.start_ns) / 1e3,
                static_cast<double>(span.duration_ns) / 1e3,
                static_cast<unsigned>(span.tid));
  *out += buf;
  if (!span.counters.empty()) {
    *out += ",\"args\":{";
    bool cfirst = true;
    for (const auto& [name, value] : span.counters) {
      if (!cfirst) *out += ",";
      cfirst = false;
      *out += "\"";
      AppendJsonEscaped(name, out);
      *out += "\":" + std::to_string(value);
    }
    *out += "}";
  }
  *out += "}";
  for (const auto& child : span.children) {
    RenderChromeEvent(*child, first, out);
  }
}

}  // namespace

void TraceSpan::AddCounter(std::string_view name, uint64_t delta) {
  for (auto& [n, v] : counters) {
    if (n == name) {
      v += delta;
      return;
    }
  }
  counters.emplace_back(std::string(name), delta);
}

uint64_t TraceSpan::GetCounter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::vector<std::pair<std::string, uint64_t>> OpCounters::Named() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  auto add = [&out](const char* name, uint64_t value) {
    if (value != 0) out.emplace_back(name, value);
  };
  add("join_probes", join_probes);
  add("index_probes", index_probes);
  add("ns_pairs_compared", ns_pairs_compared);
  add("filter_evals", filter_evals);
  add("mappings_out", mappings_out);
  return out;
}

void OpCounters::AttachTo(TraceSpan* span) const {
  if (span == nullptr) return;
  for (const auto& [name, value] : Named()) span->AddCounter(name, value);
}

TraceSpan* Tracer::StartSpan(std::string op, std::string detail) {
  TraceSpan* span = AddSpan(nullptr, std::move(op), std::move(detail),
                            SteadyNowNs(), 0, 1);
  open_.push_back(span);
  return span;
}

void Tracer::EndSpan(TraceSpan* span) {
  // Tolerate out-of-order ends (e.g. a moved-from guard) by unwinding to
  // the given span; in correct RAII usage the loop body runs once.
  while (!open_.empty()) {
    TraceSpan* top = open_.back();
    open_.pop_back();
    top->duration_ns = SteadyNowNs() - epoch_ns_ - top->start_ns;
    if (top == span) break;
  }
}

TraceSpan* Tracer::AddSpan(TraceSpan* parent, std::string op,
                          std::string detail, uint64_t start_ns,
                          uint64_t duration_ns, uint32_t tid) {
  auto span = std::make_unique<TraceSpan>();
  span->op = std::move(op);
  span->detail = std::move(detail);
  span->start_ns = start_ns > epoch_ns_ ? start_ns - epoch_ns_ : 0;
  span->duration_ns = duration_ns;
  span->tid = tid;
  TraceSpan* raw = span.get();
  if (parent == nullptr && !open_.empty()) parent = open_.back();
  if (parent == nullptr) {
    roots_.push_back(std::move(span));
  } else {
    parent->children.push_back(std::move(span));
  }
  return raw;
}

std::string Tracer::ToTreeString() const {
  std::string out;
  for (const auto& root : roots_) RenderTree(*root, 0, &out);
  return out;
}

std::string Tracer::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& root : roots_) RenderChromeEvent(*root, &first, &out);
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace rdfql
