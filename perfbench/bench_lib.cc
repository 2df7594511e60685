#include "bench_lib.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

PercentileResult SelectPercentile(std::vector<double> samples, double q) {
  PercentileResult r;
  const size_t n = samples.size();
  if (n == 0) return r;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  r.value = samples[rank - 1];
  r.beyond = n - rank;
  r.supported = r.beyond >= kMinSamplesBeyond;
  return r;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

PercentileResult BlockedPercentile(const std::vector<double>& chronological,
                                   double q) {
  for (size_t blocks : {5, 3}) {
    const size_t size = chronological.size() / blocks;
    std::vector<double> values;
    size_t beyond = SIZE_MAX;
    for (size_t b = 0; b < blocks && size > 0; ++b) {
      auto first = chronological.begin() + static_cast<ptrdiff_t>(b * size);
      // The last block takes the remainder.
      auto last = b + 1 == blocks ? chronological.end()
                                  : first + static_cast<ptrdiff_t>(size);
      PercentileResult p =
          SelectPercentile(std::vector<double>(first, last), q);
      if (!p.supported) break;
      values.push_back(p.value);
      beyond = std::min(beyond, p.beyond);
    }
    if (values.size() == blocks) {
      PercentileResult r;
      r.value = MedianOf(values);
      r.beyond = beyond;
      r.supported = true;
      return r;
    }
  }
  return SelectPercentile(chronological, q);
}

double MedianBlockRate(const std::vector<uint64_t>& end_ns,
                       const std::vector<double>& weights, size_t blocks,
                       size_t granule) {
  const size_t units = end_ns.size() / granule;
  if (units == 0) return 0;
  if (units < blocks) blocks = 1;
  std::vector<double> rates;
  uint64_t prev_end = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t first = b * units / blocks * granule;
    const size_t last = (b + 1) * units / blocks * granule;  // exclusive
    double weight = 0;
    for (size_t i = first; i < last; ++i) weight += weights[i];
    const uint64_t end = end_ns[last - 1];
    if (end > prev_end) {
      rates.push_back(weight * 1e9 / static_cast<double>(end - prev_end));
    }
    prev_end = end;
  }
  return MedianOf(rates);
}

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t RowHash(Row row) {
  std::sort(row.begin(), row.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [var, value] : row) {
    h = Fnv1a(h, var);
    h = Fnv1a(h, "\x1f");
    h = Fnv1a(h, value);
    h = Fnv1a(h, "\x1e");
  }
  return Mix64(h);
}

// Cursor over a JSON document, just enough grammar for the W3C results
// format plus skipping of any value the digest does not read.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : s_(text) {}

  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return i_ < s_.size() && s_[i_] == c;
  }
  bool AtEnd() {
    SkipWs();
    return i_ == s_.size();
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (i_ < s_.size()) {
      char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      char e = s_[i_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          unsigned v = 0;
          for (int k = 0; k < 4; ++k) {
            char h = s_[i_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= h - '0';
            else if (h >= 'a' && h <= 'f') v |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') v |= h - 'A' + 10;
            else return false;
          }
          // The engine escapes only control characters this way.
          if (v >= 0x80) return false;
          out->push_back(static_cast<char>(v));
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool SkipValue(int depth = 0) {
    if (depth > 64) return false;
    SkipWs();
    if (i_ >= s_.size()) return false;
    std::string scratch;
    if (s_[i_] == '"') return String(&scratch);
    if (Eat('{')) {
      if (Eat('}')) return true;
      do {
        if (!String(&scratch) || !Eat(':') || !SkipValue(depth + 1)) {
          return false;
        }
      } while (Eat(','));
      return Eat('}');
    }
    if (Eat('[')) {
      if (Eat(']')) return true;
      do {
        if (!SkipValue(depth + 1)) return false;
      } while (Eat(','));
      return Eat(']');
    }
    size_t start = i_;
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
           s_[i_] != ']' && s_[i_] != ' ') {
      ++i_;
    }
    return i_ > start;
  }

 private:
  std::string_view s_;
  size_t i_ = 0;
};

// {"x":{"type":"iri","value":"..."}, ...} → one row.
bool ParseBinding(JsonCursor* c, Row* row) {
  if (!c->Eat('{')) return false;
  row->clear();
  if (c->Eat('}')) return true;
  std::string var, key, value, type;
  do {
    if (!c->String(&var) || !c->Eat(':') || !c->Eat('{')) return false;
    bool have_value = false;
    if (!c->Peek('}')) {
      do {
        if (!c->String(&key) || !c->Eat(':')) return false;
        if (key == "value") {
          if (!c->String(&value)) return false;
          have_value = true;
        } else if (!c->SkipValue()) {
          return false;
        }
      } while (c->Eat(','));
    }
    if (!c->Eat('}') || !have_value) return false;
    row->emplace_back(var, value);
  } while (c->Eat(','));
  return c->Eat('}');
}

}  // namespace

Digest DigestRows(const std::vector<Row>& rows) {
  Digest d;
  d.rows = rows.size();
  for (const Row& r : rows) d.hash += RowHash(r);
  return d;
}

Digest DigestOf(const rdfql::MappingSet& set, const rdfql::Dictionary& dict) {
  Digest d;
  d.rows = set.size();
  Row row;
  for (const rdfql::Mapping& m : set) {
    row.clear();
    for (const auto& [v, t] : m.bindings()) {
      row.emplace_back(dict.VarName(v), dict.IriName(t));
    }
    d.hash += RowHash(row);
  }
  return d;
}

std::optional<Digest> DigestOfJson(std::string_view json) {
  JsonCursor c(json);
  Digest d;
  bool saw_bindings = false;
  std::string key, inner;
  if (!c.Eat('{')) return std::nullopt;
  if (!c.Peek('}')) {
    do {
      if (!c.String(&key) || !c.Eat(':')) return std::nullopt;
      if (key != "results") {
        if (!c.SkipValue()) return std::nullopt;
        continue;
      }
      if (!c.Eat('{')) return std::nullopt;
      if (!c.Peek('}')) {
        do {
          if (!c.String(&inner) || !c.Eat(':')) return std::nullopt;
          if (inner != "bindings") {
            if (!c.SkipValue()) return std::nullopt;
            continue;
          }
          saw_bindings = true;
          if (!c.Eat('[')) return std::nullopt;
          if (c.Eat(']')) continue;
          Row row;
          do {
            if (!ParseBinding(&c, &row)) return std::nullopt;
            ++d.rows;
            d.hash += RowHash(row);
          } while (c.Eat(','));
          if (!c.Eat(']')) return std::nullopt;
        } while (c.Eat(','));
      }
      if (!c.Eat('}')) return std::nullopt;
    } while (c.Eat(','));
  }
  if (!c.Eat('}') || !c.AtEnd() || !saw_bindings) return std::nullopt;
  return d;
}

uint64_t BytesHash(std::string_view bytes) {
  return std::hash<std::string_view>()(bytes);
}

// --- Spans -----------------------------------------------------------------

namespace {

std::atomic<bool> g_spans_on{false};

struct OpenFrame {
  size_t record = 0;
  uint64_t alloc_start = 0;
  uint64_t child_allocs = 0;
};

struct ThreadLog {
  uint32_t id = 0;
  std::vector<SpanRecord> records;
  std::vector<OpenFrame> open;
};

// Logs live until exit so CollectSpans can read the buffers of threads
// that have already finished.
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog* LocalLog() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->id = static_cast<uint32_t>(g_logs.size() - 1);
    log->records.reserve(1 << 16);
    log->open.reserve(64);
  }
  return log;
}

}  // namespace

void EnableSpans(bool on) { g_spans_on.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request) {
  if (!g_spans_on.load(std::memory_order_relaxed)) return;
  ThreadLog* log = LocalLog();
  SpanRecord rec;
  rec.name = name;
  rec.thread = log->id;
  if (!log->open.empty()) {
    const SpanRecord& parent = log->records[log->open.back().record];
    rec.parent = static_cast<int64_t>(log->open.back().record);
    if (request == 0) request = parent.request;
  }
  rec.request = request;
  log->records.push_back(rec);
  OpenFrame frame;
  frame.record = log->records.size() - 1;
  log->open.push_back(frame);
  // The allocation window opens after both pushes, so buffer growth is
  // charged to the enclosing span, never to this one.
  log->open.back().alloc_start = ThreadAllocations();
  log->records.back().start_ns = NowNs();
  open_ = true;
}

uint64_t Span::End() {
  if (!open_) return 0;
  open_ = false;
  uint64_t end = NowNs();
  ThreadLog* log = LocalLog();
  OpenFrame frame = log->open.back();
  log->open.pop_back();
  uint64_t total_allocs = ThreadAllocations() - frame.alloc_start;
  SpanRecord& rec = log->records[frame.record];
  rec.end_ns = end;
  rec.allocs = total_allocs - frame.child_allocs;
  if (!log->open.empty()) log->open.back().child_allocs += total_allocs;
  return rec.duration_ns();
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_logs_mu);
  std::vector<SpanRecord> out;
  for (const auto& log : g_logs) {
    const int64_t offset = static_cast<int64_t>(out.size());
    for (SpanRecord rec : log->records) {
      if (rec.parent >= 0) rec.parent += offset;
      out.push_back(rec);
    }
  }
  return out;
}

std::vector<uint64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[p].push_back(i);
    }
  }
  std::vector<uint64_t> self(spans.size());
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    iv.clear();
    for (size_t c : children[i]) {
      uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (lo < hi) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t run_lo = 0, run_hi = 0;
    bool have_run = false;
    for (const auto& [lo, hi] : iv) {
      if (have_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (have_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      have_run = true;
    }
    if (have_run) covered += run_hi - run_lo;
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<SpanRecord>& spans) {
  std::vector<uint64_t> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
    t.allocs += spans[i].allocs;
  }
  return out;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path, size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const SpanRecord& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  size_t n = std::min(spans.size(), max_events);
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"parent\":%lld,\"allocs\":%llu}}",
                 i == 0 ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.allocs));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
