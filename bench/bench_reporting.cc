#include "bench_reporting.h"

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <string_view>

#include "obs/json_util.h"
#include "obs/metrics.h"

// Stamped into every emitted BENCH_*.json; the build provides both via
// target_compile_definitions (see bench/CMakeLists.txt).
#ifndef RDFQL_GIT_SHA
#define RDFQL_GIT_SHA "unknown"
#endif
#ifndef RDFQL_BUILD_TYPE
#define RDFQL_BUILD_TYPE "unknown"
#endif

namespace rdfql {
namespace bench {
namespace {

std::string IsoTimestampUtc() {
  std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

void AppendDouble(double v, std::string* out) {
  char buf[40];
  // Enough digits to round-trip timings; integers print exactly.
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

bool IsInteger(std::string_view s) {
  if (s.empty()) return false;
  size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// Collects finished runs for the JSON document while delegating the usual
/// console rendering to the base class.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(std::vector<BenchCase>* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred ||
          r.report_big_o || r.report_rms) {
        continue;
      }
      BenchCase c;
      c.name = r.benchmark_name();
      std::string_view rest = c.name;
      size_t slash = rest.find('/');
      c.family = std::string(rest.substr(0, slash));
      while (slash != std::string_view::npos) {
        rest = rest.substr(slash + 1);
        slash = rest.find('/');
        std::string_view seg = rest.substr(0, slash);
        if (IsInteger(seg)) {
          c.args.push_back(std::strtoll(std::string(seg).c_str(), nullptr, 10));
        }
      }
      c.iterations = static_cast<int64_t>(r.iterations);
      double iters = r.iterations == 0 ? 1.0 : static_cast<double>(r.iterations);
      c.real_ns = r.real_accumulated_time / iters * 1e9;
      c.cpu_ns = r.cpu_accumulated_time / iters * 1e9;
      for (const auto& [name, counter] : r.counters) {
        c.counters.emplace_back(name, static_cast<double>(counter));
      }
      sink_->push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  std::vector<BenchCase>* sink_;
};

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Metrics attached to cases by name while the benchmark runs; folded into
/// the emitted document by BenchMain.
std::map<std::string, std::vector<std::pair<std::string, double>>>&
CaseMetricsStore() {
  static std::map<std::string, std::vector<std::pair<std::string, double>>>
      store;
  return store;
}

}  // namespace

void SetCaseMetrics(const std::string& case_name,
                    const RegistrySnapshot& snapshot) {
  std::vector<std::pair<std::string, double>> flat;
  for (const auto& [name, value] : snapshot.counters) {
    flat.emplace_back(name, static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    flat.emplace_back(name, static_cast<double>(value));
  }
  for (const auto& [name, h] : snapshot.histograms) {
    flat.emplace_back(name + ".count", static_cast<double>(h.count));
    flat.emplace_back(name + ".sum", static_cast<double>(h.sum));
    flat.emplace_back(name + ".p50", h.Percentile(0.5));
    flat.emplace_back(name + ".p90", h.Percentile(0.9));
    flat.emplace_back(name + ".p99", h.Percentile(0.99));
  }
  CaseMetricsStore()[case_name] = std::move(flat);
}

void AddCaseMetric(const std::string& case_name, const std::string& metric,
                   double value) {
  auto& flat = CaseMetricsStore()[case_name];
  for (auto& [name, v] : flat) {
    if (name == metric) {
      v = value;
      return;
    }
  }
  flat.emplace_back(metric, value);
}

std::string RenderBenchJson(const std::string& bench_name,
                            const std::vector<BenchCase>& cases) {
  std::string out = "{\"schema\":\"";
  out += kBenchJsonSchema;
  out += "\",\"bench\":\"";
  AppendJsonEscaped(bench_name, &out);
  out += "\",\"git_sha\":\"";
  AppendJsonEscaped(RDFQL_GIT_SHA, &out);
  out += "\",\"build_type\":\"";
  AppendJsonEscaped(RDFQL_BUILD_TYPE, &out);
  out += "\",\"timestamp\":\"";
  AppendJsonEscaped(IsoTimestampUtc(), &out);
  out += "\",\"cases\":[\n";
  bool first = true;
  for (const BenchCase& c : cases) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"name\":\"";
    AppendJsonEscaped(c.name, &out);
    out += "\",\"family\":\"";
    AppendJsonEscaped(c.family, &out);
    out += "\",\"args\":[";
    for (size_t i = 0; i < c.args.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(c.args[i]);
    }
    out += "],\"iterations\":" + std::to_string(c.iterations) +
           ",\"real_ns\":";
    AppendDouble(c.real_ns, &out);
    out += ",\"cpu_ns\":";
    AppendDouble(c.cpu_ns, &out);
    out += ",\"threads\":" + std::to_string(c.threads);
    out += ",\"counters\":{";
    for (size_t i = 0; i < c.counters.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      AppendJsonEscaped(c.counters[i].first, &out);
      out += "\":";
      AppendDouble(c.counters[i].second, &out);
    }
    out += "},\"metrics\":{";
    for (size_t i = 0; i < c.metrics.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      AppendJsonEscaped(c.metrics[i].first, &out);
      out += "\":";
      AppendDouble(c.metrics[i].second, &out);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool ParseBenchJson(const std::string& json, ParsedBenchDoc* out,
                    std::string* error) {
  *out = ParsedBenchDoc();
  // Fields are read in RenderBenchJson's order; a syntax error anywhere
  // reports its byte offset.
  jsonutil::JsonParser p(json);
  auto syntax_error = [&p, error] {
    return p.Fail(error, "JSON parse error");
  };
  if (!p.Eat('{')) return Fail(error, "top level is not an object");
  if (!p.Key("schema") || !p.ParseString(&out->schema) ||
      (out->schema != kBenchJsonSchema &&
       out->schema != kBenchJsonSchemaV2)) {
    return Fail(error, std::string("missing or wrong \"schema\" (want ") +
                           kBenchJsonSchema + " or " + kBenchJsonSchemaV2 +
                           ")");
  }
  if (!p.Eat(',') || !p.Key("bench") || !p.ParseString(&out->bench) ||
      out->bench.empty()) {
    return Fail(error, "missing \"bench\" name");
  }
  // The provenance stamp is mandatory from v3 on; v2 baselines predate it.
  bool comma = p.Eat(',');
  for (const auto& [key, field] :
       {std::pair<const char*, std::string*>{"git_sha", &out->git_sha},
        {"build_type", &out->build_type},
        {"timestamp", &out->timestamp}}) {
    if (comma && p.Key(key) && p.ParseString(field)) {
      comma = p.Eat(',');
    } else if (out->schema == kBenchJsonSchema) {
      return Fail(error, std::string("missing \"") + key + "\" stamp");
    }
  }
  if (!comma || !p.Key("cases") || !p.Eat('[')) {
    return Fail(error, "missing \"cases\" array");
  }
  if (p.Peek(']')) return Fail(error, "\"cases\" is empty");

  // `counters` and `metrics` share one shape: an object of numbers.
  auto parse_numbers = [&](const std::string& what,
                           std::vector<std::pair<std::string, double>>* into) {
    if (p.Eat('}')) return true;
    do {
      std::string name;
      double value = 0;
      if (!p.NextKey(&name)) return syntax_error();
      if (!p.ParseDouble(&value)) {
        return Fail(error, what + " \"" + name + "\" not numeric");
      }
      into->emplace_back(std::move(name), value);
    } while (p.Eat(','));
    return p.Eat('}') || syntax_error();
  };
  size_t i = 0;
  do {
    std::string at = "case " + std::to_string(i++) + ": ";
    if (!p.Eat('{')) return Fail(error, at + "not an object");
    BenchCase c;
    if (!p.Key("name") || !p.ParseString(&c.name) || c.name.empty()) {
      return Fail(error, at + "missing \"name\"");
    }
    at = "case \"" + c.name + "\": ";
    if (!p.Eat(',') || !p.Key("family") || !p.ParseString(&c.family) ||
        c.family.empty()) {
      return Fail(error, at + "missing \"family\"");
    }
    if (!p.Eat(',') || !p.Key("args") || !p.Eat('[')) {
      return Fail(error, at + "missing \"args\"");
    }
    if (!p.Eat(']')) {
      do {
        double arg = 0;
        if (!p.ParseDouble(&arg)) return Fail(error, at + "non-numeric arg");
        c.args.push_back(static_cast<int64_t>(arg));
      } while (p.Eat(','));
      if (!p.Eat(']')) return syntax_error();
    }
    double iterations = 0;
    if (!p.Eat(',') || !p.Key("iterations") || !p.ParseDouble(&iterations) ||
        iterations <= 0) {
      return Fail(error, at + "missing or non-positive \"iterations\"");
    }
    c.iterations = static_cast<int64_t>(iterations);
    if (!p.Eat(',') || !p.Key("real_ns") || !p.ParseDouble(&c.real_ns) ||
        c.real_ns < 0) {
      return Fail(error, at + "missing or negative \"real_ns\"");
    }
    if (!p.Eat(',') || !p.Key("cpu_ns") || !p.ParseDouble(&c.cpu_ns)) {
      return Fail(error, at + "missing \"cpu_ns\"");
    }
    double threads = 0;
    if (!p.Eat(',') || !p.Key("threads") || !p.ParseDouble(&threads) ||
        threads < 1) {
      return Fail(error, at + "missing or non-positive \"threads\"");
    }
    c.threads = static_cast<int>(threads);
    if (!p.Eat(',') || !p.Key("counters") || !p.Eat('{')) {
      return Fail(error, at + "missing \"counters\" object");
    }
    if (!parse_numbers(at + "counter", &c.counters)) return false;
    if (!p.Eat(',') || !p.Key("metrics") || !p.Eat('{')) {
      return Fail(error, at + "missing \"metrics\" object");
    }
    if (!parse_numbers(at + "metric", &c.metrics)) return false;
    if (!p.Eat('}')) return syntax_error();
    out->cases.push_back(std::move(c));
  } while (p.Eat(','));
  if (!p.Eat(']') || !p.Eat('}') || !p.AtEnd()) return syntax_error();
  return true;
}

bool ValidateBenchJson(const std::string& json, bool expect_growth,
                       std::string* error) {
  ParsedBenchDoc doc;
  if (!ParseBenchJson(json, &doc, error)) return false;
  if (!expect_growth) return true;

  // family -> (arg, real_ns), only for single-argument cases.
  std::map<std::string, std::vector<std::pair<int64_t, double>>> by_family;
  for (const BenchCase& c : doc.cases) {
    if (c.args.size() == 1) {
      by_family[c.family].emplace_back(c.args[0], c.real_ns);
    }
  }

  for (auto& [family, points] : by_family) {
    if (points.size() < 2) continue;
    std::sort(points.begin(), points.end());
    if (points.front().first == points.back().first) continue;
    for (size_t i = 1; i < points.size(); ++i) {
      // Growth with a 10% noise allowance per step.
      if (points[i].second < 0.9 * points[i - 1].second) {
        return Fail(error,
                    "family \"" + family + "\": real_ns not monotone at arg " +
                        std::to_string(points[i].first));
      }
    }
    if (points.back().second <= points.front().second) {
      return Fail(error, "family \"" + family +
                             "\": largest instance is not slower than the "
                             "smallest");
    }
  }
  return true;
}

namespace {
int cli_threads = 1;
uint64_t cli_timeout_ms = 0;
uint64_t cli_max_mb = 0;
bool cli_warm_cache = false;
std::string cli_query_log_path;
std::unique_ptr<QueryLog> cli_query_log;
}  // namespace

int CliThreads() { return cli_threads; }

uint64_t CliTimeoutMs() { return cli_timeout_ms; }

uint64_t CliMaxMb() { return cli_max_mb; }

bool CliWarmCache() { return cli_warm_cache; }

const std::string& CliQueryLogPath() { return cli_query_log_path; }

QueryLog* CliQueryLog() { return cli_query_log.get(); }

int BenchMain(int argc, char** argv, const char* bench_name) {
  bool emit_json = false;
  std::string json_path = std::string("BENCH_") + bench_name + ".json";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--json") {
      emit_json = true;
    } else if (a.rfind("--json=", 0) == 0) {
      emit_json = true;
      json_path = std::string(a.substr(7));
    } else if (a.rfind("--threads=", 0) == 0) {
      cli_threads =
          static_cast<int>(std::strtol(std::string(a.substr(10)).c_str(),
                                       nullptr, 10));
      if (cli_threads < 1) cli_threads = 1;
    } else if (a.rfind("--timeout-ms=", 0) == 0) {
      cli_timeout_ms =
          std::strtoull(std::string(a.substr(13)).c_str(), nullptr, 10);
    } else if (a.rfind("--max-mb=", 0) == 0) {
      cli_max_mb =
          std::strtoull(std::string(a.substr(9)).c_str(), nullptr, 10);
    } else if (a == "--warm-cache") {
      cli_warm_cache = true;
    } else if (a.rfind("--query-log=", 0) == 0) {
      cli_query_log_path = std::string(a.substr(12));
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!cli_query_log_path.empty()) {
    QueryLogOptions log_options;
    log_options.path = cli_query_log_path;
    cli_query_log = std::make_unique<QueryLog>(log_options);
    if (!cli_query_log->ok()) {
      std::fprintf(stderr, "%s\n", cli_query_log->error().c_str());
      return 1;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&filtered_argc, args.data());

  std::vector<BenchCase> cases;
  CollectingReporter reporter(&cases);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (emit_json) {
    const auto& store = CaseMetricsStore();
    for (BenchCase& c : cases) {
      c.threads = cli_threads;
      auto it = store.find(c.name);
      if (it != store.end()) c.metrics = it->second;
    }
    std::string doc = RenderBenchJson(bench_name, cases);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu cases)\n", json_path.c_str(),
                 cases.size());
  }
  return 0;
}

}  // namespace bench
}  // namespace rdfql
