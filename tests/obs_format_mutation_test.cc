// Seeded mutation test over the obs on-disk formats. Each format starts
// from one valid document; a fixed-seed generator applies byte flips,
// truncations and insertions to it, and every mutant goes through the
// strict parser. A parse may succeed (some mutations keep the document
// valid) or fail — but a failure must carry a diagnostic, and no input may
// read out of bounds (the sanitizer builds run this suite too).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "obs/alerts.h"
#include "obs/history.h"
#include "obs/query_log.h"
#include "obs/telemetry.h"

namespace rdfql {
namespace {

constexpr uint64_t kSeed = 0x5eed0b5f0e3a7ull;
constexpr int kMutantsPerFormat = 2000;

using ParseFn = std::function<bool(std::string_view, std::string*)>;

/// Bytes worth inserting: JSON structure, digits, escapes, and the odd
/// non-ASCII byte.
constexpr std::string_view kAlphabet = "{}[]\",:\\-+.eE0123456789tfnu \x01\xff";

std::string Mutate(const std::string& doc, std::mt19937_64* rng) {
  std::string out = doc;
  int ops = 1 + static_cast<int>((*rng)() % 3);
  for (int i = 0; i < ops; ++i) {
    size_t pos = out.empty() ? 0 : (*rng)() % (out.size() + 1);
    switch ((*rng)() % 3) {
      case 0:  // flip one byte
        if (pos < out.size()) {
          out[pos] = static_cast<char>(out[pos] ^ (1u << ((*rng)() % 8)));
        }
        break;
      case 1:  // truncate
        out.resize(pos);
        break;
      default:  // insert
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   kAlphabet[(*rng)() % kAlphabet.size()]);
        break;
    }
  }
  return out;
}

void CheckMutants(const std::string& name, const std::string& doc,
                  const ParseFn& parse, uint64_t salt) {
  std::string error;
  ASSERT_TRUE(parse(doc, &error)) << name << ": seed document rejected: "
                                  << error;
  std::mt19937_64 rng(kSeed ^ salt);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    std::string mutant = Mutate(doc, &rng);
    error.clear();
    if (parse(mutant, &error)) {
      ++accepted;
    } else {
      EXPECT_FALSE(error.empty()) << name << ": silent failure on " << mutant;
    }
  }
  // Most mutants break a strict format.
  EXPECT_LT(accepted, kMutantsPerFormat / 2) << name;
}

TEST(ObsFormatMutationTest, QueryLogLine) {
  QueryLogRecord r;
  r.correlation_id = 42;
  r.query_hash = 0xfeedfacecafebeefull;
  r.unix_ms = 1700000000123ull;
  r.graph = "g";
  r.query = "(?x p \"a\\\"b\") OPT (?x q ?y)";
  r.fragment = "SPARQL[AO]";
  r.outcome = "resource_exhausted";
  r.error = "live mappings over cap";
  r.parse_ns = 1200;
  r.optimize_ns = 300;
  r.eval_ns = 45000;
  r.rows_out = 7;
  r.total_mappings = 90;
  r.peak_mappings = 30;
  r.peak_bytes = 4096;
  r.threads = 4;
  r.cache = "plan_hit";
  r.slow = true;
  r.explain = "AND\n  (?x p ?y)\t1 row";
  CheckMutants("query log", QueryLogRecordToJson(r),
               [](std::string_view line, std::string* error) {
                 QueryLogRecord out;
                 return ParseQueryLogLine(line, &out, error);
               },
               1);
}

TEST(ObsFormatMutationTest, HistorySample) {
  HistorySample s;
  s.unix_ms = 1700000000000ull;
  s.seconds = 1.5;
  s.counters["engine.queries"] = 12;
  s.counters["engine.queries_rejected"] = 1;
  s.gauges["engine.queries_active"] = -3;
  s.gauges["inflight.live_bytes"] = 65536;
  s.histograms["engine.eval_ns"] = {{1024, 3}, {4096, 8}, {65536, 1}};
  CheckMutants("history sample", s.ToJson(),
               [](std::string_view line, std::string* error) {
                 HistorySample out;
                 return ParseHistorySample(line, &out, error);
               },
               2);
}

TEST(ObsFormatMutationTest, TelemetrySnapshotWithAlertsTail) {
  TelemetrySnapshot snap;
  snap.unix_ms = 1700000000000ull;
  snap.interval_ms = 1000;
  snap.ticks = 9;
  snap.queries_total = 120;
  snap.rejected_total = 2;
  snap.watchdog_cancelled_total = 1;
  snap.queries_active = 1;
  snap.qps = 11.5;
  snap.rejections_per_s = 0.25;
  snap.eval_p50_ns = 1500.5;
  snap.eval_p99_ns = 98000;
  TelemetryWindow w;
  w.end_unix_ms = 1700000000000ull;
  w.seconds = 1.001;
  w.queries = 12;
  w.rejections = 1;
  w.watchdog_cancels = 1;
  w.eval_count = 11;
  w.eval_buckets = {{2048, 10}, {131072, 1}};
  snap.windows = {w, w};
  snap.inflight.unix_ms = 1700000000000ull;
  snap.inflight.registered_total = 121;
  snap.inflight.watchdog_cancelled_total = 1;
  InflightQueryInfo q;
  q.slot = 3;
  q.generation = 17;
  q.correlation_id = 120;
  q.query_hash = 99;
  q.graph = "g";
  q.query = "(?a p ?x) AND (?b p ?y)";
  q.fragment = "SPARQL[A]";
  q.phase = QueryPhase::kEvaluating;
  q.start_unix_ms = 1699999999000ull;
  q.wall_ns = 1000000000ull;
  q.live_mappings = 5000;
  q.live_bytes = 640000;
  q.peak_bytes = 700000;
  q.threads = 2;
  q.watchdog_cancelled = true;
  snap.inflight.queries = {q};
  snap.hot_tags = {{"JoinHash", 40}, {"Scan", 12}};
  snap.has_alerts = true;
  snap.alerts.unix_ms = 1700000000000ull;
  snap.alerts.pending_total = 2;
  snap.alerts.firing_total = 1;
  snap.alerts.resolved_total = 0;
  AlertRuleStatus rule;
  rule.name = "and-slow";
  rule.severity = "page";
  rule.state = "firing";
  rule.fragment = "SPARQL[A]";
  rule.value = 2.5e6;
  rule.threshold = 1e6;
  rule.since_unix_ms = 1699999999500ull;
  rule.fires = 1;
  snap.alerts.rules = {rule};
  snap.build_sha = "abc1234";
  snap.build_type = "Release";
  CheckMutants("telemetry snapshot", snap.ToJson(),
               [](std::string_view json, std::string* error) {
                 TelemetrySnapshot out;
                 return ParseTelemetrySnapshot(json, &out, error);
               },
               3);
}

TEST(ObsFormatMutationTest, AlertRuleFile) {
  const std::string rules = R"({"version":1,"rules":[
    {"name":"opt-p99","agg":"p99","metric":"engine.eval_ns",
     "fragment":"SPARQL[AO]","op":">","threshold":"50ms",
     "windows":["30s","5m"],"for":"10s","keep":"30s","severity":"page",
     "escalate_watchdog_wall_ms":100},
    {"name":"rejection-burn","agg":"burn_rate",
     "metric":"engine.queries_rejected","denominator":"engine.queries",
     "objective":0.01,"op":">","threshold":2,"windows":[60000,"10m"]}]})";
  CheckMutants("alert rules", rules,
               [](std::string_view json, std::string* error) {
                 std::vector<AlertRule> out;
                 return ParseAlertRules(json, &out, error);
               },
               4);
}

TEST(ObsFormatMutationTest, AlertLogLine) {
  AlertTransition t;
  t.unix_ms = 1700000000000ull;
  t.rule = "and-slow";
  t.state = "firing";
  t.severity = "page";
  t.fragment = "SPARQL[A]";
  t.value = 2.5e6;
  t.threshold = 1e6;
  t.windows_ms = {1000, 60000};
  CheckMutants("alert log", t.ToJson(),
               [](std::string_view line, std::string* error) {
                 AlertTransition out;
                 return ParseAlertLogLine(line, &out, error);
               },
               5);
}

}  // namespace
}  // namespace rdfql
