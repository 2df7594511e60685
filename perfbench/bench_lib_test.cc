// Checks of the benchmark's own arithmetic on hand-built inputs:
// percentile selection and its support rule, self-time computation,
// digest order-independence and the per-span allocation counters.
// Built beside the benchmark; run with `ctest` in its build directory.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using perfbench::Digest;
using perfbench::SpanRecord;

void TestPercentile() {
  // 1..100 shuffled: nearest-rank p50 = 50 with 50 beyond, p99 = 99 with
  // 1 beyond (unsupported), p90 = 90 with 10 beyond (just supported).
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  auto p50 = perfbench::SelectPercentile(v, 0.50);
  EXPECT(p50.value == 50 && p50.beyond == 50 && p50.supported);
  auto p99 = perfbench::SelectPercentile(v, 0.99);
  EXPECT(p99.value == 99 && p99.beyond == 1 && !p99.supported);
  auto p90 = perfbench::SelectPercentile(v, 0.90);
  EXPECT(p90.value == 90 && p90.beyond == 10 && p90.supported);
  auto p91 = perfbench::SelectPercentile(v, 0.91);
  EXPECT(p91.value == 91 && p91.beyond == 9 && !p91.supported);

  // p99 becomes supported at 1000 samples: rank 990, 10 beyond.
  std::vector<double> big(1000);
  for (int i = 0; i < 1000; ++i) big[i] = i + 1;
  auto p99b = perfbench::SelectPercentile(big, 0.99);
  EXPECT(p99b.value == 990 && p99b.beyond == 10 && p99b.supported);
  std::vector<double> short_of(999);
  for (int i = 0; i < 999; ++i) short_of[i] = i + 1;
  EXPECT(!perfbench::SelectPercentile(short_of, 0.99).supported);

  EXPECT(!perfbench::SelectPercentile({}, 0.5).supported);
  auto one = perfbench::SelectPercentile({7.5}, 0.99);
  EXPECT(one.value == 7.5 && one.beyond == 0 && !one.supported);
}

void TestBlockedPercentile() {
  // 500 samples in five blocks of 100; the third block is a slow stretch
  // (every sample +1000). Block medians: 50.5-ish for four blocks, 1050 for
  // the slow one, so the median of blocks ignores the stretch.
  std::vector<double> series;
  for (int b = 0; b < 5; ++b) {
    for (int i = 1; i <= 100; ++i) series.push_back(i + (b == 2 ? 1000 : 0));
  }
  auto p50 = perfbench::BlockedPercentile(series, 0.5);
  EXPECT(p50.supported && p50.value == 50 && p50.beyond == 50);
  // Pooled, the slow stretch shifts the median.
  EXPECT(perfbench::SelectPercentile(series, 0.5).value == 63);
  // p99 of 100-sample blocks is unsupported (1 beyond), and so is it for
  // 3 blocks of 166; the whole series (5 beyond) is used and flagged.
  auto p99 = perfbench::BlockedPercentile(series, 0.99);
  EXPECT(!p99.supported && p99.value == 1095 && p99.beyond == 5);
  // 5000 samples: blocks of 1000 support p99 (10 beyond each).
  std::vector<double> big;
  for (int i = 0; i < 5000; ++i) big.push_back(i % 1000 + 1);
  auto big99 = perfbench::BlockedPercentile(big, 0.99);
  EXPECT(big99.supported && big99.value == 990 && big99.beyond == 10);
  // 3000 samples: five blocks of 600 leave 6 beyond p99, three of 1000
  // leave 10.
  std::vector<double> mid;
  for (int i = 0; i < 3000; ++i) mid.push_back(i % 1000 + 1);
  auto mid99 = perfbench::BlockedPercentile(mid, 0.99);
  EXPECT(mid99.supported && mid99.value == 990 && mid99.beyond == 10);

  EXPECT(perfbench::MedianOf({3, 1, 2}) == 2);
  EXPECT(perfbench::MedianOf({4, 1, 3, 2}) == 2.5);
  EXPECT(perfbench::MedianOf({}) == 0);
}

void TestMedianBlockRate() {
  // Nine events in three blocks: 3 events over 1 s, 3 over 3 s (a slow
  // stretch), 3 over 1 s; weights 1, 2, 3 per event. The median block
  // rate skips the slow stretch.
  const uint64_t s = 1000000000;
  std::vector<uint64_t> ends = {s / 3, 2 * s / 3, s,     2 * s, 3 * s,
                                4 * s, 4 * s + s / 2, 4 * s + s * 3 / 4,
                                5 * s};
  std::vector<double> ones(9, 1.0);
  EXPECT(perfbench::MedianBlockRate(ends, ones, 3) == 3.0);
  std::vector<double> rows = {1, 2, 3, 1, 2, 3, 1, 2, 3};
  EXPECT(perfbench::MedianBlockRate(ends, rows, 3) == 6.0);
  // Fewer events than blocks: one block over the whole span.
  EXPECT(perfbench::MedianBlockRate({s, 2 * s}, {1, 1}, 3) == 1.0);
  EXPECT(perfbench::MedianBlockRate({}, {}, 3) == 0.0);
  // Granules of 3: the nine events are three whole granules, one per
  // block, as above; a tenth event (a partial granule) is left out.
  EXPECT(perfbench::MedianBlockRate(ends, ones, 3, 3) == 3.0);
  std::vector<uint64_t> ten = ends;
  ten.push_back(100 * s);
  EXPECT(perfbench::MedianBlockRate(ten, std::vector<double>(10, 1.0), 3,
                                    3) == 3.0);
  // Two granules of 4 events (1 s, then 4 s) for three blocks: one block
  // of both, 8 events over 5 s.
  EXPECT(perfbench::MedianBlockRate({1, 2, 3, s, 2 * s, 3 * s, 4 * s, 5 * s},
                                    std::vector<double>(8, 1.0), 3,
                                    4) == 1.6);
}

SpanRecord Rec(uint64_t start, uint64_t end, int64_t parent) {
  SpanRecord r;
  r.name = "s";
  r.start_ns = start;
  r.end_ns = end;
  r.parent = parent;
  return r;
}

void TestSelfTimes() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: union is
  // [10,50) = 40) and [90,120) (clipped to [90,100) = 10); a grandchild
  // [12,18) under the first child.
  std::vector<SpanRecord> spans = {Rec(0, 100, -1), Rec(10, 30, 0),
                                   Rec(20, 50, 0), Rec(90, 120, 0),
                                   Rec(12, 18, 1)};
  std::vector<uint64_t> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);

  // Totals by name sum self and total time per name.
  spans[1].name = "child";
  spans[2].name = "child";
  auto totals = perfbench::TotalsByName(spans);
  EXPECT(totals["child"].count == 2);
  EXPECT(totals["child"].total_ns == 50);
  EXPECT(totals["child"].self_ns == 14 + 30);
}

void TestDigest() {
  perfbench::Row a = {{"x", "alice"}, {"y", "bob"}};
  perfbench::Row a_reordered = {{"y", "bob"}, {"x", "alice"}};
  perfbench::Row b = {{"x", "carol"}};
  Digest d1 = perfbench::DigestRows({a, b});
  Digest d2 = perfbench::DigestRows({b, a_reordered});
  EXPECT(d1 == d2);
  EXPECT(d1.rows == 2);
  // A duplicate row changes the digest (rows are a bag, not a set).
  EXPECT(perfbench::DigestRows({a, b, b}) != d1);
  // Moving a value to another variable changes it.
  perfbench::Row swapped = {{"x", "bob"}, {"y", "alice"}};
  EXPECT(perfbench::DigestRows({swapped, b}) != d1);

  // The JSON digest reads the same rows in any order and any key order.
  std::string j1 =
      "{\"head\":{\"vars\":[\"x\",\"y\"]},\"results\":{\"bindings\":["
      "{\"x\":{\"type\":\"iri\",\"value\":\"alice\"},"
      "\"y\":{\"type\":\"iri\",\"value\":\"bob\"}},"
      "{\"x\":{\"type\":\"iri\",\"value\":\"carol\"}}]}}";
  std::string j2 =
      "{\"results\":{\"bindings\":["
      "{\"x\":{\"value\":\"carol\",\"type\":\"iri\"}},"
      "{\"y\":{\"type\":\"iri\",\"value\":\"bob\"},"
      "\"x\":{\"type\":\"iri\",\"value\":\"alice\"}}]},"
      "\"head\":{\"vars\":[\"x\",\"y\"]}}";
  auto dj1 = perfbench::DigestOfJson(j1);
  auto dj2 = perfbench::DigestOfJson(j2);
  EXPECT(dj1.has_value() && dj2.has_value());
  EXPECT(dj1.has_value() && *dj1 == d1);
  EXPECT(dj2.has_value() && *dj2 == d1);
  // Escapes decode before hashing.
  std::string esc =
      "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"iri\","
      "\"value\":\"a\\\"b\\\\c\\u0001\"}}]}}";
  auto de = perfbench::DigestOfJson(esc);
  EXPECT(de.has_value() &&
         *de == perfbench::DigestRows({{{"x", std::string("a\"b\\c\x01")}}}));
  auto empty = perfbench::DigestOfJson(
      "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[]}}");
  EXPECT(empty.has_value() && empty->rows == 0 && empty->hash == 0);
  EXPECT(!perfbench::DigestOfJson("{\"results\":{\"bindings\":[").has_value());
  EXPECT(!perfbench::DigestOfJson("{\"head\":{}}").has_value());
  EXPECT(!perfbench::DigestOfJson(j1 + "x").has_value());
}

// Direct calls to the allocation functions, stored through a volatile
// pointer, so the optimizer cannot elide them.
void* volatile g_sink = nullptr;
void AllocateOnce() {
  g_sink = ::operator new(16);
  ::operator delete(g_sink);
}

// Runs first among the span checks: nothing has been recorded before it.
void TestSpanAllocations() {
  perfbench::EnableSpans(true);
  {
    perfbench::Span outer("outer", 7);
    AllocateOnce();
    {
      perfbench::Span inner("inner");
      AllocateOnce();
      AllocateOnce();
    }
  }
  perfbench::EnableSpans(false);
  std::vector<SpanRecord> spans = perfbench::CollectSpans();
  EXPECT(spans.size() == 2);
  if (spans.size() == 2) {
    EXPECT(std::string(spans[0].name) == "outer");
    EXPECT(spans[0].allocs == 1);  // the inner span's two are its own
    EXPECT(spans[1].allocs == 2);
    EXPECT(spans[1].parent == 0);
    EXPECT(spans[1].request == 7);  // inherited
    EXPECT(spans[0].start_ns <= spans[1].start_ns &&
           spans[1].end_ns <= spans[0].end_ns);
  }
  {
    perfbench::Span off("off");  // recording is off: nothing is kept
  }
  EXPECT(perfbench::CollectSpans().size() == 2);
}

}  // namespace

int main() {
  TestPercentile();
  TestBlockedPercentile();
  TestMedianBlockRate();
  TestSelfTimes();
  TestDigest();
  TestSpanAllocations();
  if (g_failures == 0) std::printf("perfbench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
