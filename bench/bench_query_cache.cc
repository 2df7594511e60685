// What does the query cache buy — and what does it cost when it can't
// help? Four engine-level variants of the university mix (2 universities):
//
//   BM_MixUncached        no cache attached — the pre-cache Engine::Query
//                         path, byte for byte. The cold baseline.
//   BM_MixWarmCache       cache attached and pre-warmed: every query in
//                         the timing loop is a result-cache hit (hash the
//                         canonical text, one sharded-LRU lookup, copy the
//                         materialized MappingSet).
//   BM_MixCacheBypass     cache attached but every query opts out with
//                         CacheMode::kOff — measures the bypass check
//                         itself, the only cost a caller who disables
//                         caching per query ever pays.
//   BM_UniqueAdversarial  cache attached, every query text unique — the
//                         worst case: each evaluation pays hash + lookup
//                         miss + store and the LRU churns, with zero hits.
//
// Before google-benchmark runs, a paired pre-pass interleaves the cold,
// warm, and bypass sweeps (41 reps of 5 mix passes each, medians of
// per-rep ratios, up to 3 attempts) and enforces the two budgets from
// docs/performance.md:
//
//   gate A: warm >= 10x faster than cold on the repeat-heavy mix,
//   gate B: bypass within 2% of cold (caching disabled is ~free).
//
// Both gates print to stderr; a violation fails the binary (and hence the
// bench_query_cache_emit ctest) AFTER the JSON is written, so a failing
// run still leaves numbers to debug. The per-mode sweep medians land in the
// JSON as `paired_*_ns` metrics (timing-named, so bench_diff skips them
// across machines). A separate deterministic pre-pass drives fixed
// workloads through fresh caches and attaches the resulting hit/miss/
// eviction counts as `sweep_*` metrics — exact-match material for the
// committed baseline (FNV-1a and the shard mix are fixed-width integer
// arithmetic, so the counts are machine-independent).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/rdfql.h"
#include "util/check.h"
#include "util/clock.h"
#include "workload/university_generator.h"

#include "bench_reporting.h"

namespace rdfql {
namespace {

Engine& SharedEngine() {
  static Engine engine;
  return engine;
}

void EnsureMixGraph() {
  static bool registered = [] {
    UniversitySpec spec;
    // 4 universities (vs the 2 of bench_limits_overhead): long enough cold
    // sweeps that the paired gates measure the cache, not timer noise.
    spec.num_universities = 4;
    SharedEngine().PutGraph(
        "mix", GenerateUniversityGraph(spec, SharedEngine().dict()));
    return true;
  }();
  (void)registered;
}

size_t RunMix(const EvalOptions& options = EvalOptions{}) {
  size_t answers = 0;
  for (const NamedUniversityQuery& q : UniversityQueryMix()) {
    Result<MappingSet> r = SharedEngine().Query("mix", q.text, options);
    RDFQL_CHECK(r.ok());
    answers += r->size();
  }
  return answers;
}

EvalOptions BypassOptions() {
  EvalOptions options;
  options.use_plan_cache = CacheMode::kOff;
  options.use_result_cache = CacheMode::kOff;
  return options;
}

QueryCache& SharedCache() {
  static QueryCache cache{QueryCacheOptions{}};
  return cache;
}

void BM_MixUncached(benchmark::State& state) {
  EnsureMixGraph();
  SharedEngine().SetQueryCache(nullptr);
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMix();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixUncached)->Unit(benchmark::kMillisecond);

void BM_MixWarmCache(benchmark::State& state) {
  EnsureMixGraph();
  SharedEngine().SetQueryCache(&SharedCache());
  RunMix();  // warm: every loop iteration below is a result hit
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMix();
    benchmark::DoNotOptimize(answers);
  }
  SharedEngine().SetQueryCache(nullptr);
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixWarmCache)->Unit(benchmark::kMillisecond);

void BM_MixCacheBypass(benchmark::State& state) {
  EnsureMixGraph();
  SharedEngine().SetQueryCache(&SharedCache());
  EvalOptions off = BypassOptions();
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMix(off);
    benchmark::DoNotOptimize(answers);
  }
  SharedEngine().SetQueryCache(nullptr);
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixCacheBypass)->Unit(benchmark::kMillisecond);

void BM_UniqueAdversarial(benchmark::State& state) {
  EnsureMixGraph();
  SharedEngine().SetQueryCache(&SharedCache());
  // A process-lifetime counter keeps every query text distinct across
  // iterations AND benchmark re-runs: all misses, maximal churn.
  static uint64_t serial = 0;
  size_t answers = 0;
  for (auto _ : state) {
    std::string q =
        "(?s adversarial_never_hits" + std::to_string(serial++) + " ?o)";
    Result<MappingSet> r = SharedEngine().Query("mix", q);
    RDFQL_CHECK(r.ok());
    answers = r->size();
    benchmark::DoNotOptimize(answers);
  }
  SharedEngine().SetQueryCache(nullptr);
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_UniqueAdversarial)->Unit(benchmark::kMillisecond);

template <typename T>
T Median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One paired measurement pass. The bypass budget (2%) is tighter than a
/// shared machine's sweep-to-sweep noise, so several defenses stack:
///
///  - each timed sweep runs the mix kMixPerSweep times (~25ms), long
///    enough to average over millisecond-scale preemption spikes;
///  - cold and bypass run back to back with their order alternating every
///    rep (identical allocator state — the warm sweep's alloc/free of
///    result copies runs last — and slow drift in clock frequency or
///    background load hits both modes equally often);
///  - the gates compare medians of per-rep ratios rather than ratios of
///    aggregates, so one preempted sweep shifts one sample, not the
///    verdict.
///
/// Fills the medians out and returns 0 when both budgets hold.
int RunPairedAttempt(QueryCache* cache, const EvalOptions& off, double* out_cold,
                     double* out_warm, double* out_bypass) {
  constexpr int kReps = 41;
  constexpr int kMixPerSweep = 5;
  std::vector<uint64_t> cold_ns, warm_ns, bypass_ns;
  std::vector<double> speedups, overheads;
  for (int i = 0; i < kReps; ++i) {
    uint64_t cold = 0, bypass = 0;
    size_t a = 0, c = 0;
    auto run_cold = [&] {
      SharedEngine().SetQueryCache(nullptr);
      uint64_t t0 = SteadyNowNs();
      for (int k = 0; k < kMixPerSweep; ++k) a = RunMix();
      cold = SteadyNowNs() - t0;
    };
    auto run_bypass = [&] {
      SharedEngine().SetQueryCache(cache);
      uint64_t t0 = SteadyNowNs();
      for (int k = 0; k < kMixPerSweep; ++k) c = RunMix(off);
      bypass = SteadyNowNs() - t0;
    };
    if (i % 2 == 0) {
      run_cold();
      run_bypass();
    } else {
      run_bypass();
      run_cold();
    }
    SharedEngine().SetQueryCache(cache);
    uint64_t t0 = SteadyNowNs();
    size_t b = 0;
    for (int k = 0; k < kMixPerSweep; ++k) b = RunMix();
    uint64_t warm = SteadyNowNs() - t0;
    SharedEngine().SetQueryCache(nullptr);
    RDFQL_CHECK(a == b && b == c);
    cold_ns.push_back(cold);
    bypass_ns.push_back(bypass);
    warm_ns.push_back(warm);
    speedups.push_back(static_cast<double>(cold) /
                       static_cast<double>(warm));
    overheads.push_back(static_cast<double>(bypass) /
                            static_cast<double>(cold) -
                        1.0);
  }
  *out_cold = static_cast<double>(Median(cold_ns)) / kMixPerSweep;
  *out_warm = static_cast<double>(Median(warm_ns)) / kMixPerSweep;
  *out_bypass = static_cast<double>(Median(bypass_ns)) / kMixPerSweep;
  double speedup = Median(speedups);
  double overhead = Median(overheads);
  std::fprintf(stderr,
               "query-cache (paired medians over %d x%d mix sweeps): "
               "cold=%.2fms warm=%.3fms (%.1fx) bypass=%.2fms (%+.2f%%); "
               "budgets: warm >=10x, bypass <2%%\n",
               kReps, kMixPerSweep, *out_cold / 1e6, *out_warm / 1e6, speedup,
               *out_bypass / 1e6, overhead * 100);
  int rc = 0;
  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "query-cache gate miss: warm speedup %.1fx < 10x\n",
                 speedup);
    rc = 1;
  }
  if (overhead > 0.02) {
    std::fprintf(stderr,
                 "query-cache gate miss: bypass overhead %+.2f%% > 2%%\n",
                 overhead * 100);
    rc = 1;
  }
  return rc;
}

/// Paired pre-pass: interleave cold (no cache), warm (pre-warmed cache),
/// and bypass (cache attached, per-query kOff) sweeps so they share the
/// same frequency/cache-pressure conditions, and gate on the medians of
/// per-rep ratios. A gate miss re-runs the whole pass (up to 3 attempts):
/// on a loaded single-core host the median estimator's noise floor is
/// ~±1%, so a true-zero overhead occasionally measures past 2% — but a
/// real regression fails every attempt, while three independent false
/// positives are vanishingly unlikely. Returns 0 when some attempt holds
/// both budgets, 1 otherwise.
int ReportPairedCacheGates() {
  EnsureMixGraph();
  QueryCache cache{QueryCacheOptions{}};
  EvalOptions off = BypassOptions();
  // Warm up graph indexes/allocator, then warm the cache itself.
  SharedEngine().SetQueryCache(nullptr);
  RunMix();
  SharedEngine().SetQueryCache(&cache);
  RunMix();
  constexpr int kAttempts = 3;
  double cold = 0, warm = 0, bypass = 0;
  int rc = 1;
  for (int attempt = 1; attempt <= kAttempts && rc != 0; ++attempt) {
    if (attempt > 1) {
      std::fprintf(stderr, "query-cache: retrying paired pass (%d/%d)\n",
                   attempt, kAttempts);
    }
    rc = RunPairedAttempt(&cache, off, &cold, &warm, &bypass);
  }
  for (const char* name :
       {"BM_MixUncached", "BM_MixWarmCache", "BM_MixCacheBypass"}) {
    bench::AddCaseMetric(name, "paired_cold_ns", cold);
    bench::AddCaseMetric(name, "paired_warm_ns", warm);
    bench::AddCaseMetric(name, "paired_bypass_ns", bypass);
  }
  if (rc != 0) {
    std::fprintf(stderr,
                 "query-cache GATE FAILURE: budgets missed on all %d "
                 "attempts\n",
                 kAttempts);
  }
  return rc;
}

/// Deterministic sweeps through fresh caches; the resulting counters are
/// pure functions of the workload (no timing, no sizes), so the committed
/// baseline pins them exactly.
void ReportDeterministicCacheCounters() {
  EnsureMixGraph();
  // Repeat-heavy: the 6-query mix, 10 sweeps. Sweep 1 misses and stores;
  // sweeps 2-10 are result hits (the plan is never even consulted again).
  {
    QueryCache cache{QueryCacheOptions{}};
    SharedEngine().SetQueryCache(&cache);
    for (int rep = 0; rep < 10; ++rep) RunMix();
    SharedEngine().SetQueryCache(nullptr);
    QueryCacheStats s = cache.Stats();
    bench::AddCaseMetric("BM_MixWarmCache", "sweep_plan_misses",
                         static_cast<double>(s.plan_misses));
    bench::AddCaseMetric("BM_MixWarmCache", "sweep_result_hits",
                         static_cast<double>(s.result_hits));
    bench::AddCaseMetric("BM_MixWarmCache", "sweep_result_misses",
                         static_cast<double>(s.result_misses));
    bench::AddCaseMetric("BM_MixWarmCache", "sweep_result_evictions",
                         static_cast<double>(s.result_evictions));
  }
  // All-unique churn: 512 distinct queries through a 256-entry plan cache
  // (results off — their byte sizes are sizeof-dependent, plan counts are
  // not). Evictions/retained entries depend only on how the FNV hashes
  // land across the 16 shards: fixed integer arithmetic, so exact-match
  // baseline material.
  {
    QueryCacheOptions options;
    options.plan_capacity = 256;
    options.result_max_bytes = 0;
    QueryCache cache(options);
    SharedEngine().SetQueryCache(&cache);
    for (int i = 0; i < 512; ++i) {
      std::string q = "(?s sweep_unique" + std::to_string(i) + " ?o)";
      RDFQL_CHECK(SharedEngine().Query("mix", q).ok());
    }
    SharedEngine().SetQueryCache(nullptr);
    QueryCacheStats s = cache.Stats();
    bench::AddCaseMetric("BM_UniqueAdversarial", "sweep_plan_hits",
                         static_cast<double>(s.plan_hits));
    bench::AddCaseMetric("BM_UniqueAdversarial", "sweep_plan_misses",
                         static_cast<double>(s.plan_misses));
    bench::AddCaseMetric("BM_UniqueAdversarial", "sweep_plan_evictions",
                         static_cast<double>(s.plan_evictions));
    bench::AddCaseMetric("BM_UniqueAdversarial", "sweep_plan_entries",
                         static_cast<double>(s.plan_entries));
  }
}

}  // namespace
}  // namespace rdfql

int main(int argc, char** argv) {
  int gate_rc = rdfql::ReportPairedCacheGates();
  rdfql::ReportDeterministicCacheCounters();
  int rc = rdfql::bench::BenchMain(argc, argv, "bench_query_cache");
  return rc != 0 ? rc : gate_rc;
}
