// End-to-end benchmark of rdfql query serving.
//
//   perfbench --workload <mix_analytic|lookup_cached|ingest_read>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]
//
// Loads a generated university graph into an Engine, drives one workload
// through the engine's public entry points (reads via Engine::QueryJson,
// writes via Engine::LoadGraphText), checks every answer, and prints a
// metrics table followed by one JSON line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md for the
// workloads, the metrics and why each was chosen.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algebra/result_io.h"
#include "bench_lib.h"
#include "core/engine.h"
#include "core/query_cache.h"
#include "eval/evaluator.h"
#include "eval/reference_evaluator.h"
#include "obs/query_log.h"
#include "rdf/ntriples.h"
#include "replay.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/university_generator.h"

namespace perfbench {
namespace {

using rdfql::Engine;
using rdfql::MappingSet;

// --- Fixed workload parameters ----------------------------------------------

constexpr int kUniversities = 32;  // ~30.2k triples
// UniversitySpec's defaults, repeated to name the generated entities.
constexpr int kDepartments = 4;
constexpr int kProfessors = 6;
constexpr int kStudents = 40;
constexpr int kCourses = 8;
constexpr int kSetupsBefore = 5;  // of nine set-ups; see RunEndToEnd
constexpr int kSetupsAfter = 4;
constexpr int kLookupClients = 4;
constexpr int kWriteEvery = 10;  // ingest_read: one write per block of 10
constexpr double kZipfExponent = 1.0;
// lookup_cached's result budget (1.5 MiB): below the ~7k texts' total
// result bytes, so LRU eviction holds the hit ratio steady (~90%) instead
// of climbing to 100% as every text gets cached once (see README.md).
constexpr size_t kLookupResultBytes = 3u << 19;
// Percentile support: p95 needs >= 10 samples beyond it (200 reads), so
// mix_analytic keeps going past --seconds until it has twice that.
constexpr size_t kMinReads = 400;
// ingest_read runs fixed-work episodes of this many ops (550 writes, the
// graph grows by about 5%), each on a freshly set-up graph, until
// --seconds have passed.
constexpr uint64_t kIngestEpisodeOps = 5500;
// So that every workload reports write latency, in those without writes of
// their own client 0 also writes into a second graph (the probe graph)
// every 10 ms, through the whole window, under the same host conditions as
// the reads. Its indexes are brought current every 100 writes, untimed, as
// readers would.
constexpr uint64_t kProbeWriteIntervalNs = 10000000;
constexpr uint64_t kProbeReindexEvery = 100;
constexpr int kLookupVerifySample = 64;
constexpr int kIngestVerifyEveryWrites = 50;
constexpr double kLookupWarmupSeconds = 1.0;
// Count pass (traced runs): first N reads of client 0's stream, serial at
// threads=1, so the per-row counts repeat exactly for a seed.
constexpr int kCountReadsMix = 14;  // two rounds
constexpr int kCountReadsLookup = 300;
constexpr uint64_t kNsPerSecond = 1000000000;
// qps and rows_per_s are medians over this many blocks of a run.
constexpr size_t kRateBlocks = 15;
// Latency samples kept per client and operation kind (see SampleLog).
constexpr size_t kMaxKeptSamples = size_t{1} << 17;
// Whole-process budget: the benchmark must finish within 180 s.
constexpr double kProcessBudgetSeconds = 150.0;
constexpr size_t kMaxTraceEvents = 100000;

enum class Kind { kMix, kLookup, kIngest };

struct Workload {
  const char* name;
  Kind kind;
  int clients;
  bool all_threads;  // SetDefaultThreads(nproc) instead of 1
  bool cache;
};

const Workload kWorkloads[] = {
    {"mix_analytic", Kind::kMix, 1, true, false},
    {"lookup_cached", Kind::kLookup, kLookupClients, false, true},
    {"ingest_read", Kind::kIngest, 1, false, true},
};

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

uint64_t g_process_deadline_ns = 0;

// --- Corpus: the read texts and the write generator -------------------------

std::string Dept(int u, int d) {
  return "u" + std::to_string(u) + "_d" + std::to_string(d);
}

// The read texts, grouped by template: texts[begin[t], begin[t + 1]) are
// template t's, in seeded popularity order.
struct Corpus {
  std::vector<std::string> texts;
  std::vector<std::string> templates;
  std::vector<size_t> begin;
  std::vector<uint8_t> template_of;   // per text
  std::vector<double> template_cdf;   // cumulative template weights
  std::vector<double> zipf_cdf;       // per text, cumulative within template
};

// Lookup templates and their request shares. A percentile is steady only
// inside one latency cluster: on a boundary between two it flips from run
// to run. With these shares and kLookupResultBytes, AND hits are ~63% of
// lookup_cached's requests, so the median is an AND hit; the slowest ~3%
// are OPT and NS misses (each scans every email triple) and the next ~8%
// AND misses (each scans every teaches triple), so p95 is an AND miss. On
// ingest_read, where writes keep the hit ratio low, the median is an AND
// miss and p95 a MINUS miss (a scan of every advisor triple), the slowest
// 9%.
struct LookupTemplate {
  const char* name;
  double share;
};
const LookupTemplate kLookupTemplates[] = {
    {"AND student_teachers", 0.70}, {"UNION dept_members", 0.03},
    {"OPT prof_advisees", 0.09},    {"NS course_takers", 0.09},
    {"MINUS dept_unadvised", 0.09},
};

// mix_analytic rounds: a seeded permutation of the six queries plus this
// one a second time. With an odd number of slots per round the median can
// never sit on the boundary between two queries' latency clusters.
constexpr const char* kMixRepeated = "wd_advisor_email";

size_t MixRoundOps() { return rdfql::UniversityQueryMix().size() + 1; }

Corpus MakeCorpus(Kind kind, uint64_t seed) {
  Corpus c;
  std::vector<std::vector<std::string>> groups;
  if (kind == Kind::kMix) {
    for (const auto& q : rdfql::UniversityQueryMix()) {
      c.templates.push_back(q.name);
      groups.push_back({q.text});
    }
  } else {
    groups.resize(std::size(kLookupTemplates));
    for (const LookupTemplate& t : kLookupTemplates) {
      c.templates.push_back(t.name);
    }
    for (int u = 0; u < kUniversities; ++u) {
      for (int d = 0; d < kDepartments; ++d) {
        const std::string dept = Dept(u, d);
        for (int s = 0; s < kStudents; ++s) {
          groups[0].push_back("(" + dept + "_stud" + std::to_string(s) +
                              " takes ?c) AND (?p teaches ?c)");
        }
        groups[1].push_back("(?x works_for " + dept +
                            ") UNION (?x studies_at " + dept + ")");
        for (int k = 0; k < kProfessors; ++k) {
          groups[2].push_back("(?s advisor " + dept + "_prof" +
                              std::to_string(k) + ") OPT (?s email ?e)");
        }
        for (int k = 0; k < kCourses; ++k) {
          const std::string course = dept + "_course" + std::to_string(k);
          groups[3].push_back("NS((?s takes " + course +
                              ") UNION ((?s takes " + course +
                              ") AND (?s email ?e)))");
        }
        groups[4].push_back("(?s studies_at " + dept +
                            ") MINUS (?s advisor ?p)");
      }
    }
  }
  // The seed decides which constants are popular within each template.
  rdfql::Rng rng(seed ^ 0x5eed0f7e27u);
  double share_total = 0;
  for (size_t t = 0; t < groups.size(); ++t) {
    if (kind != Kind::kMix) {
      rng.Shuffle(&groups[t]);
      share_total += kLookupTemplates[t].share;
      c.template_cdf.push_back(share_total);
    }
    c.begin.push_back(c.texts.size());
    double weight = 0;
    const size_t first = c.zipf_cdf.size();
    for (size_t r = 0; r < groups[t].size(); ++r) {
      weight += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      c.zipf_cdf.push_back(weight);
      c.texts.push_back(std::move(groups[t][r]));
      c.template_of.push_back(static_cast<uint8_t>(t));
    }
    for (size_t i = first; i < c.zipf_cdf.size(); ++i) c.zipf_cdf[i] /= weight;
  }
  c.begin.push_back(c.texts.size());
  return c;
}

struct Op {
  bool write = false;
  uint32_t text = 0;
};

// One client's seeded request stream.
class Stream {
 public:
  Stream(Kind kind, const Corpus& corpus, uint64_t seed)
      : kind_(kind), corpus_(corpus), rng_(seed) {}

  Op Next() {
    Op op;
    if (kind_ == Kind::kMix) {
      if (pos_ == order_.size()) {
        order_.clear();
        for (size_t i = 0; i < corpus_.texts.size(); ++i) {
          order_.push_back(i);
          if (corpus_.templates[i] == kMixRepeated) order_.push_back(i);
        }
        rng_.Shuffle(&order_);
        pos_ = 0;
      }
      op.text = static_cast<uint32_t>(order_[pos_++]);
      return op;
    }
    if (kind_ == Kind::kIngest) {
      if (n_ % kWriteEvery == 0) write_at_ = n_ + rng_.NextBelow(kWriteEvery);
      op.write = n_++ == write_at_;
      if (op.write) return op;
    }
    const auto& tc = corpus_.template_cdf;
    size_t t = std::upper_bound(tc.begin(), tc.end(), rng_.NextDouble()) -
               tc.begin();
    t = std::min(t, tc.size() - 1);
    auto first = corpus_.zipf_cdf.begin() + corpus_.begin[t];
    auto last = corpus_.zipf_cdf.begin() + corpus_.begin[t + 1];
    size_t i = std::upper_bound(first, last, rng_.NextDouble()) -
               corpus_.zipf_cdf.begin();
    op.text = static_cast<uint32_t>(std::min(i, corpus_.begin[t + 1] - 1));
    return op;
  }

 private:
  Kind kind_;
  const Corpus& corpus_;
  rdfql::Rng rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
  uint64_t n_ = 0;
  uint64_t write_at_ = 0;
};

uint64_t ClientSeed(uint64_t seed, int client, int pass) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(client) * 131 +
         static_cast<uint64_t>(pass) * 7919 + 1;
}

// A new student's three triples, placed in a seeded department.
struct NewStudent {
  std::string name, dept, text;
};

NewStudent MakeStudent(rdfql::Rng* rng, uint64_t serial) {
  NewStudent s;
  int u = static_cast<int>(rng->NextBelow(kUniversities));
  int d = static_cast<int>(rng->NextBelow(kDepartments));
  s.dept = Dept(u, d);
  s.name = "new_stud" + std::to_string(serial);
  s.text = s.name + " studies_at " + s.dept + " .\n" + s.name + " takes " +
           s.dept + "_course" + std::to_string(rng->NextBelow(kCourses)) +
           " .\n" + s.name + " advisor " + s.dept + "_prof" +
           std::to_string(rng->NextBelow(kProfessors)) + " .\n";
  return s;
}

// --- Engine set-up -----------------------------------------------------------

struct Instance {
  // Declared before the engine: the engine must go first.
  std::unique_ptr<rdfql::QueryCache> cache;
  std::unique_ptr<Engine> engine;
};

void NoTriple(const rdfql::Triple&) {}

// Brings the SPO, POS and OSP indexes current by probing each once.
void TouchIndexes(Engine* engine, const std::string& s, const std::string& p,
                  const std::string& o) {
  const rdfql::Graph* g = engine->GetGraph("g").value();
  rdfql::Dictionary* dict = engine->dict();
  const rdfql::TermId inv = rdfql::kInvalidTermId;
  g->Match(dict->FindIri(s), inv, inv, NoTriple);
  g->Match(inv, dict->FindIri(p), dict->FindIri(o), NoTriple);
  g->Match(inv, inv, dict->FindIri(o), NoTriple);
}

// Generation + N-Triples load + first-touch index build; returns seconds.
double SetUp(const Workload& w, uint64_t seed, Instance* out) {
  out->engine.reset();
  out->cache.reset();
  uint64_t t0 = NowNs();
  rdfql::UniversitySpec spec;
  spec.num_universities = kUniversities;
  spec.seed = seed;
  std::string ntriples;
  {
    rdfql::Dictionary gen_dict;
    rdfql::Graph g = rdfql::GenerateUniversityGraph(spec, &gen_dict);
    ntriples = rdfql::WriteNTriples(g, gen_dict);
  }
  auto engine = std::make_unique<Engine>();
  engine->EnableMetrics(true);
  rdfql::Status st = engine->LoadGraphText("g", ntriples);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.message().c_str());
    std::exit(1);
  }
  TouchIndexes(engine.get(), "u0_d0_stud0", "studies_at", "u0_d0");
  double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  engine->SetDefaultThreads(w.all_threads ? HardwareThreads() : 1);
  if (w.cache) {
    rdfql::QueryCacheOptions opts;
    if (w.kind == Kind::kLookup) opts.result_max_bytes = kLookupResultBytes;
    out->cache = std::make_unique<rdfql::QueryCache>(opts);
    engine->SetQueryCache(out->cache.get());
  }
  out->engine = std::move(engine);
  return seconds;
}

// --- Correctness -------------------------------------------------------------

// Compares a served response with ReferenceEval on the current graph.
bool MatchesReference(Engine* engine, const std::string& text,
                      const std::string& response, std::string* error) {
  rdfql::Result<rdfql::PatternPtr> p = engine->Parse(text);
  if (!p.ok()) {
    *error = "parse failed: " + text;
    return false;
  }
  const rdfql::Graph* g = engine->GetGraph("g").value();
  Digest want = DigestOf(rdfql::ReferenceEval(*g, p.value()), *engine->dict());
  std::optional<Digest> got = DigestOfJson(response);
  if (!got.has_value() || *got != want) {
    *error = "answer differs from ReferenceEval: " + text;
    return false;
  }
  return true;
}

// What a client last saw for one text: the graph version and the bytes.
struct Seen {
  uint64_t epoch = 0;
  uint64_t hash = 0;
  uint32_t rows = 0;
  bool valid = false;
};

// --- One pass of a workload --------------------------------------------------

struct PassConfig {
  double seconds = 0;         // time-bound when op_limit == 0
  uint64_t op_limit = 0;      // per client; fixed-work when > 0
  size_t min_reads = 0;       // time-bound passes run on until this many reads
  bool traced = false;
  int pass_id = 0;            // varies the stream seeds between passes
  Instance* probe = nullptr;  // client 0 writes into it (kProbeWriteIntervalNs)
};

// One timed operation; `end_ns` is its completion time from the start of
// the window, `weight` the operations it stands for (see SampleLog).
struct Sample {
  uint64_t end_ns = 0;
  double ns = 0;
  uint32_t rows = 0;
  uint32_t weight = 1;
  uint8_t tmpl = 0;
};

// One client's samples of one operation kind, in bounded memory: once
// kMaxKeptSamples are kept, every other one is dropped and the stride
// doubles, so the kept samples are every stride-th operation and each
// stands for `stride` of them. The benchmark's own bookkeeping then does
// not grow with the engine's throughput, and neither does peak_rss_mb.
struct SampleLog {
  std::vector<Sample> kept;
  uint64_t count = 0;  // operations logged
  uint32_t stride = 1;

  void Add(const Sample& s) {
    if (count++ % stride != 0) return;
    kept.push_back(s);
    if (kept.size() == kMaxKeptSamples) {
      for (size_t i = 0; i < kept.size() / 2; ++i) kept[i] = kept[2 * i];
      kept.resize(kept.size() / 2);
      stride *= 2;
    }
  }
};

struct ClientStats {
  SampleLog reads, writes, probe_writes;
  uint64_t failed = 0;
  std::vector<Seen> seen;
  std::string error;
  // Traced passes only.
  ReplayCounts replay;
  uint64_t replays = 0;
  uint64_t probe_hits = 0, probe_misses = 0;
};

struct PassResult {
  std::vector<ClientStats> clients;
  // Per whole second of the window: operations and process CPU.
  std::vector<double> bucket_ops, bucket_cpu_ms;
  double window_s = 0;
  std::string error;

  uint64_t Ops() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c.reads.count + c.writes.count;
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c.failed;
    return n;
  }
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

class PassRunner {
 public:
  PassRunner(const Workload& w, Instance* inst, const Corpus& corpus,
             uint64_t seed, rdfql::ThreadPool* shadow_pool)
      : w_(w), inst_(inst), corpus_(corpus), seed_(seed),
        shadow_pool_(shadow_pool) {}

  PassResult Run(const PassConfig& cfg) {
    cfg_ = cfg;
    stop_.store(false);
    finished_.store(0);
    PassResult res;
    res.clients.resize(w_.clients);
    for (auto& c : res.clients) c.seen.resize(corpus_.texts.size());
    t0_ = NowNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < w_.clients; ++c) {
      threads.emplace_back([this, c, &res] {
        Client(c, &res.clients[c]);
        finished_.fetch_add(1);
      });
    }
    // Meanwhile the main thread marks process CPU time at every whole
    // second.
    const uint64_t end = t0_ + static_cast<uint64_t>(cfg.seconds * 1e9);
    uint64_t next_second = t0_ + kNsPerSecond;
    double cpu_mark = CpuSeconds();
    while (finished_.load() < w_.clients) {
      const uint64_t now = NowNs();
      if (cfg.op_limit == 0 && now >= end) stop_.store(true);
      if (now >= next_second) {
        const double cpu = CpuSeconds();
        res.bucket_cpu_ms.push_back((cpu - cpu_mark) * 1e3);
        cpu_mark = cpu;
        next_second += kNsPerSecond;
      }
      // Sleep to the next event (at most 5 ms, to notice finished clients
      // soon): waking more often would take CPU from the clients.
      uint64_t wake = std::min(next_second, now + 5000000);
      if (cfg.op_limit == 0) wake = std::min(wake, std::max(end, now));
      const uint64_t after = NowNs();
      if (wake > after) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wake - after));
      }
    }
    for (auto& t : threads) t.join();
    res.window_s = static_cast<double>(NowNs() - t0_) / 1e9;

    const size_t buckets = std::min(res.bucket_cpu_ms.size(),
                                    static_cast<size_t>(res.window_s));
    res.bucket_cpu_ms.resize(buckets);
    res.bucket_ops.assign(buckets, 0);
    for (const auto& c : res.clients) {
      for (const SampleLog* log : {&c.reads, &c.writes}) {
        for (const Sample& s : log->kept) {
          size_t b = s.end_ns / kNsPerSecond;
          if (b < buckets) res.bucket_ops[b] += log->stride;
        }
      }
      if (res.error.empty() && !c.error.empty()) res.error = c.error;
    }
    // Every client must have seen the same bytes for a (text, version).
    for (size_t t = 0; t < corpus_.texts.size() && res.error.empty(); ++t) {
      const Seen* first = nullptr;
      for (const auto& c : res.clients) {
        const Seen& b = c.seen[t];
        if (!b.valid) continue;
        if (first == nullptr) {
          first = &b;
        } else if (first->epoch == b.epoch && first->hash != b.hash) {
          res.error = "clients disagree on " + corpus_.texts[t];
        }
      }
    }
    return res;
  }

 private:
  bool Done(uint64_t i, const ClientStats& st) const {
    if (NowNs() >= g_process_deadline_ns) return true;
    if (cfg_.op_limit > 0) return i >= cfg_.op_limit;
    return stop_.load(std::memory_order_relaxed) &&
           st.reads.count >= cfg_.min_reads;
  }

  uint64_t Epoch() const {
    return inst_->engine->GetGraph("g").value()->Epoch();
  }

  // Records a response and checks it against earlier responses for the
  // same (text, graph version). Returns its row count.
  uint32_t Check(uint32_t text, uint64_t epoch, const std::string& json,
                 ClientStats* st) {
    Seen& s = st->seen[text];
    uint64_t h = BytesHash(json);
    if (s.valid && s.epoch == epoch) {
      if (h != s.hash && st->error.empty()) {
        st->error = "repeat returned different bytes: " + corpus_.texts[text];
      }
      return s.rows;
    }
    std::optional<Digest> d = DigestOfJson(json);
    if (!d.has_value()) {
      if (st->error.empty()) st->error = "malformed JSON response";
      return 0;
    }
    s = Seen{epoch, h, static_cast<uint32_t>(d->rows), true};
    return s.rows;
  }

  void Client(int client, ClientStats* st) {
    Engine* engine = inst_->engine.get();
    Stream stream(w_.kind, corpus_, ClientSeed(seed_, client, cfg_.pass_id));
    rdfql::Rng write_rng(ClientSeed(seed_, client, cfg_.pass_id) ^ 0xabcdefu);
    uint64_t serial = static_cast<uint64_t>(cfg_.pass_id) << 32;
    bool verify_next = false;
    Instance* probe = client == 0 ? cfg_.probe : nullptr;
    uint64_t next_probe = t0_;
    for (uint64_t i = 0; !Done(i, *st); ++i) {
      // Writes fall due between reads; after a long read (mix_analytic),
      // the ones that fell due during it are made in a row.
      while (probe != nullptr && NowNs() >= next_probe) {
        ProbeWrite(probe, &write_rng, serial++, st);
        next_probe += kProbeWriteIntervalNs;
      }
      Op op = stream.Next();
      const uint64_t request =
          (static_cast<uint64_t>(client) << 40) + (i + 1);
      if (op.write) {
        NewStudent s = MakeStudent(&write_rng, serial++);
        Sample smp;
        if (!Write(engine, s, request, &smp)) {
          ++st->failed;
          continue;
        }
        st->writes.Add(smp);
        if (st->writes.count % kIngestVerifyEveryWrites == 0) {
          verify_next = true;
        }
        continue;
      }
      const std::string& text = corpus_.texts[op.text];
      const uint64_t epoch = Epoch();
      bool miss = true;
      if (cfg_.traced && inst_->cache != nullptr) {
        miss = ProbeMiss(text, epoch, st);
      }
      std::string json;
      Sample smp;
      smp.tmpl = corpus_.template_of[op.text];
      uint64_t rows_now = 0;
      if (!cfg_.traced) {
        uint64_t t0 = NowNs();
        rdfql::Result<std::string> r = engine->QueryJson("g", text);
        uint64_t t1 = NowNs();
        if (!r.ok()) {
          ++st->failed;
          continue;
        }
        smp.ns = static_cast<double>(t1 - t0);
        smp.end_ns = t1 - t0_;
        json = std::move(r).value();
      } else {
        // Engine::QueryJson's body, with each half under its own span.
        Span span("request", request);
        rdfql::Result<MappingSet> r = [&] {
          Span q("core.query");
          return engine->Query("g", text);
        }();
        if (!r.ok()) {
          ++st->failed;
          continue;
        }
        {
          Span s("algebra.serialize");
          json = rdfql::WriteResultsJson(r.value(), *engine->dict());
        }
        rows_now = r.value().size();
        smp.ns = static_cast<double>(span.End());
        smp.end_ns = NowNs() - t0_;
      }
      smp.rows = Check(op.text, epoch, json, st);
      if (cfg_.traced && smp.rows != rows_now && st->error.empty()) {
        st->error = "row count mismatch: " + text;
      }
      st->reads.Add(smp);
      if (cfg_.traced && miss) Shadow(text, json, request, st);
      if (verify_next) {
        verify_next = false;
        std::string err;
        if (!MatchesReference(engine, text, json, &err) && st->error.empty()) {
          st->error = err;
        }
      }
    }
  }

  // One LoadGraphText, timed (under a span in traced passes).
  bool Write(Engine* engine, const NewStudent& s, uint64_t request,
             Sample* smp) const {
    rdfql::Status status;
    if (!cfg_.traced) {
      uint64_t t0 = NowNs();
      status = engine->LoadGraphText("g", s.text);
      smp->ns = static_cast<double>(NowNs() - t0);
    } else {
      Span span("rdf.write", request);
      status = engine->LoadGraphText("g", s.text);
      smp->ns = static_cast<double>(span.End());
    }
    smp->end_ns = NowNs() - t0_;
    if (cfg_.traced && status.ok()) {
      // Bring the indexes current outside the next read's latency.
      Span span("rdf.reindex", request);
      TouchIndexes(engine, s.name, "studies_at", s.dept);
    }
    return status.ok();
  }

  // A timed write into the probe graph, outside the closed loop's
  // operations.
  void ProbeWrite(Instance* probe, rdfql::Rng* rng, uint64_t serial,
                  ClientStats* st) {
    Engine* engine = probe->engine.get();
    NewStudent s = MakeStudent(rng, serial);
    Sample smp;
    if (!Write(engine, s, (uint64_t{255} << 40) + serial + 1, &smp)) {
      if (st->error.empty()) st->error = "probe write failed: " + s.text;
      return;
    }
    st->probe_writes.Add(smp);
    if (!cfg_.traced && st->probe_writes.count % kProbeReindexEvery == 0) {
      TouchIndexes(engine, s.name, "studies_at", s.dept);
    }
  }

  // Asks the cache whether the engine will serve `text` from a stored
  // result. The probe's own hit/miss is counted so it can be subtracted
  // from the cache's stats.
  bool ProbeMiss(const std::string& text, uint64_t epoch, ClientStats* st) {
    std::string canonical = rdfql::CanonicalizeQueryText(text);
    rdfql::ResultCacheKey key{rdfql::StableQueryHash(canonical), "g", epoch,
                              rdfql::EvalOptionsFingerprint({})};
    bool hit = inst_->cache->GetResult(key, canonical) != nullptr;
    ++(hit ? st->probe_hits : st->probe_misses);
    return !hit;
  }

  // The traced run's view inside a request that missed the result cache:
  // parse and evaluate again through the public calls, then replay the
  // plan operator by operator. Runs after the request, outside its latency.
  void Shadow(const std::string& text, const std::string& response,
              uint64_t request, ClientStats* st) {
    Engine* engine = inst_->engine.get();
    Span span("shadow", request);
    rdfql::Result<rdfql::PatternPtr> p = [&] {
      Span s("parser.parse");
      return engine->Parse(text);
    }();
    if (!p.ok()) {
      if (st->error.empty()) st->error = "shadow parse failed: " + text;
      return;
    }
    const rdfql::Graph* g = engine->GetGraph("g").value();
    const int threads = engine->default_threads();
    rdfql::EvalOptions opts;
    opts.threads = threads;
    opts.pool = threads > 1 ? shadow_pool_ : nullptr;
    {
      rdfql::Evaluator ev(g, opts);
      Span s("eval.evaluate");
      ev.EvalChecked(p.value());
    }
    if (threads > 1) {
      rdfql::Evaluator ev(g, rdfql::EvalOptions{});
      Span s("eval.evaluate_t1");
      ev.EvalChecked(p.value());
    }
    MappingSet replayed = [&] {
      Span s("replay");
      return ReplayPattern(*g, *p.value(), &st->replay);
    }();
    ++st->replays;
    if (BytesHash(rdfql::WriteResultsJson(replayed, *engine->dict())) !=
            BytesHash(response) &&
        st->error.empty()) {
      st->error = "operator replay differs from the engine: " + text;
    }
  }

  const Workload& w_;
  Instance* inst_;
  const Corpus& corpus_;
  uint64_t seed_;
  rdfql::ThreadPool* shadow_pool_;
  PassConfig cfg_;
  uint64_t t0_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> finished_{0};
};

// --- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

enum class Ops { kReads, kWrites, kClientOps };

// Samples of a pass in completion order: reads, writes (the probe graph's
// included), or every operation of the clients' closed loops.
std::vector<Sample> Chronological(const PassResult& r, Ops which) {
  std::vector<Sample> out;
  auto append = [&out](const SampleLog& log) {
    for (Sample s : log.kept) {
      s.weight = log.stride;
      out.push_back(s);
    }
  };
  for (const auto& c : r.clients) {
    if (which != Ops::kWrites) append(c.reads);
    if (which != Ops::kReads) append(c.writes);
    if (which == Ops::kWrites) append(c.probe_writes);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.end_ns < b.end_ns;
                   });
  return out;
}

std::vector<double> LatenciesNs(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.ns);
  return out;
}

double PercentileMs(const char* what, const std::vector<Sample>& samples,
                    double q) {
  PercentileResult p = BlockedPercentile(LatenciesNs(samples), q);
  std::printf("  %-6s p%-4g = %10.4f ms  (%zu samples, >= %zu beyond%s)\n",
              what, q * 100, p.value / 1e6, samples.size(), p.beyond,
              p.supported ? "" : "; UNSUPPORTED: fewer than 10");
  return p.value / 1e6;
}

// Per-template read latency, to show where the percentiles fall.
void PrintTemplateLatencies(const std::vector<Sample>& reads,
                            const Corpus& corpus) {
  std::vector<std::vector<double>> by(corpus.templates.size());
  for (const Sample& s : reads) by[s.tmpl].push_back(s.ns);
  for (size_t t = 0; t < by.size(); ++t) {
    PercentileResult p50 = SelectPercentile(by[t], 0.5);
    PercentileResult p99 = SelectPercentile(by[t], 0.99);
    std::printf("  %-24s %6.2f%% of reads  p50 %9.4f ms  p99 %9.4f ms%s\n",
                corpus.templates[t].c_str(),
                100.0 * static_cast<double>(by[t].size()) /
                    static_cast<double>(std::max<size_t>(reads.size(), 1)),
                p50.value / 1e6, p99.value / 1e6,
                p99.supported ? "" : " (p99 unsupported)");
  }
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Running a workload ----------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mix_analytic|lookup_cached|ingest_read> --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Usage(("unknown workload " + v).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 60) {
        Usage("--seconds must be in (0, 60]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr) Usage("--workload is required");
  return a;
}

// Before measuring: three rounds of the mix (pool start-up, allocator
// arenas faulted in); for lookups, long enough for the LRU to reach its
// steady hit ratio.
void WarmUp(const Workload& w, PassRunner* runner) {
  PassConfig cfg;
  cfg.pass_id = 0;
  if (w.kind == Kind::kMix) {
    cfg.op_limit = 3 * MixRoundOps();
  } else if (w.kind == Kind::kLookup) {
    cfg.seconds = kLookupWarmupSeconds;
  } else {
    return;
  }
  runner->Run(cfg);
}

// Measured pass configuration for a workload.
PassConfig MainPass(const Workload& w, double seconds, Instance* probe) {
  PassConfig cfg;
  cfg.pass_id = 1;
  if (w.kind == Kind::kIngest) {
    cfg.op_limit = kIngestEpisodeOps;
  } else {
    cfg.seconds = seconds;
    cfg.min_reads = w.kind == Kind::kMix ? kMinReads : 0;
    cfg.probe = probe;
  }
  return cfg;
}

// ingest_read: fixed-work episodes, each on a fresh graph, until `seconds`
// have passed (at least one). Set-up between episodes is outside the
// window; the episodes' samples are laid end to end in one timeline. Other
// workloads: one pass after a warm-up.
PassResult Measure(const Workload& w, uint64_t seed, const Corpus& corpus,
                   Instance* inst, const PassConfig& cfg, double seconds) {
  PassRunner runner(w, inst, corpus, seed, nullptr);
  if (w.kind != Kind::kIngest) {
    WarmUp(w, &runner);
    return runner.Run(cfg);
  }
  PassResult all;
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    if (!all.clients.empty()) SetUp(w, seed, inst);
    PassResult r = runner.Run(cfg);
    const uint64_t offset = static_cast<uint64_t>(all.window_s * 1e9);
    for (auto& c : r.clients) {
      for (SampleLog* log : {&c.reads, &c.writes, &c.probe_writes}) {
        for (Sample& s : log->kept) s.end_ns += offset;
      }
      all.clients.push_back(std::move(c));
    }
    for (auto [to, from] : {std::pair{&all.bucket_ops, &r.bucket_ops},
                            std::pair{&all.bucket_cpu_ms, &r.bucket_cpu_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    all.window_s += r.window_s;
    if (all.error.empty()) all.error = r.error;
  } while (NowNs() < end && NowNs() < g_process_deadline_ns);
  return all;
}

// Post-run checks against ReferenceEval (outside every timed region).
std::string VerifySample(const Workload& w, Instance* inst,
                         const Corpus& corpus, uint64_t seed,
                         const PassResult& res) {
  std::string err;
  std::vector<uint32_t> sample;
  if (w.kind == Kind::kMix) {
    for (uint32_t t = 0; t < corpus.texts.size(); ++t) sample.push_back(t);
  } else {
    // A seeded sample of distinct texts.
    for (uint32_t t = 0; t < corpus.texts.size(); ++t) sample.push_back(t);
    rdfql::Rng rng(seed ^ 0x7e57u);
    rng.Shuffle(&sample);
    sample.resize(w.kind == Kind::kLookup ? kLookupVerifySample : 16);
  }
  const uint64_t epoch = inst->engine->GetGraph("g").value()->Epoch();
  for (uint32_t t : sample) {
    const std::string& text = corpus.texts[t];
    rdfql::Result<std::string> r = inst->engine->QueryJson("g", text);
    if (!r.ok()) return "verification query failed: " + text;
    if (!MatchesReference(inst->engine.get(), text, r.value(), &err)) {
      return err;
    }
    for (const auto& c : res.clients) {
      const Seen& s = c.seen[t];
      if (s.valid && s.epoch == epoch && s.hash != BytesHash(r.value())) {
        return "served bytes differ from a later answer: " + text;
      }
    }
  }
  return "";
}

// Operations (rows == false) or answer rows per second: the median over
// kRateBlocks consecutive blocks of the closed loops' operations, so a slow
// stretch of the host in part of the run does not move it. On mix_analytic
// every block holds whole rounds, so that all blocks do the same work.
double MedianRate(const Workload& w, const std::vector<Sample>& ops,
                  bool rows) {
  std::vector<uint64_t> ends;
  std::vector<double> weights;
  for (const Sample& s : ops) {
    ends.push_back(s.end_ns);
    weights.push_back(static_cast<double>(s.weight) * (rows ? s.rows : 1));
  }
  return MedianBlockRate(ends, weights, kRateBlocks,
                         w.kind == Kind::kMix ? MixRoundOps() : 1);
}

int RunEndToEnd(const Args& args, const Corpus& corpus) {
  const Workload& w = *args.workload;
  // Nine set-ups, spread around the pass so that one slow moment of the
  // host does not set the median: three discarded, the probe graph (for
  // workloads without writes of their own), the graph the reads run on, and
  // four after.
  Instance inst, probe, scratch;
  const bool probed = w.kind != Kind::kIngest;
  std::vector<double> setups;
  for (int i = 0; i + 2 < kSetupsBefore; ++i) {
    setups.push_back(SetUp(w, args.seed, &scratch));
  }
  setups.push_back(SetUp(w, args.seed, probed ? &probe : &scratch));
  setups.push_back(SetUp(w, args.seed, &inst));
  std::string error;
  if (w.kind == Kind::kMix) {
    error = VerifySample(w, &inst, corpus, args.seed, {});
  }
  PassResult res =
      Measure(w, args.seed, corpus, &inst,
              MainPass(w, args.seconds, probed ? &probe : nullptr),
              args.seconds);
  const double peak_rss_mb = PeakRssMb();
  if (error.empty()) error = res.error;
  if (error.empty() && w.kind != Kind::kMix) {
    error = VerifySample(w, &inst, corpus, args.seed, res);
  }
  const size_t triples = inst.engine->GetGraph("g").value()->size();
  rdfql::QueryCacheStats cs =
      inst.cache ? inst.cache->Stats() : rdfql::QueryCacheStats{};
  for (int i = 0; i < kSetupsAfter; ++i) {
    setups.push_back(SetUp(w, args.seed, &scratch));
  }

  const std::vector<Sample> reads = Chronological(res, Ops::kReads);
  const std::vector<Sample> writes = Chronological(res, Ops::kWrites);
  const std::vector<Sample> loop_ops = Chronological(res, Ops::kClientOps);
  const uint64_t ops = res.Ops();
  const uint64_t failed = res.Failed();
  const uint64_t attempted = ops + failed;
  std::vector<double> cpu_per_op;
  for (size_t b = 0; b < res.bucket_ops.size(); ++b) {
    if (res.bucket_ops[b] > 0) {
      cpu_per_op.push_back(res.bucket_cpu_ms[b] / res.bucket_ops[b]);
    }
  }
  std::printf("workload %s seed %llu: %llu ops in %.3f s (%zu whole "
              "seconds; %zu read and %zu write samples%s), %d client(s), "
              "engine threads %d\n",
              w.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(ops), res.window_s,
              res.bucket_ops.size(), reads.size(), writes.size(),
              probed ? ", writes into the probe graph" : "",
              w.clients, inst.engine->default_threads());
  std::printf("  triples at end of run %zu, distinct texts %zu, error_rate "
              "%.6g\n",
              triples, corpus.texts.size(),
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted);
  PrintTemplateLatencies(reads, corpus);
  if (inst.cache != nullptr) {
    std::printf("  cache: result hits %llu misses %llu, plan hits %llu "
                "misses %llu (lifetime, warm-up included)\n",
                static_cast<unsigned long long>(cs.result_hits),
                static_cast<unsigned long long>(cs.result_misses),
                static_cast<unsigned long long>(cs.plan_hits),
                static_cast<unsigned long long>(cs.plan_misses));
  }
  std::vector<Metric> m;
  m.push_back({"setup_s", "s", MedianOf(setups)});
  m.push_back({"qps", "1/s", MedianRate(w, loop_ops, false)});
  m.push_back({"rows_per_s", "1/s", MedianRate(w, loop_ops, true)});
  m.push_back({"read_p50_ms", "ms", PercentileMs("read", reads, 0.50)});
  m.push_back({"read_p95_ms", "ms", PercentileMs("read", reads, 0.95)});
  m.push_back({"write_p50_ms", "ms", PercentileMs("write", writes, 0.50)});
  // Printed, not a metric: the p99 of µs-scale writes moved by up to 0.36
  // of its median between runs on the shared host, beyond any bound the
  // benchmark may set (see README.md).
  PercentileMs("write", writes, 0.99);
  m.push_back({"cpu_ms_per_op", "ms", MedianOf(cpu_per_op)});
  m.push_back({"peak_rss_mb", "MB", peak_rss_mb});
  if (!error.empty()) std::printf("INCORRECT: %s\n", error.c_str());
  PrintResult(error.empty(), attempted, failed, m);
  return error.empty() ? 0 : 1;
}

// --- Traced run --------------------------------------------------------------

// Deterministic count pass: the first N reads of client 0's stream, serial
// at threads=1, with spans off. Returns the per-row counts.
struct Counts {
  uint64_t rows = 0, allocs = 0, bytes = 0;
  ReplayCounts replay;
};

Counts CountPass(const Workload& w, Instance* inst, const Corpus& corpus,
                 uint64_t seed, std::string* error) {
  Counts c;
  Engine* engine = inst->engine.get();
  const rdfql::Graph* g = engine->GetGraph("g").value();
  Stream stream(w.kind, corpus, ClientSeed(seed, 0, 1));
  int n = w.kind == Kind::kMix ? kCountReadsMix : kCountReadsLookup;
  for (int done = 0; done < n;) {
    Op op = stream.Next();
    if (op.write) continue;
    ++done;
    rdfql::Result<rdfql::PatternPtr> p = engine->Parse(corpus.texts[op.text]);
    if (!p.ok()) {
      *error = "count pass parse failed";
      return c;
    }
    rdfql::Evaluator ev(g, rdfql::EvalOptions{});
    uint64_t a0 = ThreadAllocations();
    rdfql::Result<MappingSet> r = ev.EvalChecked(p.value());
    c.allocs += ThreadAllocations() - a0;
    if (!r.ok()) {
      *error = "count pass evaluation failed";
      return c;
    }
    c.rows += r.value().size();
    c.bytes += r.value().ApproxBytes();
    MappingSet replayed = ReplayPattern(*g, *p.value(), &c.replay);
    if (replayed != r.value()) *error = "count pass replay differs";
  }
  return c;
}

struct EngineCounters {
  double pool_run_ns = 0, pool_delay_ns = 0, pool_tasks = 0;
  double lock_dict_ns = 0, lock_cache_ns = 0, lock_graph_ns = 0;
};

EngineCounters ReadEngineCounters(Engine* engine) {
  rdfql::RegistrySnapshot s = engine->MetricsSnapshot();
  auto hist = [&s](const char* name) {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0 : static_cast<double>(it->second.sum);
  };
  EngineCounters c;
  c.pool_run_ns = hist("pool.run_ns");
  c.pool_delay_ns = hist("pool.queue_delay_ns");
  auto it = s.counters.find("pool.tasks_total");
  c.pool_tasks = it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  c.lock_dict_ns = hist("lock.dictionary_wait_ns");
  c.lock_cache_ns = hist("lock.query_cache_wait_ns");
  c.lock_graph_ns = hist("lock.graph_index_wait_ns");
  return c;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void PrintSelfTimeTable(const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  uint64_t root_ns = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) root_ns += s.duration_ns();
  }
  std::printf("\n%-22s %10s %12s %12s %7s %14s\n", "span", "count",
              "total_ms", "self_ms", "self%", "self_allocs");
  for (const auto& [name, t] : totals) {
    std::printf("%-22s %10llu %12.3f %12.3f %6.2f%% %14llu\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                t.self_ns / 1e6, 100.0 * Ratio(t.self_ns, root_ns),
                static_cast<unsigned long long>(t.allocs));
  }
}

int RunTraced(const Args& args, const Corpus& corpus) {
  const Workload& w = *args.workload;
  std::string error;
  rdfql::ThreadPool shadow_pool(HardwareThreads());
  const bool probed = w.kind != Kind::kIngest;

  // Untraced reference pass for the tracing overhead.
  double untraced_p50_ms;
  {
    Instance inst;
    SetUp(w, args.seed, &inst);
    PassConfig cfg = MainPass(w, args.seconds / 2, nullptr);
    cfg.min_reads = 0;
    PassResult res = Measure(w, args.seed, corpus, &inst, cfg, 0);
    untraced_p50_ms =
        BlockedPercentile(LatenciesNs(Chronological(res, Ops::kReads)), 0.5)
            .value /
        1e6;
  }

  Instance inst, probe;
  if (probed) SetUp(w, args.seed, &probe);
  SetUp(w, args.seed, &inst);
  if (w.kind == Kind::kMix) {
    error = VerifySample(w, &inst, corpus, args.seed, {});
  }
  PassConfig cfg = MainPass(w, args.seconds, probed ? &probe : nullptr);
  cfg.traced = true;
  cfg.min_reads = 0;
  PassRunner runner(w, &inst, corpus, args.seed, &shadow_pool);
  WarmUp(w, &runner);
  const rdfql::QueryCacheStats cs0 =
      inst.cache ? inst.cache->Stats() : rdfql::QueryCacheStats{};
  const EngineCounters ec0 = ReadEngineCounters(inst.engine.get());
  EnableSpans(true);
  PassResult res = runner.Run(cfg);
  EnableSpans(false);
  EngineCounters ec1 = ReadEngineCounters(inst.engine.get());
  rdfql::QueryCacheStats cs1 = inst.cache ? inst.cache->Stats()
                                          : rdfql::QueryCacheStats{};
  if (error.empty()) error = res.error;
  if (error.empty() && w.kind != Kind::kMix) {
    error = VerifySample(w, &inst, corpus, args.seed, res);
  }
  std::string count_error;
  Counts counts = CountPass(w, &inst, corpus, args.seed, &count_error);
  if (error.empty()) error = count_error;

  std::vector<SpanRecord> spans = CollectSpans();
  std::map<std::string, SpanTotals> tot = TotalsByName(spans);
  auto total_ns = [&tot](const char* n) {
    auto it = tot.find(n);
    return it == tot.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  auto mean_ns = [&tot](const char* n) {
    auto it = tot.find(n);
    return it == tot.end() ? 0.0
                           : Ratio(it->second.total_ns, it->second.count);
  };

  // Per request: the Engine::Query span, and the shadow's parse and
  // evaluate when the request missed.
  struct PerRequest {
    uint64_t query = 0, parse = 0, evaluate = 0;
    bool shadowed = false;
  };
  std::unordered_map<uint64_t, PerRequest> per;
  double request_total = 0;
  for (const SpanRecord& s : spans) {
    std::string_view n = s.name;
    if (n == "request") request_total += s.duration_ns();
    if (n == "core.query") per[s.request].query = s.duration_ns();
    if (n == "parser.parse") per[s.request].parse = s.duration_ns();
    if (n == "eval.evaluate") per[s.request].evaluate = s.duration_ns();
    if (n == "shadow") per[s.request].shadowed = true;
  }
  std::vector<double> hit_ns;
  double overhead_sum = 0;
  uint64_t shadowed = 0;
  for (const auto& [id, r] : per) {
    if (r.query == 0) continue;
    if (r.shadowed) {
      overhead_sum += static_cast<double>(r.query) - r.parse - r.evaluate;
      ++shadowed;
    } else {
      hit_ns.push_back(static_cast<double>(r.query));
    }
  }

  uint64_t replays = 0, probe_hits = 0, probe_misses = 0, dedup_rows = 0;
  for (const auto& c : res.clients) {
    replays += c.replays;
    probe_hits += c.probe_hits;
    probe_misses += c.probe_misses;
    dedup_rows += c.replay.dedup_rows;
  }
  const std::vector<Sample> reads = Chronological(res, Ops::kReads);
  double rows = 0;
  for (const Sample& s : reads) rows += static_cast<double>(s.rows) * s.weight;
  const double result_hits =
      static_cast<double>(cs1.result_hits - cs0.result_hits) - probe_hits;
  const double result_misses =
      static_cast<double>(cs1.result_misses - cs0.result_misses) - probe_misses;
  const double plan_hits = static_cast<double>(cs1.plan_hits - cs0.plan_hits);
  const double plan_misses =
      static_cast<double>(cs1.plan_misses - cs0.plan_misses);
  const double per_replay = static_cast<double>(std::max<uint64_t>(replays, 1));
  const double engine_threads = inst.engine->default_threads();
  const double traced_p50_ms =
      BlockedPercentile(LatenciesNs(reads), 0.5).value / 1e6;

  std::printf("workload %s seed %llu (traced): %llu ops in %.3f s, %llu "
              "shadow replays, %zu spans\n",
              w.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(res.Ops()), res.window_s,
              static_cast<unsigned long long>(replays), spans.size());
  std::printf("  read p50: traced %.4f ms, untraced %.4f ms\n", traced_p50_ms,
              untraced_p50_ms);
  PrintSelfTimeTable(spans);

  // Per replayed request, in ms.
  auto replay_ms = [&](const char* span) {
    return total_ns(span) / per_replay / 1e6;
  };
  const double counted_rows = static_cast<double>(counts.rows);
  std::vector<Metric> m;
  auto add = [&m](const char* name, const char* unit, double value) {
    m.push_back({name, unit, value});
  };
  add("parser.parse_us", "us", mean_ns("parser.parse") / 1e3);
  add("core.result_hit_ratio", "ratio",
      Ratio(result_hits, result_hits + result_misses));
  add("core.plan_hit_ratio", "ratio",
      Ratio(plan_hits, plan_hits + plan_misses));
  add("core.hit_us", "us", MedianOf(hit_ns) / 1e3);
  add("core.miss_overhead_us", "us", Ratio(overhead_sum, shadowed) / 1e3);
  add("rdf.scan_ms", "ms", replay_ms("rdf.scan"));
  add("rdf.triples_per_row", "count",
      Ratio(counts.replay.triples_matched, counted_rows));
  add("rdf.reindex_us", "us", mean_ns("rdf.reindex") / 1e3);
  add("rdf.write_us", "us", mean_ns("rdf.write") / 1e3);
  add("eval.evaluate_ms", "ms", mean_ns("eval.evaluate") / 1e6);
  add("eval.parallel_speedup", "ratio",
      engine_threads > 1 ? Ratio(total_ns("eval.evaluate_t1"),
                                 total_ns("eval.evaluate"))
                         : 0.0);
  add("eval.ns_ms", "ms", replay_ms("eval.ns"));
  add("eval.intermediate_rows_per_row", "count",
      Ratio(counts.replay.intermediate_rows, counted_rows));
  add("eval.request_share", "ratio",
      Ratio(total_ns("eval.evaluate") + total_ns("algebra.serialize"),
            request_total));
  add("algebra.join_ms", "ms", replay_ms("algebra.join"));
  add("algebra.union_ms", "ms", replay_ms("algebra.union"));
  add("algebra.minus_ms", "ms", replay_ms("algebra.minus"));
  add("algebra.opt_ms", "ms", replay_ms("algebra.opt"));
  add("algebra.join_dedup_share", "ratio",
      Ratio(total_ns("algebra.join") + total_ns("algebra.dedup"),
            request_total));
  add("algebra.dedup_ns_per_row", "ns",
      Ratio(total_ns("algebra.dedup"), dedup_rows));
  add("algebra.allocs_per_row", "count", Ratio(counts.allocs, counted_rows));
  add("algebra.bytes_per_row", "B", Ratio(counts.bytes, counted_rows));
  add("algebra.serialize_ns_per_row", "ns",
      Ratio(total_ns("algebra.serialize"), rows));
  add("util.pool_busy_frac", "ratio",
      engine_threads > 1 ? Ratio(ec1.pool_run_ns - ec0.pool_run_ns,
                                 res.window_s * 1e9 * engine_threads)
                         : 0.0);
  add("util.pool_queue_delay_ms", "ms",
      Ratio(ec1.pool_delay_ns - ec0.pool_delay_ns,
            ec1.pool_tasks - ec0.pool_tasks) / 1e6);
  add("util.lock_wait_ms.dictionary", "ms",
      (ec1.lock_dict_ns - ec0.lock_dict_ns) / 1e6);
  add("util.lock_wait_ms.query_cache", "ms",
      (ec1.lock_cache_ns - ec0.lock_cache_ns) / 1e6);
  add("util.lock_wait_ms.graph_index", "ms",
      (ec1.lock_graph_ns - ec0.lock_graph_ns) / 1e6);
  add("trace.overhead_p50_ms", "ms", traced_p50_ms - untraced_p50_ms);

  if (!args.trace_out.empty() &&
      !WriteChromeTrace(spans, args.trace_out, kMaxTraceEvents)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  if (!error.empty()) std::printf("INCORRECT: %s\n", error.c_str());
  PrintResult(error.empty(), res.Ops() + res.Failed(), res.Failed(), m);
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  g_process_deadline_ns =
      NowNs() + static_cast<uint64_t>(kProcessBudgetSeconds * 1e9);
  Args args = ParseArgs(argc, argv);
  Corpus corpus = MakeCorpus(args.workload->kind, args.seed);
  return args.trace ? RunTraced(args, corpus) : RunEndToEnd(args, corpus);
}
