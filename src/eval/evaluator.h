#ifndef RDFQL_EVAL_EVALUATOR_H_
#define RDFQL_EVAL_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "algebra/mapping_set.h"
#include "algebra/pattern.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "rdf/graph.h"
#include "rdf/static_graph.h"
#include "util/limits.h"
#include "util/profile_state.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rdfql {

/// Per-query use of the engine's query cache (plan or result side).
/// kDefault follows the attached cache's configuration; kOff bypasses the
/// cache for this query (counted as a bypass when both sides are off).
enum class CacheMode { kDefault, kOff };

/// Tunables for the evaluator — the pairs of algorithms back the ablation
/// benchmarks (E15/E16 in DESIGN.md) — plus the observability opt-ins.
struct EvalOptions {
  enum class Join {
    kHash,        // partition on certainly-shared variables
    kNestedLoop,  // reference pairwise join
    // For (P AND t) with t a triple pattern: probe the graph indexes once
    // per left mapping with the bound positions substituted (binding
    // propagation), instead of materializing ⟦t⟧G and joining. Falls back
    // to the hash join for non-triple right-hand sides.
    //
    // Note on OPT: the index-join shortcut is deliberately NOT taken for
    // the join half of (P1 OPT P2) even when P2 is a triple pattern. OPT
    // is computed as (P1 ⋈ P2) ∪ (P1 ∖ P2) and the difference half needs
    // ⟦P2⟧G materialized regardless, so probing the index for the join
    // half would evaluate P2's matches a second time — strictly more work
    // for identical results. evaluator_test.cc (OptAgreesAcrossJoin
    // Strategies) asserts the strategies agree on OPT patterns.
    kIndexNestedLoop,
  };
  enum class NsAlgo { kBucketed, kNaive };

  Join join = Join::kHash;
  NsAlgo ns = NsAlgo::kBucketed;

  // --- Parallelism (opt-in; default is the bit-for-bit serial path) ---
  /// Number of evaluation threads. 1 (the default) is exactly the serial
  /// evaluator: no pool, no forks, byte-identical results and counters.
  /// With threads > 1 the hot kernels (hash join probes, MINUS scans,
  /// bucketed NS pruning) split their input across a thread pool and the
  /// independent AND/UNION/OPT/MINUS subtrees evaluate concurrently.
  /// Results are merged deterministically (chunk/insertion order), so any
  /// thread count produces the same MappingSet — content and iteration
  /// order — and the same work counters as threads = 1.
  int threads = 1;
  /// Optional externally owned pool to run on (so repeated evaluations
  /// don't pay thread startup). If null and threads > 1, the Evaluator
  /// constructs a private pool of `threads` threads for its lifetime.
  /// Ignored when threads <= 1.
  ThreadPool* pool = nullptr;

  // --- Observability (opt-in views of the run's EvalRecord) ---
  /// When set, the record is exported as spans after the run, on the
  /// calling thread. The tracer must outlive the evaluation.
  Tracer* tracer = nullptr;
  /// When set, the record's totals are added once per evaluation to this
  /// registry under `eval.*` names (see docs/observability.md).
  MetricsRegistry* metrics = nullptr;
  /// Dictionary for human-readable span labels ("(?x p ?y)"). Optional;
  /// without it spans carry only the operator kind.
  const Dictionary* trace_dict = nullptr;
  /// When set, the evaluation runs under this accountant: every MappingSet
  /// insert/destruction (intermediates included, on every pool thread) and
  /// the NS kernel's scratch report to it, so live/peak mapping and byte
  /// figures cover the whole query. The result set is detached before it is
  /// returned — its memory counts toward the peak but not the final live
  /// figure, and the escaping set holds no pointer to the accountant.
  ResourceAccountant* accountant = nullptr;
  /// Consumed by the Engine's text-query entry points (the evaluator
  /// itself never touches them): per-query use of the engine's attached
  /// QueryCache. See CacheMode; the plan cache skips re-parsing, the
  /// result cache serves materialized answers keyed by (query hash, graph
  /// name, graph epoch, options fingerprint).
  CacheMode use_plan_cache = CacheMode::kDefault;
  CacheMode use_result_cache = CacheMode::kDefault;

  // --- Resource governance (opt-in; see docs/robustness.md) ---
  /// Budgets enforced by EvalChecked/EvalMaxChecked: wall clock, live
  /// mappings and approximate bytes (max_ast_nodes only concerns the
  /// translation pipeline). The plain Eval/EvalMax entry points ignore
  /// these fields — they cannot report an error.
  ResourceLimits limits;
  /// Absolute deadline; combined with limits.max_wall_ms (whichever fires
  /// first). Default: never.
  Deadline deadline;
  /// Optional caller-owned token: Cancel() from any thread aborts the
  /// evaluation with kCancelled at the next checkpoint. When set, it is
  /// also the token deadline/cap violations trip, so the caller can watch
  /// one object. When null, EvalChecked uses a private token.
  CancellationToken* cancel = nullptr;

  bool governed() const {
    return cancel != nullptr || !deadline.infinite() || limits.Enforced();
  }
};

/// One evaluation's per-node record, the source of EXPLAIN, the slow-query
/// log, the `eval.*` metrics and tracer spans. Nodes are numbered in
/// pre-order; a maximal UNION spine is one n-ary node over its disjuncts,
/// as the evaluator runs it. Each node writes only its own slot, on the
/// thread that runs it, so parallel subtrees need no merging.
struct EvalRecord {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  struct Node {
    const Pattern* pattern = nullptr;
    uint32_t parent = kNoParent;
    uint32_t end = 0;         // one past the last descendant's id
    std::thread::id thread;   // the thread that ran it; none if it never ran
    uint64_t start_ns = 0;    // SteadyNowNs() when the node started
    uint64_t wall_ns = 0;     // the node's wall time, children included
    OpCounters counters;      // own work; mappings_out is the rows out

    bool ran() const { return thread != std::thread::id(); }
  };
  std::vector<Node> nodes;

  /// Numbers `root`'s nodes afresh, iteratively (UCQ spines run tens of
  /// thousands of nodes deep).
  void Build(const Pattern& root);
  /// Adds every node that ran as a span under the tracer's innermost open
  /// span, labelled through `dict` (may be null).
  void ExportSpans(Tracer* tracer, const Dictionary* dict) const;
};

/// Bottom-up evaluator implementing ⟦P⟧G exactly as defined in Section 2.1
/// of the paper (plus NS from Section 5.1 and the derived MINUS of
/// Appendix D). The evaluator is the library's semantic ground truth: every
/// transformation and every reduction is tested against it.
class Evaluator {
 public:
  /// A storage probe: same contract as Graph::Match / StaticGraph::Match.
  using Matcher = std::function<size_t(
      TermId, TermId, TermId, const std::function<void(const Triple&)>&)>;

  explicit Evaluator(const Graph* graph, EvalOptions options = {})
      : matcher_([graph](TermId s, TermId p, TermId o,
                         const std::function<void(const Triple&)>& fn) {
          return graph->Match(s, p, o, fn);
        }),
        options_(options) {
    InitPool();
  }

  /// Evaluates directly against the immutable CSR store.
  explicit Evaluator(const StaticGraph* graph, EvalOptions options = {})
      : matcher_([graph](TermId s, TermId p, TermId o,
                         const std::function<void(const Triple&)>& fn) {
          return graph->Match(s, p, o, fn);
        }),
        options_(options) {
    InitPool();
  }

  // Every entry point fills `record` when given (a private one otherwise).

  /// ⟦P⟧G.
  MappingSet Eval(const PatternPtr& pattern,
                  EvalRecord* record = nullptr) const {
    return EvalRecorded(pattern, /*max=*/false, record);
  }

  /// ⟦P⟧max_G — the maximal answers (Section 5.1).
  MappingSet EvalMax(const PatternPtr& pattern,
                     EvalRecord* record = nullptr) const {
    return EvalRecorded(pattern, /*max=*/true, record);
  }

  /// ⟦P⟧G under the options' resource governance: enforces
  /// options.limits / options.deadline / options.cancel cooperatively and
  /// returns kDeadlineExceeded / kResourceExhausted / kCancelled instead of
  /// a truncated result. With no governance configured this is exactly
  /// Eval() wrapped in an always-OK Result. Results are bit-identical to
  /// Eval() whenever no limit trips.
  Result<MappingSet> EvalChecked(const PatternPtr& pattern,
                                 EvalRecord* record = nullptr) const {
    return EvalGoverned(pattern, /*max=*/false, record);
  }

  /// EvalMax with the same governance contract as EvalChecked.
  Result<MappingSet> EvalMaxChecked(const PatternPtr& pattern,
                                    EvalRecord* record = nullptr) const {
    return EvalGoverned(pattern, /*max=*/true, record);
  }

 private:
  Result<MappingSet> EvalGoverned(const PatternPtr& pattern, bool max,
                                  EvalRecord* record) const;
  /// Resolves options_.threads/pool into pool_ (see EvalOptions::pool).
  void InitPool();
  /// Builds the record, evaluates it under options_.accountant (plus NS for
  /// ⟦P⟧max_G) and renders the metrics and tracer views.
  MappingSet EvalRecorded(const PatternPtr& pattern, bool max,
                          EvalRecord* record) const;
  /// The one dispatch: times record node `id`, with its slot installed as
  /// the thread's counter sink.
  MappingSet EvalNode(EvalRecord* rec, uint32_t id) const;
  MappingSet EvalOperator(EvalRecord* rec, uint32_t id) const;
  /// Whether independent subtrees may evaluate concurrently: a pool is
  /// available. Callers fall back to direct EvalNode calls otherwise —
  /// inline, so the serial path adds no stack frame per tree level.
  bool ParallelSubtrees() const { return pool_ != nullptr; }
  /// Evaluates the binary node `id`'s two subtrees into *l / *r on the
  /// pool; call only when ParallelSubtrees() holds.
  void EvalBranches(EvalRecord* rec, uint32_t id, MappingSet* l,
                    MappingSet* r) const;
  /// Evaluates the disjuncts of the n-ary UNION node `id` (concurrently
  /// when ParallelSubtrees() holds) and folds them left to right; the
  /// record flattened the spine, so its length costs no stack depth.
  MappingSet EvalUnionSpine(EvalRecord* rec, uint32_t id) const;
  MappingSet EvalTriple(const TriplePattern& t) const;
  MappingSet IndexJoinWithTriple(const MappingSet& left,
                                 const TriplePattern& t) const;
  MappingSet ApplyNs(const MappingSet& input) const;

  Matcher matcher_;
  EvalOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  /// Null on the serial path; the active pool when threads > 1.
  ThreadPool* pool_ = nullptr;
  /// Snapshot of ProfilingEnabled() at construction: per-node profile
  /// frames key off one member test, so with profiling off the dispatch
  /// path carries no atomic load — and a profiler starting mid-query
  /// simply sees this query's frames from the next query on.
  bool profiled_ = ProfilingEnabled();
};

/// One-shot convenience wrapper.
MappingSet EvalPattern(const Graph& graph, const PatternPtr& pattern,
                       EvalOptions options = {});

/// The operator's display name ("TRIPLE", "AND", ...), shared by spans and
/// EXPLAIN output.
const char* PatternOpName(PatternKind kind);

/// A node's label detail ("(?x p ?y)" for triples, the condition for
/// FILTER, the projection for SELECT); empty for other operators or
/// without a dictionary.
std::string NodeDetail(const Pattern& p, const Dictionary* dict);

}  // namespace rdfql

#endif  // RDFQL_EVAL_EVALUATOR_H_
