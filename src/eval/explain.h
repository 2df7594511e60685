#ifndef RDFQL_EVAL_EXPLAIN_H_
#define RDFQL_EVAL_EXPLAIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/mapping_set.h"
#include "algebra/pattern.h"
#include "eval/evaluator.h"
#include "rdf/graph.h"

namespace rdfql {

/// One node of an evaluation trace: the operator, its result cardinality,
/// its wall time and work counters, and its children — the EXPLAIN ANALYZE
/// of the engine. Built from the span tree the tracer records during a
/// real evaluation (not an estimate).
struct PlanNode {
  std::string label;        // e.g. "AND", "TRIPLE (?x a ?y)", "NS"
  size_t cardinality = 0;   // |result| at this node
  uint64_t wall_ns = 0;     // wall-clock time spent in this node's subtree
  /// Work counters recorded at this node (own work, children excluded):
  /// join_probes, index_probes, ns_pairs_compared, filter_evals.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::unique_ptr<PlanNode>> children;

  /// Value of the named counter, 0 if absent.
  uint64_t GetCounter(std::string_view name) const;
};

/// The result of an explained evaluation.
struct Explanation {
  MappingSet result;
  std::unique_ptr<PlanNode> plan;

  /// Total mappings materialized across all operators (a work proxy).
  size_t TotalIntermediate() const;

  /// Renders the plan as an indented tree, one operator per line, with the
  /// cardinality first (the stable part of the contract) and then timing
  /// and work counters:
  ///   AND [12] (t=34.1us join_probes=96)
  ///     TRIPLE (?x a ?y) [30] (t=10.5us index_probes=1)
  ///     ...
  std::string ToString() const;
};

/// Evaluates with the production evaluator under a tracer, recording every
/// operator's output cardinality, wall time and work counters. Used by the
/// shell's `explain` command and the optimizer tests (intermediate-size
/// assertions). `options`' tracer/trace_dict fields are overridden; join
/// and NS algorithm choices are honored.
Explanation ExplainEval(const Graph& graph, const PatternPtr& pattern,
                        const Dictionary& dict, EvalOptions options = {});

/// Converts a recorded span (tree) into a PlanNode tree; exposed for
/// callers that run their own tracer (the engine's EXPLAIN run).
std::unique_ptr<PlanNode> PlanFromSpan(const TraceSpan& span);

/// A duration as "850ns", "12.3us" or "4.5ms" — the one formatter behind
/// the plan tree's `t=` figures and the engine's EXPLAIN header.
std::string DurationString(uint64_t ns);

}  // namespace rdfql

#endif  // RDFQL_EVAL_EXPLAIN_H_
