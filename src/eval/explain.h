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

/// One node of an evaluated plan: the operator, its result cardinality,
/// its wall time and work counters, and its children — the EXPLAIN ANALYZE
/// of the engine. Built from the EvalRecord of a real evaluation (not an
/// estimate), at whatever thread count it ran.
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

/// Evaluates with the production evaluator and renders its record: every
/// operator's output cardinality, wall time and work counters. Used by the
/// shell's `explain` command and the optimizer tests (intermediate-size
/// assertions). Every option is honored, threads included.
Explanation ExplainEval(const Graph& graph, const PatternPtr& pattern,
                        const Dictionary& dict, EvalOptions options = {});

/// Renders a plan as Explanation::ToString does.
std::string PlanToString(const PlanNode& plan);

/// The plan tree of a recorded evaluation (its nodes that ran), labelled
/// through `dict`; null when the record's root never ran.
std::unique_ptr<PlanNode> PlanFromRecord(const EvalRecord& record,
                                         const Dictionary& dict);

}  // namespace rdfql

#endif  // RDFQL_EVAL_EXPLAIN_H_
