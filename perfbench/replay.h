#ifndef RDFQL_PERFBENCH_REPLAY_H_
#define RDFQL_PERFBENCH_REPLAY_H_

#include <cstdint>

#include "algebra/mapping_set.h"
#include "algebra/pattern.h"
#include "rdf/graph.h"

namespace perfbench {

/// Work counted by one operator-by-operator replay.
struct ReplayCounts {
  uint64_t triples_matched = 0;    // triples Graph::Match handed back
  uint64_t intermediate_rows = 0;  // sum of every operator's output size
  uint64_t dedup_rows = 0;         // join outputs re-deduplicated
};

/// Re-evaluates `pattern` bottom-up, one public kernel call per operator:
/// Graph::Match for triple patterns, MappingSet::Join / UnionSets / Minus
/// (OPT as join ∪ difference, under an algebra.opt span),
/// RemoveSubsumedBucketed for NS, and the FILTER/SELECT loops the
/// evaluator runs. Each call runs under its own span (rdf.scan,
/// algebra.join, algebra.union, algebra.minus, eval.ns, eval.filter,
/// eval.select), and every join's output is fed once more through
/// MappingSet::FromList under algebra.dedup to time deduplication on its
/// own. Serial; the result must equal ⟦pattern⟧G.
rdfql::MappingSet ReplayPattern(const rdfql::Graph& graph,
                                const rdfql::Pattern& pattern,
                                ReplayCounts* counts);

}  // namespace perfbench

#endif  // RDFQL_PERFBENCH_REPLAY_H_
