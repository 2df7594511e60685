#include "eval/reference_evaluator.h"

#include <optional>
#include <vector>

#include "obs/tracer.h"
#include "util/check.h"
#include "util/limits.h"

namespace rdfql {
namespace {

using Rows = std::vector<Mapping>;

// Extends `m` with term := value; returns nullopt on clash.
std::optional<Mapping> Bind(Mapping m, Term term, TermId value) {
  if (term.is_iri()) {
    return term.iri() == value ? std::optional<Mapping>(m) : std::nullopt;
  }
  std::optional<TermId> existing = m.Get(term.var());
  if (existing.has_value()) {
    if (*existing != value) return std::nullopt;
    return m;
  }
  m.Set(term.var(), value);
  return m;
}

Rows EvalTriple(const Graph& g, const TriplePattern& t) {
  Rows out;
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->index_probes += g.size();
  }
  for (const Triple& triple : g.triples()) {
    std::optional<Mapping> m = Bind(Mapping(), t.s, triple.s);
    if (m) m = Bind(*m, t.p, triple.p);
    if (m) m = Bind(*m, t.o, triple.o);
    if (m) out.push_back(*m);
  }
  return out;
}

Rows Eval(const Graph& g, const Pattern& p);

Rows Join(const Rows& a, const Rows& b) {
  Rows out;
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->join_probes += static_cast<uint64_t>(a.size()) * b.size();
  }
  for (const Mapping& m1 : a) {
    for (const Mapping& m2 : b) {
      if (m1.CompatibleWith(m2)) out.push_back(m1.UnionWith(m2));
    }
  }
  return out;
}

Rows Difference(const Rows& a, const Rows& b) {
  Rows out;
  uint64_t pairs = 0;
  for (const Mapping& m1 : a) {
    bool clash = false;
    for (const Mapping& m2 : b) {
      ++pairs;
      if (m1.CompatibleWith(m2)) {
        clash = true;
        break;
      }
    }
    if (!clash) out.push_back(m1);
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) oc->join_probes += pairs;
  return out;
}

Rows Eval(const Graph& g, const Pattern& p) {
  // Same cooperative contract as the production evaluator: once a token
  // installed by an enclosing scope trips, every node yields nothing and
  // the caller must treat the result as void (see ReferenceEval's header).
  if (!CooperativeCheckpoint()) [[unlikely]] {
    return Rows();
  }
  switch (p.kind()) {
    case PatternKind::kTriple:
      return EvalTriple(g, p.triple());
    case PatternKind::kAnd:
      return Join(Eval(g, *p.left()), Eval(g, *p.right()));
    case PatternKind::kUnion: {
      Rows out = Eval(g, *p.left());
      Rows right = Eval(g, *p.right());
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }
    case PatternKind::kOpt: {
      Rows l = Eval(g, *p.left());
      Rows r = Eval(g, *p.right());
      Rows out = Join(l, r);
      Rows bare = Difference(l, r);
      out.insert(out.end(), bare.begin(), bare.end());
      return out;
    }
    case PatternKind::kMinus:
      return Difference(Eval(g, *p.left()), Eval(g, *p.right()));
    case PatternKind::kFilter: {
      Rows out;
      for (const Mapping& m : Eval(g, *p.child())) {
        if (p.condition()->Eval(m)) out.push_back(m);
      }
      return out;
    }
    case PatternKind::kSelect: {
      Rows out;
      for (const Mapping& m : Eval(g, *p.child())) {
        out.push_back(m.RestrictTo(p.projection()));
      }
      return out;
    }
    case PatternKind::kNs: {
      Rows in = Eval(g, *p.child());
      Rows out;
      uint64_t pairs = 0;
      for (size_t i = 0; i < in.size(); ++i) {
        bool subsumed = false;
        for (size_t j = 0; j < in.size(); ++j) {
          if (i == j) continue;
          ++pairs;
          if (in[i].ProperlySubsumedBy(in[j])) {
            subsumed = true;
            break;
          }
        }
        if (!subsumed) out.push_back(in[i]);
      }
      if (OpCounters* oc = ScopedOpCounters::Current()) {
        oc->ns_pairs_compared += pairs;
      }
      return out;
    }
  }
  RDFQL_CHECK_MSG(false, "unreachable");
  return Rows();
}

}  // namespace

MappingSet ReferenceEval(const Graph& graph, const PatternPtr& pattern,
                         Tracer* tracer) {
  RDFQL_CHECK(pattern != nullptr);
  ScopedSpan span(tracer, "REFERENCE");
  OpCounters counters;
  MappingSet result;
  {
    ScopedOpCounters install(&counters);
    result = MappingSet::FromList(Eval(graph, *pattern));
  }
  counters.mappings_out = result.size();
  counters.AttachTo(span.span());
  return result;
}

}  // namespace rdfql
