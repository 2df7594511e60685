#include "replay.h"

#include <optional>

#include "bench_lib.h"
#include "eval/ns.h"

namespace perfbench {
namespace {

using rdfql::Mapping;
using rdfql::MappingSet;
using rdfql::Pattern;
using rdfql::PatternKind;

MappingSet Scan(const rdfql::Graph& graph, const rdfql::TriplePattern& t,
                ReplayCounts* counts) {
  Span span("rdf.scan");
  auto id = [](rdfql::Term term) {
    return term.is_iri() ? term.iri() : rdfql::kInvalidTermId;
  };
  MappingSet out;
  counts->triples_matched +=
      graph.Match(id(t.s), id(t.p), id(t.o), [&](const rdfql::Triple& match) {
        // dom(µ) = var(t); a repeated variable must bind one value.
        Mapping m;
        bool ok = true;
        auto bind = [&](rdfql::Term term, rdfql::TermId value) {
          if (!ok || !term.is_var()) return;
          std::optional<rdfql::TermId> existing = m.Get(term.var());
          if (!existing.has_value()) {
            m.Set(term.var(), value);
          } else if (*existing != value) {
            ok = false;
          }
        };
        bind(t.s, match.s);
        bind(t.p, match.p);
        bind(t.o, match.o);
        if (ok) out.Add(m);
      });
  return out;
}

// Ω1 ⋈ Ω2, then the output once more through the deduplicating insert.
MappingSet Join(const MappingSet& l, const MappingSet& r,
                ReplayCounts* counts) {
  MappingSet out;
  {
    Span span("algebra.join");
    out = MappingSet::Join(l, r);
  }
  Span span("algebra.dedup");
  MappingSet again = MappingSet::FromList(out.mappings());
  counts->dedup_rows += out.size();
  return out;
}

}  // namespace

MappingSet ReplayPattern(const rdfql::Graph& graph, const Pattern& p,
                         ReplayCounts* counts) {
  MappingSet out;
  switch (p.kind()) {
    case PatternKind::kTriple:
      out = Scan(graph, p.triple(), counts);
      break;
    case PatternKind::kAnd: {
      MappingSet l = ReplayPattern(graph, *p.left(), counts);
      MappingSet r = ReplayPattern(graph, *p.right(), counts);
      out = Join(l, r, counts);
      break;
    }
    case PatternKind::kUnion: {
      MappingSet l = ReplayPattern(graph, *p.left(), counts);
      MappingSet r = ReplayPattern(graph, *p.right(), counts);
      Span span("algebra.union");
      out = MappingSet::UnionSets(l, r);
      break;
    }
    case PatternKind::kOpt: {
      // Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2), one kernel call per part as
      // the evaluator makes them, so the difference half shows as
      // algebra.minus inside algebra.opt.
      MappingSet l = ReplayPattern(graph, *p.left(), counts);
      MappingSet r = ReplayPattern(graph, *p.right(), counts);
      Span span("algebra.opt");
      MappingSet joined = Join(l, r, counts);
      MappingSet rest;
      {
        Span minus("algebra.minus");
        rest = MappingSet::Minus(l, r);
      }
      Span union_span("algebra.union");
      out = MappingSet::UnionSets(joined, rest);
      break;
    }
    case PatternKind::kMinus: {
      MappingSet l = ReplayPattern(graph, *p.left(), counts);
      MappingSet r = ReplayPattern(graph, *p.right(), counts);
      Span span("algebra.minus");
      out = MappingSet::Minus(l, r);
      break;
    }
    case PatternKind::kNs: {
      MappingSet in = ReplayPattern(graph, *p.child(), counts);
      Span span("eval.ns");
      out = rdfql::RemoveSubsumedBucketed(in);
      break;
    }
    case PatternKind::kFilter: {
      MappingSet in = ReplayPattern(graph, *p.child(), counts);
      Span span("eval.filter");
      for (const Mapping& m : in) {
        if (p.condition()->Eval(m)) out.Add(m);
      }
      break;
    }
    case PatternKind::kSelect: {
      MappingSet in = ReplayPattern(graph, *p.child(), counts);
      Span span("eval.select");
      for (const Mapping& m : in) out.Add(m.RestrictTo(p.projection()));
      break;
    }
  }
  counts->intermediate_rows += out.size();
  return out;
}

}  // namespace perfbench
