#include "eval/evaluator.h"

#include <optional>
#include <thread>

#include "algebra/pattern_printer.h"
#include "eval/ns.h"
#include "util/check.h"
#include "util/clock.h"

namespace rdfql {

const char* PatternOpName(PatternKind kind) {
  switch (kind) {
    case PatternKind::kTriple:
      return "TRIPLE";
    case PatternKind::kAnd:
      return "AND";
    case PatternKind::kUnion:
      return "UNION";
    case PatternKind::kOpt:
      return "OPT";
    case PatternKind::kMinus:
      return "MINUS";
    case PatternKind::kFilter:
      return "FILTER";
    case PatternKind::kSelect:
      return "SELECT";
    case PatternKind::kNs:
      return "NS";
  }
  return "?";
}

std::string NodeDetail(const Pattern& p, const Dictionary* dict) {
  if (dict == nullptr) return "";
  switch (p.kind()) {
    case PatternKind::kTriple:
      return TriplePatternToString(p.triple(), *dict);
    case PatternKind::kFilter:
      return p.condition()->ToString(*dict);
    case PatternKind::kSelect: {
      std::string vars;
      for (VarId v : p.projection()) vars += " ?" + dict->VarName(v);
      return "{" + (vars.empty() ? "" : vars.substr(1)) + "}";
    }
    default:
      return "";
  }
}

void EvalRecord::Build(const Pattern& root) {
  nodes.clear();
  // Pre-order via an explicit stack (children pushed right to left). A
  // UNION inside a spine gets no node: its operands join the spine.
  struct Item {
    const Pattern* pattern;
    uint32_t parent;
    bool in_spine;
  };
  std::vector<Item> stack{{&root, kNoParent, false}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const Pattern& p = *item.pattern;
    const bool is_union = p.kind() == PatternKind::kUnion;
    uint32_t id = item.parent;
    if (!(is_union && item.in_spine)) {
      id = static_cast<uint32_t>(nodes.size());
      Node& node = nodes.emplace_back();
      node.pattern = &p;
      node.parent = item.parent;
      node.end = id + 1;
    }
    switch (p.kind()) {
      case PatternKind::kTriple:
        break;
      case PatternKind::kFilter:
      case PatternKind::kSelect:
      case PatternKind::kNs:
        stack.push_back({p.child().get(), id, false});
        break;
      default:
        stack.push_back({p.right().get(), id, is_union});
        stack.push_back({p.left().get(), id, is_union});
    }
  }
  // Descendants follow their ancestor, so a backward pass propagates ends.
  for (size_t i = nodes.size(); i-- > 1;) {
    Node& parent = nodes[nodes[i].parent];
    if (nodes[i].end > parent.end) parent.end = nodes[i].end;
  }
}

void EvalRecord::ExportSpans(Tracer* tracer, const Dictionary* dict) const {
  // Track 1 is the thread that ran the root; other threads get the next
  // free track as they first appear.
  std::vector<std::pair<std::thread::id, uint32_t>> tracks;
  auto track = [&tracks](std::thread::id thread) {
    for (const auto& [t, k] : tracks) {
      if (t == thread) return k;
    }
    tracks.emplace_back(thread, static_cast<uint32_t>(tracks.size()) + 1);
    return tracks.back().second;
  };
  std::vector<TraceSpan*> spans(nodes.size(), nullptr);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (!n.ran()) continue;
    TraceSpan* parent = n.parent == kNoParent ? nullptr : spans[n.parent];
    spans[i] = tracer->AddSpan(parent, PatternOpName(n.pattern->kind()),
                               NodeDetail(*n.pattern, dict), n.start_ns,
                               n.wall_ns, track(n.thread));
    n.counters.AttachTo(spans[i]);
  }
}

void Evaluator::InitPool() {
  if (options_.threads <= 1) return;
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
    return;
  }
  owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
  pool_ = owned_pool_.get();
}

Result<MappingSet> Evaluator::EvalGoverned(const PatternPtr& pattern,
                                           bool max,
                                           EvalRecord* record) const {
  if (!options_.governed()) {
    // Nothing to enforce: take the plain path (no token install, so the
    // per-operator checkpoints stay a null test).
    return EvalRecorded(pattern, max, record);
  }
  CancellationToken local_token;
  CancellationToken* token =
      options_.cancel != nullptr ? options_.cancel : &local_token;
  if (token->cancelled()) return token->status();
  Deadline deadline = options_.deadline;
  if (options_.limits.max_wall_ms != 0) {
    Deadline budget = Deadline::AfterMs(options_.limits.max_wall_ms);
    if (budget.SoonerThan(deadline)) deadline = budget;
  }
  token->ArmDeadline(deadline);
  // Live-memory caps ride on the accountant; conjure a private one when the
  // caller wants caps but no figures.
  bool memory_caps = options_.limits.max_live_mappings != 0 ||
                     options_.limits.max_bytes != 0;
  ResourceAccountant local_acct;
  ResourceAccountant* acct = options_.accountant;
  if (acct == nullptr && memory_caps) acct = &local_acct;
  if (acct != nullptr && memory_caps) {
    acct->ArmCaps(options_.limits.max_live_mappings, options_.limits.max_bytes,
                  token);
  }
  std::optional<ScopedAccounting> install_acct;
  if (acct != nullptr) install_acct.emplace(acct);
  ScopedCancellation install_token(token);
  MappingSet result = EvalRecorded(pattern, max, record);
  if (acct != nullptr) acct->DisarmCaps();
  if (token->cancelled()) return token->status();
  return result;
}

MappingSet Evaluator::ApplyNs(const MappingSet& input) const {
  return options_.ns == EvalOptions::NsAlgo::kBucketed
             ? RemoveSubsumedBucketed(input, pool_)
             : RemoveSubsumedNaive(input);
}

MappingSet Evaluator::EvalRecorded(const PatternPtr& pattern, bool max,
                                   EvalRecord* record) const {
  RDFQL_CHECK(pattern != nullptr);
  // Install only a non-null accountant: options_.accountant == nullptr must
  // not shadow one a caller (or EvalGoverned) put up around this run.
  std::optional<ScopedAccounting> install;
  if (options_.accountant != nullptr) install.emplace(options_.accountant);
  EvalRecord local;
  if (record == nullptr) record = &local;
  record->Build(*pattern);
  MappingSet result = EvalNode(record, 0);
  if (max) result = ApplyNs(result);
  result.DetachAccounting();
  if (MetricsRegistry* m = options_.metrics) {
    OpCounters t;
    uint64_t nodes_run = 0;
    for (const EvalRecord::Node& n : record->nodes) {
      nodes_run += n.ran();
      t.join_probes += n.counters.join_probes;
      t.index_probes += n.counters.index_probes;
      t.ns_pairs_compared += n.counters.ns_pairs_compared;
      t.filter_evals += n.counters.filter_evals;
      t.mappings_out += n.counters.mappings_out;
    }
    m->GetCounter("eval.nodes")->Inc(nodes_run);
    m->GetCounter("eval.join_probes")->Inc(t.join_probes);
    m->GetCounter("eval.index_probes")->Inc(t.index_probes);
    m->GetCounter("eval.ns_pairs_compared")->Inc(t.ns_pairs_compared);
    m->GetCounter("eval.filter_evals")->Inc(t.filter_evals);
    m->GetCounter("eval.mappings_out")->Inc(t.mappings_out);
  }
  if (options_.tracer != nullptr) {
    record->ExportSpans(options_.tracer, options_.trace_dict);
  }
  return result;
}

void Evaluator::EvalBranches(EvalRecord* rec, uint32_t id, MappingSet* l,
                             MappingSet* r) const {
  // The serial fallback stays at the call sites: an extra frame per tree
  // level would cost deep patterns stack. Each branch writes only its own
  // record slots, so nothing needs merging after the join.
  const uint32_t left = id + 1;
  const uint32_t right = rec->nodes[left].end;
  pool_->ParallelFor(2, [&](size_t i) {
    (i == 0 ? *l : *r) = EvalNode(rec, i == 0 ? left : right);
  });
}

MappingSet Evaluator::EvalUnionSpine(EvalRecord* rec, uint32_t id) const {
  std::vector<uint32_t> disjuncts;
  for (uint32_t c = id + 1; c < rec->nodes[id].end; c = rec->nodes[c].end) {
    disjuncts.push_back(c);
  }
  std::vector<MappingSet> parts(disjuncts.size());
  if (ParallelSubtrees()) {
    pool_->ParallelFor(disjuncts.size(), [&](size_t i) {
      parts[i] = EvalNode(rec, disjuncts[i]);
    });
  } else {
    for (size_t i = 0; i < disjuncts.size(); ++i) {
      parts[i] = EvalNode(rec, disjuncts[i]);
    }
  }
  // Folding left to right with the deduplicating Add reproduces exactly
  // what the recursive UnionSets nest would: first occurrence wins, in
  // disjunct order.
  MappingSet out;
  for (const MappingSet& part : parts) {
    for (const Mapping& m : part) out.Add(m);
  }
  return out;
}

MappingSet Evaluator::IndexJoinWithTriple(const MappingSet& left,
                                          const TriplePattern& t) const {
  MappingSet out;
  uint64_t probes = 0;
  uint64_t pairs = 0;
  uint64_t visited = 0;
  for (const Mapping& m : left) {
    if ((++visited & 1023u) == 0 && !CooperativeCheckpoint()) break;
    // Substitute the bound variables of µ into the triple pattern and
    // probe the graph index with the resulting prefix.
    auto position = [&m](Term term) -> TermId {
      if (term.is_iri()) return term.iri();
      std::optional<TermId> v = m.Get(term.var());
      return v.has_value() ? *v : kInvalidTermId;
    };
    ++probes;
    matcher_(
        position(t.s), position(t.p), position(t.o),
        [&t, &m, &out, &pairs](const Triple& match) {
          ++pairs;
          Mapping extended = m;
          bool ok = true;
          auto bind = [&extended, &ok](Term term, TermId value) {
            if (!term.is_var() || !ok) return;
            std::optional<TermId> existing = extended.Get(term.var());
            if (existing.has_value()) {
              if (*existing != value) ok = false;
            } else {
              extended.Set(term.var(), value);
            }
          };
          bind(t.s, match.s);
          bind(t.p, match.p);
          bind(t.o, match.o);
          if (ok) out.Add(extended);
        });
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->index_probes += probes;
    oc->join_probes += pairs;
  }
  return out;
}

MappingSet Evaluator::EvalTriple(const TriplePattern& t) const {
  MappingSet out;
  TermId s = t.s.is_iri() ? t.s.iri() : kInvalidTermId;
  TermId p = t.p.is_iri() ? t.p.iri() : kInvalidTermId;
  TermId o = t.o.is_iri() ? t.o.iri() : kInvalidTermId;

  matcher_(s, p, o, [&t, &out](const Triple& match) {
    // Build µ with dom(µ) = var(t); repeated variables must agree.
    Mapping m;
    bool ok = true;
    auto bind = [&m, &ok](Term term, TermId value) {
      if (!term.is_var() || !ok) return;
      std::optional<TermId> existing = m.Get(term.var());
      if (existing.has_value()) {
        if (*existing != value) ok = false;
      } else {
        m.Set(term.var(), value);
      }
    };
    bind(t.s, match.s);
    bind(t.p, match.p);
    bind(t.o, match.o);
    if (ok) out.Add(m);
  });
  if (OpCounters* oc = ScopedOpCounters::Current()) ++oc->index_probes;
  return out;
}

MappingSet Evaluator::EvalNode(EvalRecord* rec, uint32_t id) const {
  // Mirrors the node's operator into the sampling profiler's tag stack, so
  // folded stacks read Engine::Query;Eval;AND;TRIPLE like a Chrome trace.
  ProfileFrame profile_frame(
      profiled_ ? PatternOpName(rec->nodes[id].pattern->kind()) : nullptr);
  EvalRecord::Node& node = rec->nodes[id];
  node.thread = std::this_thread::get_id();
  node.start_ns = SteadyNowNs();
  MappingSet result;
  {
    // Children install their own slots: this one sees only own work.
    ScopedOpCounters install(&node.counters);
    result = EvalOperator(rec, id);
  }
  node.counters.mappings_out = result.size();
  node.wall_ns = SteadyNowNs() - node.start_ns;
  return result;
}

MappingSet Evaluator::EvalOperator(EvalRecord* rec, uint32_t id) const {
  // The per-operator cooperative checkpoint. Ungoverned queries pay one
  // relaxed load + null test here (bench_limits_overhead keeps it honest);
  // once a token trips, every remaining operator short-circuits to an empty
  // set and EvalChecked turns the trip into the query's error.
  if (!CooperativeCheckpoint()) [[unlikely]] {
    return MappingSet();
  }
  const Pattern& p = *rec->nodes[id].pattern;
  switch (p.kind()) {
    case PatternKind::kTriple:
      return EvalTriple(p.triple());
    case PatternKind::kAnd: {
      if (options_.join == EvalOptions::Join::kIndexNestedLoop &&
          p.right()->kind() == PatternKind::kTriple) {
        MappingSet l = EvalNode(rec, id + 1);
        ProfileFrame join_frame(profiled_ ? "JoinIndexNested" : nullptr);
        return IndexJoinWithTriple(l, p.right()->triple());
      }
      MappingSet l, r;
      if (ParallelSubtrees()) {
        EvalBranches(rec, id, &l, &r);
      } else {
        l = EvalNode(rec, id + 1);
        r = EvalNode(rec, rec->nodes[id + 1].end);
      }
      if (options_.join == EvalOptions::Join::kNestedLoop) {
        ProfileFrame join_frame(profiled_ ? "JoinNested" : nullptr);
        return MappingSet::JoinNestedLoop(l, r);
      }
      ProfileFrame join_frame(profiled_ ? "JoinHash" : nullptr);
      return MappingSet::Join(l, r, pool_);
    }
    case PatternKind::kUnion:
      return EvalUnionSpine(rec, id);
    case PatternKind::kOpt: {
      // The difference half of ⟕ = ⋈ ∪ ∖ needs ⟦P2⟧G materialized whatever
      // the join strategy, so the index-join shortcut never pays here (see
      // the note on EvalOptions::Join::kIndexNestedLoop in evaluator.h).
      MappingSet l, r;
      if (ParallelSubtrees()) {
        EvalBranches(rec, id, &l, &r);
      } else {
        l = EvalNode(rec, id + 1);
        r = EvalNode(rec, rec->nodes[id + 1].end);
      }
      if (options_.join == EvalOptions::Join::kNestedLoop) {
        // The reference ablation spells ⟕ out: the pairwise join, then the
        // Ω1 rows the difference keeps appended in Ω1 order.
        ProfileFrame join_frame(profiled_ ? "JoinNested" : nullptr);
        MappingSet out = MappingSet::JoinNestedLoop(l, r);
        for (const Mapping& m : MappingSet::Minus(l, r, pool_)) out.Add(m);
        return out;
      }
      // One keyed pass: the joined rows, then the unmatched Ω1 rows.
      ProfileFrame join_frame(profiled_ ? "JoinHash" : nullptr);
      return MappingSet::LeftOuterJoin(l, r, pool_);
    }
    case PatternKind::kMinus: {
      MappingSet l, r;
      if (ParallelSubtrees()) {
        EvalBranches(rec, id, &l, &r);
      } else {
        l = EvalNode(rec, id + 1);
        r = EvalNode(rec, rec->nodes[id + 1].end);
      }
      return MappingSet::Minus(l, r, pool_);
    }
    case PatternKind::kFilter: {
      MappingSet in = EvalNode(rec, id + 1);
      MappingSet out;
      for (const Mapping& m : in) {
        if (p.condition()->Eval(m)) out.Add(m);
      }
      if (OpCounters* oc = ScopedOpCounters::Current()) {
        oc->filter_evals += in.size();
      }
      return out;
    }
    case PatternKind::kSelect: {
      MappingSet in = EvalNode(rec, id + 1);
      MappingSet out;
      for (const Mapping& m : in) {
        out.Add(m.RestrictTo(p.projection()));
      }
      return out;
    }
    case PatternKind::kNs:
      return ApplyNs(EvalNode(rec, id + 1));
  }
  RDFQL_CHECK_MSG(false, "unreachable");
  return MappingSet();
}

MappingSet EvalPattern(const Graph& graph, const PatternPtr& pattern,
                       EvalOptions options) {
  return Evaluator(&graph, options).Eval(pattern);
}

}  // namespace rdfql
