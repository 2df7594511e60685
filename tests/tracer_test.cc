#include "obs/tracer.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "eval/evaluator.h"
#include "eval/explain.h"
#include "eval/wd_evaluator.h"
#include "parser/parser.h"
#include "rdf/ntriples.h"

namespace rdfql {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  PatternPtr Parse(const std::string& text) {
    Result<PatternPtr> r = ParsePattern(text, &dict_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  }
  Graph Load(const char* text) {
    Graph g;
    Status st = ParseNTriples(text, &dict_, &g);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return g;
  }
  Dictionary dict_;
};

TEST_F(TracerTest, SpansNestAndCarryCounters) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "AND");
    {
      ScopedSpan inner(&tracer, "TRIPLE", "(?x p ?y)");
      inner.AddCounter("index_probes", 3);
    }
    outer.AddCounter("join_probes", 7);
    outer.AddCounter("join_probes", 2);
    outer.AddCounter("ignored", 0);  // zero deltas are dropped
  }
  const TraceSpan* root = tracer.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->op, "AND");
  EXPECT_EQ(root->GetCounter("join_probes"), 9u);
  EXPECT_EQ(root->GetCounter("ignored"), 0u);
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_EQ(root->children[0]->op, "TRIPLE");
  EXPECT_EQ(root->children[0]->detail, "(?x p ?y)");
  EXPECT_EQ(root->children[0]->GetCounter("index_probes"), 3u);
  // The child's interval is contained in the parent's.
  EXPECT_GE(root->children[0]->start_ns, root->start_ns);
  EXPECT_LE(root->children[0]->start_ns + root->children[0]->duration_ns,
            root->start_ns + root->duration_ns);
}

TEST_F(TracerTest, NullTracerIsANoOp) {
  ScopedSpan span(nullptr, "AND");
  EXPECT_EQ(span.span(), nullptr);
  span.AddCounter("join_probes", 5);  // must not crash
}

TEST_F(TracerTest, OpCountersSinksNest) {
  EXPECT_EQ(ScopedOpCounters::Current(), nullptr);
  OpCounters outer;
  OpCounters inner;
  {
    ScopedOpCounters install_outer(&outer);
    ScopedOpCounters::Current()->join_probes += 1;
    {
      ScopedOpCounters install_inner(&inner);
      ScopedOpCounters::Current()->join_probes += 10;
    }
    ScopedOpCounters::Current()->join_probes += 1;
  }
  EXPECT_EQ(ScopedOpCounters::Current(), nullptr);
  EXPECT_EQ(outer.join_probes, 2u);   // inner work not double counted
  EXPECT_EQ(inner.join_probes, 10u);
}

TEST_F(TracerTest, SpanTreeMirrorsPatternTree) {
  Graph g = Load("a p b .\nc p d .\nb q e .");
  PatternPtr p = Parse("((?x p ?y) AND (?y q ?z)) FILTER (bound(?x))");
  Tracer tracer;
  EvalOptions options;
  options.tracer = &tracer;
  options.trace_dict = &dict_;
  EvalPattern(g, p, options);
  const TraceSpan* root = tracer.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->op, "FILTER");
  ASSERT_EQ(root->children.size(), 1u);
  const TraceSpan* and_span = root->children[0].get();
  EXPECT_EQ(and_span->op, "AND");
  ASSERT_EQ(and_span->children.size(), 2u);
  EXPECT_EQ(and_span->children[0]->op, "TRIPLE");
  EXPECT_EQ(and_span->children[0]->detail, "(?x p ?y)");
  EXPECT_EQ(and_span->children[1]->op, "TRIPLE");
  // Work lands on the operator that did it, not on its children:
  // the AND probes mapping pairs, the triples probe the index.
  EXPECT_GT(and_span->GetCounter("join_probes"), 0u);
  EXPECT_EQ(and_span->GetCounter("index_probes"), 0u);
  EXPECT_GT(and_span->children[0]->GetCounter("index_probes"), 0u);
  EXPECT_EQ(and_span->children[0]->GetCounter("join_probes"), 0u);
  EXPECT_EQ(and_span->GetCounter("mappings_out"), 1u);
  EXPECT_EQ(and_span->children[0]->GetCounter("mappings_out"), 2u);
  EXPECT_GT(root->GetCounter("filter_evals"), 0u);
}

// Spans are exported from the per-node record after the run, so a
// parallel evaluation still yields one span tree: the UNION spine as one
// n-ary span, every node that ran under its parent, each on a track.
TEST_F(TracerTest, ParallelRunExportsOneSpanTree) {
  Graph g = Load("a p b .\nb p c .\nb q d .");
  Tracer tracer;
  EvalOptions options;
  options.threads = 4;
  options.tracer = &tracer;
  options.trace_dict = &dict_;
  MappingSet rows = EvalPattern(
      g, Parse("((?x p ?y) AND (?y p ?z)) UNION (?x q ?y) UNION (?x p ?y)"),
      options);
  EXPECT_EQ(rows, EvalPattern(g, Parse("((?x p ?y) AND (?y p ?z)) UNION "
                                       "(?x q ?y) UNION (?x p ?y)")));
  ASSERT_EQ(tracer.roots().size(), 1u);
  const TraceSpan* root = tracer.root();
  EXPECT_EQ(root->op, "UNION");
  EXPECT_EQ(root->tid, 1u);
  EXPECT_EQ(root->GetCounter("mappings_out"), rows.size());
  ASSERT_EQ(root->children.size(), 3u);
  EXPECT_EQ(root->children[0]->op, "AND");
  ASSERT_EQ(root->children[0]->children.size(), 2u);
  EXPECT_EQ(root->children[1]->detail, "(?x q ?y)");
  for (const auto& child : root->children) {
    EXPECT_GE(child->tid, 1u);
    EXPECT_GE(child->start_ns, root->start_ns);
  }
}

TEST_F(TracerTest, TreeStringAndChromeJson) {
  Graph g = Load("a p b .\nb q c .");
  Tracer tracer;
  EvalOptions options;
  options.tracer = &tracer;
  options.trace_dict = &dict_;
  EvalPattern(g, Parse("(?x p ?y) AND (?y q ?z)"), options);
  std::string tree = tracer.ToTreeString();
  EXPECT_NE(tree.find("AND"), std::string::npos);
  EXPECT_NE(tree.find("TRIPLE (?x p ?y)"), std::string::npos);
  EXPECT_NE(tree.find("t="), std::string::npos);
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"AND\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// The ISSUE's acceptance criterion: EXPLAIN ANALYZE on a join shows
// per-node wall time and a nonzero join_probes on the AND node.
TEST_F(TracerTest, ExplainAnalyzeShowsTimeAndJoinWork) {
  Graph g = Load("a p b .\nc p d .\nb q e .");
  Explanation e = ExplainEval(g, Parse("(?x p ?y) AND (?y q ?z)"), dict_);
  ASSERT_TRUE(e.plan != nullptr);
  EXPECT_EQ(e.plan->label, "AND");
  EXPECT_GT(e.plan->GetCounter("join_probes"), 0u);
  std::string text = e.ToString();
  EXPECT_NE(text.find("AND [1]"), std::string::npos);
  EXPECT_NE(text.find("t="), std::string::npos);
  EXPECT_NE(text.find("join_probes="), std::string::npos);
}

TEST_F(TracerTest, EngineQueryExplainedReportsPhases) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .\nb q c .").ok());
  Result<QueryExplanation> r =
      engine.QueryExplained("g", "(?x p ?y) AND (?y q ?z)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().result().size(), 1u);
  EXPECT_GT(r.value().eval_ns, 0u);
  std::string text = r.value().ToString();
  EXPECT_NE(text.find("parse:"), std::string::npos);
  EXPECT_NE(text.find("eval:"), std::string::npos);
  EXPECT_NE(text.find("AND [1]"), std::string::npos);
}

TEST_F(TracerTest, WdEvaluatorTracesAndCounts) {
  Graph g = Load("a p b .\nb q c .");
  PatternPtr p = Parse("(?x p ?y) OPT (?y q ?z)");
  Tracer tracer;
  MetricsRegistry metrics;
  Result<MappingSet> r = EvalWellDesignedTopDown(g, p, &tracer, &metrics);
  ASSERT_TRUE(r.ok());
  const TraceSpan* root = tracer.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->op, "WD-TOPDOWN");
  EXPECT_GT(root->GetCounter("index_probes"), 0u);
  RegistrySnapshot snap = metrics.Snapshot();
  EXPECT_GT(snap.counters.at("wd_eval.index_probes"), 0u);
}

}  // namespace
}  // namespace rdfql
