#include "eval/explain.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "eval/evaluator.h"
#include "optimize/optimizer.h"
#include "parser/parser.h"
#include "rdf/dot.h"
#include "rdf/ntriples.h"
#include "util/random.h"
#include "workload/graph_generator.h"
#include "workload/pattern_generator.h"

namespace rdfql {
namespace {

class ExplainTest : public ::testing::Test {
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

TEST_F(ExplainTest, RecordsPerOperatorCardinalities) {
  Graph g = Load("a p b .\nc p d .\nb q e .");
  Explanation e =
      ExplainEval(g, Parse("(?x p ?y) AND (?y q ?z)"), dict_);
  EXPECT_EQ(e.result.size(), 1u);
  ASSERT_TRUE(e.plan != nullptr);
  EXPECT_EQ(e.plan->label, "AND");
  EXPECT_EQ(e.plan->cardinality, 1u);
  ASSERT_EQ(e.plan->children.size(), 2u);
  EXPECT_EQ(e.plan->children[0]->cardinality, 2u);  // (?x p ?y)
  EXPECT_EQ(e.plan->children[1]->cardinality, 1u);  // (?y q ?z)
  EXPECT_EQ(e.TotalIntermediate(), 4u);
  std::string text = e.ToString();
  EXPECT_NE(text.find("AND [1]"), std::string::npos);
  EXPECT_NE(text.find("TRIPLE"), std::string::npos);
}

TEST_F(ExplainTest, ResultMatchesEvaluatorOnRandomPatterns) {
  Rng rng(42);
  PatternGenSpec spec;
  spec.allow_opt = spec.allow_filter = spec.allow_select = true;
  spec.allow_minus = spec.allow_ns = true;
  spec.max_depth = 3;
  for (int i = 0; i < 40; ++i) {
    PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
    Graph g = GenerateRandomGraph(12, 4, &dict_, &rng, "ex");
    Explanation e = ExplainEval(g, p, dict_);
    EXPECT_EQ(e.result, EvalPattern(g, p));
    EXPECT_GE(e.TotalIntermediate(), e.result.size());
  }
}

// The optimizer should not increase the intermediate work on its target
// workload (a filter that can be pushed below a join).
TEST_F(ExplainTest, OptimizerReducesIntermediateWork) {
  Graph g;
  for (int i = 0; i < 50; ++i) {
    g.Insert(dict_.InternIri("s" + std::to_string(i)), dict_.InternIri("p"),
             dict_.InternIri("o" + std::to_string(i)));
    g.Insert(dict_.InternIri("s" + std::to_string(i)), dict_.InternIri("q"),
             dict_.InternIri("t"));
  }
  PatternPtr raw = Parse("((?x p ?y) AND (?x q ?z)) FILTER ?x = s0");
  GraphStats stats = GraphStats::Collect(g);
  Optimizer opt(&stats);
  PatternPtr optimized = opt.Optimize(raw);

  Explanation before = ExplainEval(g, raw, dict_);
  Explanation after = ExplainEval(g, optimized, dict_);
  EXPECT_EQ(before.result, after.result);
  EXPECT_LT(after.TotalIntermediate(), before.TotalIntermediate());
}

uint64_t PoolTasks(Engine* engine) {
  return engine->MetricsSnapshot().counters["pool.tasks_total"];
}

// A UNION spine runs as one n-ary node, and EXPLAIN shows it that way.
// The spine is evaluated iteratively in every mode: with metrics on (the
// mode every served query runs in) a 20,000-disjunct chain must not
// recurse once per UNION.
TEST_F(ExplainTest, DeepUnionSpineRunsInEveryMode) {
  constexpr int kDisjuncts = 20'000;
  std::string text = "(?x p ?y)";
  for (int i = 1; i < kDisjuncts; ++i) text += " UNION (?x p ?y)";
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Engine engine;
    ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
    engine.EnableMetrics(true);
    engine.SetDefaultThreads(threads);
    Result<MappingSet> rows = engine.Query("g", text);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 1u);
    RegistrySnapshot snap = engine.MetricsSnapshot();
    EXPECT_EQ(snap.counters["eval.nodes"], kDisjuncts + 1u);
    EXPECT_EQ(snap.counters["eval.index_probes"],
              static_cast<uint64_t>(kDisjuncts));
  }
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
  Result<QueryExplanation> explained = engine.QueryExplained("g", text);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_EQ(explained->result().size(), 1u);
  ASSERT_NE(explained->explanation.plan, nullptr);
  EXPECT_EQ(explained->explanation.plan->label, "UNION");
  EXPECT_EQ(explained->explanation.plan->children.size(),
            static_cast<size_t>(kDisjuncts));
}

// EXPLAIN reports the run users get: at threads=4 it forks exactly the
// pool tasks a plain Query forks, subtrees included.
TEST_F(ExplainTest, EngineExplainForksLikeQuery) {
  const std::string text =
      "((?x p ?y) AND (?y p ?z)) UNION ((?x p ?y) AND (?y q ?z))";
  Engine engine;
  ASSERT_TRUE(
      engine.LoadGraphText("g", "a p b .\nb p c .\nb q d .\nc q e .").ok());
  engine.SetDefaultThreads(4);
  uint64_t before = PoolTasks(&engine);
  Result<MappingSet> rows = engine.Query("g", text);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  uint64_t query_tasks = PoolTasks(&engine) - before;
  before = PoolTasks(&engine);
  Result<QueryExplanation> explained = engine.QueryExplained("g", text);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  uint64_t explain_tasks = PoolTasks(&engine) - before;
  EXPECT_GT(query_tasks, 0u);
  EXPECT_EQ(explain_tasks, query_tasks);
  EXPECT_EQ(explained->result(), *rows);
  ASSERT_NE(explained->explanation.plan, nullptr);
  EXPECT_EQ(explained->explanation.plan->cardinality, rows->size());
  ASSERT_EQ(explained->explanation.plan->children.size(), 2u);
  EXPECT_EQ(explained->explanation.plan->children[0]->label, "AND");
}

TEST_F(ExplainTest, DotExportShapesTheFigure) {
  Graph g = Load("Juan was_born_in Chile .\nJuan email juan@puc.cl .");
  std::string dot = WriteDot(g, dict_);
  EXPECT_NE(dot.find("digraph rdf {"), std::string::npos);
  EXPECT_NE(dot.find("\"was_born_in\""), std::string::npos);
  EXPECT_NE(dot.find("\"Juan\""), std::string::npos);
  // Three distinct nodes (Juan, Chile, juan@puc.cl), two edges.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '>'), 2);
}

}  // namespace
}  // namespace rdfql
