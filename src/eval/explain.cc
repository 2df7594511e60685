#include "eval/explain.h"

#include "util/check.h"
#include "util/clock.h"

namespace rdfql {
namespace {

size_t Total(const PlanNode& node) {
  size_t n = node.cardinality;
  for (const auto& c : node.children) n += Total(*c);
  return n;
}

void Render(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.label + " [" + std::to_string(node.cardinality) + "]";
  *out += " (t=" + DurationString(node.wall_ns);
  for (const auto& [name, value] : node.counters) {
    if (name == "mappings_out" || value == 0) continue;
    *out += " " + name + "=" + std::to_string(value);
  }
  *out += ")\n";
  for (const auto& c : node.children) Render(*c, depth + 1, out);
}

}  // namespace

uint64_t PlanNode::GetCounter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::unique_ptr<PlanNode> PlanFromRecord(const EvalRecord& record,
                                         const Dictionary& dict) {
  std::unique_ptr<PlanNode> root;
  std::vector<PlanNode*> made(record.nodes.size(), nullptr);
  for (size_t i = 0; i < record.nodes.size(); ++i) {
    const EvalRecord::Node& n = record.nodes[i];
    if (!n.ran()) continue;
    auto node = std::make_unique<PlanNode>();
    node->label = PatternOpName(n.pattern->kind());
    std::string detail = NodeDetail(*n.pattern, &dict);
    if (!detail.empty()) node->label += " " + detail;
    node->cardinality = n.counters.mappings_out;
    node->wall_ns = n.wall_ns;
    node->counters = n.counters.Named();
    made[i] = node.get();
    if (n.parent == EvalRecord::kNoParent) {
      root = std::move(node);
    } else {
      made[n.parent]->children.push_back(std::move(node));
    }
  }
  return root;
}

size_t Explanation::TotalIntermediate() const {
  return plan == nullptr ? 0 : Total(*plan);
}

std::string Explanation::ToString() const {
  return plan == nullptr ? std::string() : PlanToString(*plan);
}

std::string PlanToString(const PlanNode& plan) {
  std::string out;
  Render(plan, 0, &out);
  return out;
}

Explanation ExplainEval(const Graph& graph, const PatternPtr& pattern,
                        const Dictionary& dict, EvalOptions options) {
  RDFQL_CHECK(pattern != nullptr);
  EvalRecord record;
  Explanation explanation;
  explanation.result = Evaluator(&graph, options).Eval(pattern, &record);
  explanation.plan = PlanFromRecord(record, dict);
  return explanation;
}

}  // namespace rdfql
