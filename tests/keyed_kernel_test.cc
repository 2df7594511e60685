// The keyed kernels behind ⋈, ∖ and ⟕ (MappingSet::Join, Minus and
// LeftOuterJoin): a probe count that stays linear on skewed inputs, and a
// differential check against nested-loop oracles written from the
// definitions of Section 2.1, serial and on pools of 2, 4 and 8 threads.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "algebra/mapping_set.h"
#include "obs/tracer.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace rdfql {
namespace {

constexpr VarId kS = 0;
constexpr VarId kP = 1;

// Ω1 = 40 rows {?s→sᵢ}; Ω2 = 5,000 rows {?s→tⱼ, ?p→pⱼ}, of which only
// four tⱼ equal some sᵢ.
MappingSet SkewFew() {
  MappingSet s;
  for (TermId i = 0; i < 40; ++i) {
    Mapping m;
    m.Set(kS, 1000 + i);
    s.Add(m);
  }
  return s;
}

MappingSet SkewMany() {
  MappingSet s;
  for (TermId j = 0; j < 5000; ++j) {
    Mapping m;
    m.Set(kS, j < 4 ? 1000 + 10 * j : 100000 + j);
    m.Set(kP, 200000 + j);
    s.Add(m);
  }
  return s;
}

// Ω1 ∖ Ω2 by definition: µ1 survives iff no µ2 ∈ Ω2 is compatible.
MappingSet OracleMinus(const MappingSet& a, const MappingSet& b) {
  MappingSet out;
  for (const Mapping& m1 : a) {
    bool compatible = false;
    for (const Mapping& m2 : b) {
      compatible = compatible || m1.CompatibleWith(m2);
    }
    if (!compatible) out.Add(m1);
  }
  return out;
}

// Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2), both halves by pairwise checks.
MappingSet OracleLeftOuterJoin(const MappingSet& a, const MappingSet& b) {
  MappingSet out;
  for (const Mapping& m1 : a) {
    for (const Mapping& m2 : b) {
      if (m1.CompatibleWith(m2)) out.Add(m1.UnionWith(m2));
    }
  }
  for (const Mapping& m : OracleMinus(a, b)) out.Add(m);
  return out;
}

struct Counted {
  MappingSet result;
  uint64_t probes = 0;
};

template <typename Kernel>
Counted RunCounted(Kernel kernel) {
  OpCounters counters;
  Counted out;
  {
    ScopedOpCounters install(&counters);
    out.result = kernel();
  }
  out.probes = counters.join_probes;
  return out;
}

TEST(KeyedKernelTest, SmallLeftMinusAndOptProbeLinearly) {
  MappingSet few = SkewFew();
  MappingSet many = SkewMany();
  const uint64_t bound = few.size() + many.size();

  Counted minus = RunCounted([&] { return MappingSet::Minus(few, many); });
  EXPECT_LE(minus.probes, bound);
  EXPECT_EQ(minus.result.size(), 36u);
  EXPECT_EQ(minus.result, OracleMinus(few, many));

  Counted opt =
      RunCounted([&] { return MappingSet::LeftOuterJoin(few, many); });
  EXPECT_LE(opt.probes, bound);
  EXPECT_EQ(opt.result.size(), 40u);
  EXPECT_EQ(opt.result, OracleLeftOuterJoin(few, many));
}

TEST(KeyedKernelTest, LargeLeftMinusAndOptProbeLinearly) {
  MappingSet many = SkewMany();
  MappingSet few = SkewFew();
  const uint64_t bound = few.size() + many.size();

  Counted minus = RunCounted([&] { return MappingSet::Minus(many, few); });
  EXPECT_LE(minus.probes, bound);
  EXPECT_EQ(minus.result.size(), 4996u);
  EXPECT_EQ(minus.result, OracleMinus(many, few));

  Counted opt =
      RunCounted([&] { return MappingSet::LeftOuterJoin(many, few); });
  EXPECT_LE(opt.probes, bound);
  EXPECT_EQ(opt.result.size(), 5000u);
  EXPECT_EQ(opt.result, OracleLeftOuterJoin(many, few));
}

// How one side's rows are drawn. Every row binds the `certain` variables;
// each `optional` variable is bound with probability 1/2.
struct Shape {
  std::vector<VarId> certain;
  std::vector<VarId> optional;
  int rows = 0;
  bool add_empty_mapping = false;  // adds µ∅
};

MappingSet RandomSide(const Shape& shape, Rng* rng) {
  MappingSet s;
  if (shape.add_empty_mapping) s.Add(Mapping());
  // Values from a small range so that rows meet; the attempt cap keeps a
  // shape with few distinct rows from looping.
  for (int attempt = 0;
       static_cast<int>(s.size()) < shape.rows && attempt < 20 * shape.rows;
       ++attempt) {
    Mapping m;
    for (VarId v : shape.certain) m.Set(v, rng->NextBelow(24));
    for (VarId v : shape.optional) {
      if (rng->NextBool(0.5)) m.Set(v, rng->NextBelow(3));
    }
    s.Add(m);
  }
  return s;
}

struct DiffCase {
  std::string name;
  Shape left;
  Shape right;
};

std::vector<DiffCase> DiffCases() {
  // ?x is certain on both sides; ?y and ?z are shared but optional, so
  // rows in one bucket can still disagree on them.
  const Shape xyz_small{{0}, {1, 2}, 8};
  const Shape xyz_large{{0}, {1, 2}, 300};
  return {
      {"optional_shared_build_left", xyz_small, xyz_large},
      {"optional_shared_build_right", xyz_large, xyz_small},
      {"optional_shared_equal_sizes", {{0}, {1, 2}, 120}, {{0}, {1, 2}, 120}},
      {"empty_mapping_on_right", xyz_large, {{0}, {1}, 40, true}},
      {"empty_mapping_on_left", {{0}, {1}, 200, true}, xyz_small},
      {"no_shared_variables", {{0, 1}, {}, 150}, {{2}, {3}, 12}},
      {"empty_left", {{0}, {}, 0}, xyz_large},
      {"empty_right", xyz_large, {{0}, {}, 0}},
      {"both_empty", {{0}, {}, 0}, {{0}, {}, 0}},
  };
}

TEST(KeyedKernelTest, MinusAndOptMatchOraclesSerialAndParallel) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int threads : {2, 4, 8}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  const std::vector<DiffCase> cases = DiffCases();
  for (size_t k = 0; k < cases.size(); ++k) {
    const DiffCase& c = cases[k];
    Rng rng(17 + k);
    for (int round = 0; round < 8; ++round) {
      MappingSet a = RandomSide(c.left, &rng);
      MappingSet b = RandomSide(c.right, &rng);
      const std::string where = c.name + " round " + std::to_string(round);

      Counted minus = RunCounted([&] { return MappingSet::Minus(a, b); });
      Counted opt =
          RunCounted([&] { return MappingSet::LeftOuterJoin(a, b); });
      EXPECT_EQ(minus.result, OracleMinus(a, b)) << where;
      EXPECT_EQ(opt.result, OracleLeftOuterJoin(a, b)) << where;
      // ⟕ is its join half followed by its difference half, in that order.
      MappingSet halves = MappingSet::Join(a, b);
      for (const Mapping& m : minus.result) halves.Add(m);
      EXPECT_EQ(opt.result.mappings(), halves.mappings()) << where;

      for (const auto& pool : pools) {
        const std::string at =
            where + " threads " + std::to_string(pool->num_threads());
        Counted pminus =
            RunCounted([&] { return MappingSet::Minus(a, b, pool.get()); });
        Counted popt = RunCounted(
            [&] { return MappingSet::LeftOuterJoin(a, b, pool.get()); });
        EXPECT_EQ(pminus.result.mappings(), minus.result.mappings()) << at;
        EXPECT_EQ(pminus.probes, minus.probes) << at;
        EXPECT_EQ(popt.result.mappings(), opt.result.mappings()) << at;
        EXPECT_EQ(popt.probes, opt.probes) << at;
      }
    }
  }
}

}  // namespace
}  // namespace rdfql
