#ifndef RDFQL_ALGEBRA_MAPPING_SET_H_
#define RDFQL_ALGEBRA_MAPPING_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/mapping.h"
#include "obs/accounting.h"

namespace rdfql {

class ThreadPool;

/// A set of mappings Ω, the result type of SPARQL graph-pattern evaluation.
///
/// Set semantics with deterministic iteration order (insertion order) so
/// results print stably. Each mapping is stored once; duplicates are found
/// through a flat open-addressing index of row numbers, not a second copy. Implements the four algebra operators of
/// Section 2.1 — join ⋈, union ∪, difference ∖ and left-outer join ⟕ —
/// and the subsumption preorder Ω1 ⊑ Ω2 of Section 3.1.
class MappingSet {
 public:
  MappingSet() = default;
  ~MappingSet() { DetachAccounting(); }

  /// Copies re-account their mappings against the accountant installed at
  /// copy time; moves carry the source's accounting along (and leave the
  /// source empty and unaccounted).
  MappingSet(const MappingSet& other);
  MappingSet& operator=(const MappingSet& other);
  MappingSet(MappingSet&& other) noexcept;
  MappingSet& operator=(MappingSet&& other) noexcept;

  /// Builds from a list (duplicates collapse).
  static MappingSet FromList(const std::vector<Mapping>& mappings);

  /// Adds µ; returns true if it was new.
  bool Add(const Mapping& m);
  bool Add(Mapping&& m);

  bool Contains(const Mapping& m) const;

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  const std::vector<Mapping>& mappings() const { return items_; }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  /// Ω1 ⋈ Ω2 = { µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ∼ µ2 }.
  ///
  /// Join, Minus and LeftOuterJoin share one keyed kernel. It builds a
  /// flat hash table on the smaller side, keyed on the variables bound in
  /// *every* mapping of both sides (the certain shared variables), and
  /// gives each candidate from the table the full compatibility check, so
  /// it is correct for heterogeneous domains. With no such variable (for
  /// instance when µ∅ is on either side) the table is one bucket and the
  /// probe is the nested loop.
  ///
  /// With a non-null `pool` the probe side is split into contiguous chunks
  /// evaluated across the pool's threads; chunk outputs are concatenated in
  /// chunk order before the deduplicating insert, so the result — content
  /// *and* iteration order — and the join_probes count are the serial
  /// ones regardless of scheduling. A null pool (the default) is the
  /// serial path.
  static MappingSet Join(const MappingSet& a, const MappingSet& b,
                         ThreadPool* pool = nullptr);

  /// Reference nested-loop join (baseline for the join ablation bench).
  static MappingSet JoinNestedLoop(const MappingSet& a, const MappingSet& b);

  /// Ω1 ∪ Ω2.
  static MappingSet UnionSets(const MappingSet& a, const MappingSet& b);

  /// Ω1 ∖ Ω2 = { µ ∈ Ω1 | ∀ µ' ∈ Ω2 : µ ≁ µ' }, as a hash anti-join.
  /// Built on Ω2, each Ω1 row stops at its first compatible candidate;
  /// built on Ω1 (the smaller side), each Ω2 row marks the Ω1 rows it is
  /// compatible with. Survivors come out in Ω1 order. Same parallel
  /// contract as Join; per-chunk bitmaps are OR'ed in chunk order.
  static MappingSet Minus(const MappingSet& a, const MappingSet& b,
                          ThreadPool* pool = nullptr);

  /// Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2), in one pass over one table: the
  /// joined rows first (as Join orders them), then the Ω1 rows with no
  /// compatible partner, in Ω1 order. Same parallel contract as Join.
  static MappingSet LeftOuterJoin(const MappingSet& a, const MappingSet& b,
                                  ThreadPool* pool = nullptr);

  /// Ω1 ⊑ Ω2: every µ1 ∈ Ω1 is subsumed by some µ2 ∈ Ω2.
  static bool Subsumed(const MappingSet& a, const MappingSet& b);

  /// Set equality.
  friend bool operator==(const MappingSet& a, const MappingSet& b);
  friend bool operator!=(const MappingSet& a, const MappingSet& b) {
    return !(a == b);
  }

  /// Renders the mappings, one per line, sorted for stability.
  std::string ToString(const Dictionary& dict) const;

  /// Approximate resident bytes of the mappings — the sum of the same
  /// per-mapping estimate the ResourceAccountant charges. Feeds the query
  /// cache's result byte budgets.
  size_t ApproxBytes() const;

  /// Returns this set's memory to its accountant (if any) and stops
  /// reporting. The evaluator detaches a query's result set before handing
  /// it out, so per-query peaks cover intermediates plus the result but
  /// the escaping set never holds a pointer to a dead accountant.
  void DetachAccounting();

 private:
  /// Charges one freshly inserted mapping of `bytes` to the accountant.
  /// Latches (accountant, epoch) on first use; a latched set whose
  /// accountant was Reset since goes silent rather than corrupting the new
  /// epoch's live counts.
  void AccountAdd(size_t bytes) {
    if (acct_ == nullptr) {
      ResourceAccountant* cur = ResourceAccountant::Current();
      if (cur == nullptr) [[likely]] {
        return;
      }
      acct_ = cur;
      acct_epoch_ = cur->epoch();
    }
    if (acct_->epoch() != acct_epoch_) return;
    acct_->OnAdd(1, bytes);
    ++acct_mappings_;
    acct_bytes_ += bytes;
  }

  /// One slot of the dedup index: a row's 32-bit hash and its position in
  /// items_ plus one (0 marks an empty slot).
  struct Slot {
    uint32_t hash = 0;
    uint32_t row = 0;
  };

  /// Position of the slot holding a row equal to µ, or of the empty slot
  /// where µ would go. Requires a non-empty index.
  size_t FindSlot(const Mapping& m, uint32_t hash) const;

  /// Doubles the index (linear probing, at most half full), re-placing
  /// rows by their stored hashes.
  void GrowIndex();

  template <typename M>
  bool AddImpl(M&& m);

  std::vector<Mapping> items_;
  std::vector<Slot> index_;

  ResourceAccountant* acct_ = nullptr;
  uint64_t acct_epoch_ = 0;
  uint64_t acct_mappings_ = 0;
  uint64_t acct_bytes_ = 0;
};

}  // namespace rdfql

#endif  // RDFQL_ALGEBRA_MAPPING_SET_H_
