#include "algebra/mapping_set.h"

#include <algorithm>

#include "obs/tracer.h"
#include "util/limits.h"
#include "util/thread_pool.h"

namespace rdfql {
namespace {

// How many units of work (probe rows and candidate pairs) a kernel runs
// between cooperative checkpoints. Power of two so the test compiles to a mask; small enough
// that a tripped token stops a quadratic scan promptly, large enough that
// the ungoverned cost (a relaxed load) vanishes in the loop body.
constexpr uint64_t kCheckpointStride = 1024;

// Below this many probe-side (resp. left-side) mappings the fork/join
// overhead outweighs the work; the kernels stay serial. The threshold only
// affects scheduling, never results — outputs are scheduling-independent.
constexpr size_t kParallelKernelMinInput = 64;

// Chunk layout for a parallel kernel: `chunks` contiguous ranges covering
// [0, n), each at least kParallelKernelMinInput/2 long, at most 4 per
// thread so the atomic claim cursor balances uneven chunks.
size_t NumChunks(size_t n, int threads) {
  size_t by_threads = static_cast<size_t>(threads) * 4;
  size_t by_size = n / (kParallelKernelMinInput / 2);
  size_t chunks = std::min(by_threads, by_size);
  return chunks < 2 ? 2 : chunks;
}

bool UseParallel(ThreadPool* pool, size_t n) {
  return pool != nullptr && pool->num_threads() > 1 &&
         n >= kParallelKernelMinInput;
}

// Variables bound in every mapping of both sides (the certain shared
// variables), intersected in place over each mapping's sorted bindings.
std::vector<VarId> SharedCertainVars(const MappingSet& a,
                                     const MappingSet& b) {
  std::vector<VarId> vars;
  if (a.empty() || b.empty()) return vars;
  for (const auto& [v, t] : a.begin()->bindings()) vars.push_back(v);
  auto keep_bound = [&vars](const Mapping& m) {
    const auto& bindings = m.bindings();
    size_t kept = 0;
    size_t j = 0;
    for (VarId v : vars) {
      while (j < bindings.size() && bindings[j].first < v) ++j;
      if (j < bindings.size() && bindings[j].first == v) vars[kept++] = v;
    }
    vars.resize(kept);
    return kept > 0;
  };
  for (const Mapping& m : a) {
    if (!keep_bound(m)) return vars;
  }
  for (const Mapping& m : b) {
    if (!keep_bound(m)) return vars;
  }
  return vars;
}

// A flat, read-only hash table over the rows of one operand, keyed on the
// certain shared variables. One counting sort groups the rows by the top
// bits of their key hash: bucket s owns entries_[offsets_[s],
// offsets_[s + 1]), and rows keep their input order inside a bucket, so
// candidates come out in build-side order. Two arrays whatever the size:
// no node and no vector per bucket. With an empty key every row hashes
// alike and the table is one bucket, so a probe is the nested loop.
class KeyTable {
 public:
  KeyTable(const std::vector<Mapping>& rows, const std::vector<VarId>& key)
      : key_(key) {
    int bits = 1;
    while ((size_t{1} << bits) < rows.size()) ++bits;
    shift_ = 64 - bits;
    offsets_.assign((size_t{1} << bits) + 1, 0);
    std::vector<uint64_t> hashes(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      hashes[i] = Hash(rows[i]);
      ++offsets_[hashes[i] >> shift_];
    }
    // Inclusive prefix sums leave each bucket's end in offsets_[s]; placing
    // rows back to front walks every offset down to its bucket's start.
    size_t end = 0;
    for (size_t s = 0; s + 1 < offsets_.size(); ++s) {
      end += offsets_[s];
      offsets_[s] = end;
    }
    offsets_.back() = end;
    entries_.resize(rows.size());
    for (size_t i = rows.size(); i-- > 0;) {
      entries_[--offsets_[hashes[i] >> shift_]] = {hashes[i], i};
    }
  }

  // Hash of µ restricted to the key (key ⊆ dom(µ) guaranteed by caller).
  uint64_t Hash(const Mapping& m) const {
    const auto& bindings = m.bindings();
    uint64_t h = 0x243f6a8885a308d3ULL;
    size_t j = 0;
    for (VarId v : key_) {
      while (bindings[j].first < v) ++j;
      h = (h ^ bindings[j].second) * 0x9e3779b97f4a7c15ULL;
    }
    return h;
  }

  // Calls visit(row) for each row whose key hash is `hash`, in row order,
  // until visit returns false.
  template <typename Visit>
  void ForEachCandidate(uint64_t hash, Visit visit) const {
    size_t s = hash >> shift_;
    for (size_t e = offsets_[s]; e < offsets_[s + 1]; ++e) {
      if (entries_[e].hash == hash && !visit(entries_[e].row)) return;
    }
  }

 private:
  struct Entry {
    uint64_t hash;
    size_t row;
  };

  const std::vector<VarId>& key_;
  int shift_ = 63;
  std::vector<size_t> offsets_;
  std::vector<Entry> entries_;
};

enum class KeyedOp { kJoin, kMinus, kLeftOuterJoin };

// What one contiguous range of probe rows produced.
struct ProbeChunk {
  std::vector<Mapping> joined;  // parallel runs only; serial adds in place
  std::vector<size_t> unmatched;  // Ω1 rows with no partner (built on Ω2)
  std::vector<uint64_t> matched;  // bitmap of Ω1 rows with one (built on Ω1)
  uint64_t probes = 0;
};

// ⋈, ∖ and ⟕ as one keyed pass. The table is built on the smaller side;
// every candidate it yields still gets the full compatibility check, since
// optional variables and hash collisions share buckets.
//   - Built on Ω2: each Ω1 row probes; ∖ stops at its first compatible
//     candidate, ⟕ joins with every one. Unmatched rows are kept in order.
//   - Built on Ω1: each Ω2 row probes and marks the Ω1 rows it meets.
//     Every candidate is counted whether or not it is already marked, so
//     join_probes does not depend on the scan's chunking.
// The output is the joined rows in probe order, then the Ω1 rows without
// a compatible partner in Ω1 order. Parallel runs split the probe side
// into chunks whose joined rows, unmatched lists and bitmaps merge in
// chunk order: content, order and join_probes equal the serial run's.
MappingSet KeyedPass(KeyedOp op, const MappingSet& a, const MappingSet& b,
                     ThreadPool* pool) {
  MappingSet out;
  if (a.empty() || (b.empty() && op == KeyedOp::kJoin)) return out;
  std::vector<VarId> key = SharedCertainVars(a, b);
  // Without a key the pass is the nested loop. Building on Ω2 keeps the
  // difference's early exit, and the join's output in Ω1-major order.
  const bool build_left = !key.empty() && a.size() <= b.size();
  const std::vector<Mapping>& left = a.mappings();
  const std::vector<Mapping>& build = build_left ? left : b.mappings();
  const std::vector<Mapping>& probe = build_left ? b.mappings() : left;
  const KeyTable table(build, key);
  // Built on Ω1, the ∖ and ⟕ halves mark matched Ω1 rows in a bitmap.
  const bool marks = build_left && op != KeyedOp::kJoin;

  auto run = [&](size_t lo, size_t hi, ProbeChunk& chunk, auto emit) {
    // Checkpoints count candidates as well as probe rows, so one large
    // bucket (or a cross product) is not a long stretch without a poll.
    uint64_t work = 0;
    bool stopped = false;
    auto tick = [&work, &stopped] {
      if ((++work & (kCheckpointStride - 1)) == 0 &&
          !CooperativeCheckpoint()) {
        stopped = true;
      }
      return !stopped;
    };
    for (size_t i = lo; i < hi && tick(); ++i) {
      const Mapping& p = probe[i];
      bool found = false;
      table.ForEachCandidate(table.Hash(p), [&](size_t j) {
        ++chunk.probes;
        uint64_t* word = marks ? &chunk.matched[j / 64] : nullptr;
        const uint64_t bit = uint64_t{1} << (j % 64);
        // An Ω1 row the difference already ruled out needs no recheck.
        if (op == KeyedOp::kMinus && word != nullptr && (*word & bit) != 0) {
          return tick();
        }
        if (p.CompatibleWith(build[j])) {
          found = true;
          if (word != nullptr) *word |= bit;
          if (op != KeyedOp::kMinus) {
            emit(p.UnionWith(build[j]));
          } else if (!build_left) {
            return false;  // one partner rules this Ω1 row out
          }
        }
        return tick();
      });
      if (stopped) break;
      if (!build_left && op != KeyedOp::kJoin && !found) {
        chunk.unmatched.push_back(i);
      }
    }
  };

  // A cross product stays serial, so the accountant sees each row as it
  // is made and a memory cap trips before the product is buffered.
  const bool parallel = UseParallel(pool, probe.size()) &&
                        (!key.empty() || op == KeyedOp::kMinus);
  std::vector<ProbeChunk> chunks(
      parallel ? NumChunks(probe.size(), pool->num_threads()) : 1);
  if (marks) {
    for (ProbeChunk& chunk : chunks) {
      chunk.matched.assign((left.size() + 63) / 64, 0);
    }
  }
  if (parallel) {
    pool->ParallelFor(chunks.size(), [&](size_t c) {
      // Per-chunk cooperative checkpoint: once the query's token trips,
      // remaining chunks become no-ops (the whole result is discarded).
      if (!CooperativeCheckpoint()) return;
      ProbeChunk& chunk = chunks[c];
      run(probe.size() * c / chunks.size(),
          probe.size() * (c + 1) / chunks.size(), chunk,
          [&chunk](Mapping&& m) { chunk.joined.push_back(std::move(m)); });
    });
    for (ProbeChunk& chunk : chunks) {
      for (Mapping& m : chunk.joined) out.Add(std::move(m));
    }
  } else {
    run(0, probe.size(), chunks[0],
        [&out](Mapping&& m) { out.Add(std::move(m)); });
  }

  uint64_t probes = 0;
  for (const ProbeChunk& chunk : chunks) probes += chunk.probes;
  if (marks) {
    std::vector<uint64_t>& matched = chunks[0].matched;
    for (size_t c = 1; c < chunks.size(); ++c) {
      for (size_t w = 0; w < matched.size(); ++w) {
        matched[w] |= chunks[c].matched[w];
      }
    }
    for (size_t i = 0; i < left.size(); ++i) {
      if ((matched[i / 64] >> (i % 64) & 1) == 0) out.Add(left[i]);
    }
  } else if (op != KeyedOp::kJoin) {
    for (const ProbeChunk& chunk : chunks) {
      for (size_t i : chunk.unmatched) out.Add(left[i]);
    }
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) oc->join_probes += probes;
  return out;
}

}  // namespace

MappingSet MappingSet::FromList(const std::vector<Mapping>& mappings) {
  MappingSet out;
  for (const Mapping& m : mappings) out.Add(m);
  return out;
}

size_t MappingSet::FindSlot(const Mapping& m, uint32_t hash) const {
  const size_t mask = index_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const Slot& slot = index_[s];
    if (slot.row == 0 ||
        (slot.hash == hash && items_[slot.row - 1] == m)) {
      return s;
    }
  }
}

void MappingSet::GrowIndex() {
  std::vector<Slot> old = std::move(index_);
  index_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = index_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.row == 0) continue;
    size_t s = slot.hash & mask;
    while (index_[s].row != 0) s = (s + 1) & mask;
    index_[s] = slot;
  }
}

bool MappingSet::Contains(const Mapping& m) const {
  if (index_.empty()) return false;
  return index_[FindSlot(m, static_cast<uint32_t>(m.Hash()))].row != 0;
}

template <typename M>
bool MappingSet::AddImpl(M&& m) {
  if ((items_.size() + 1) * 2 > index_.size()) GrowIndex();
  const uint32_t hash = static_cast<uint32_t>(m.Hash());
  Slot& slot = index_[FindSlot(m, hash)];
  if (slot.row != 0) return false;
  slot = {hash, static_cast<uint32_t>(items_.size() + 1)};
  AccountAdd(m.ApproxBytes());
  items_.push_back(std::forward<M>(m));
  return true;
}

bool MappingSet::Add(const Mapping& m) { return AddImpl(m); }

bool MappingSet::Add(Mapping&& m) { return AddImpl(std::move(m)); }

MappingSet::MappingSet(const MappingSet& other)
    : items_(other.items_), index_(other.index_) {
  // A copy is a fresh allocation: charge it in full to whichever
  // accountant is installed *now* (e.g. UnionSets copying its left input
  // inside an accounted evaluation).
  if (ResourceAccountant::Current() == nullptr) return;
  for (const Mapping& m : items_) AccountAdd(m.ApproxBytes());
}

MappingSet& MappingSet::operator=(const MappingSet& other) {
  if (this == &other) return *this;
  DetachAccounting();
  items_ = other.items_;
  index_ = other.index_;
  if (ResourceAccountant::Current() != nullptr) {
    for (const Mapping& m : items_) AccountAdd(m.ApproxBytes());
  }
  return *this;
}

MappingSet::MappingSet(MappingSet&& other) noexcept
    : items_(std::move(other.items_)),
      index_(std::move(other.index_)),
      acct_(other.acct_),
      acct_epoch_(other.acct_epoch_),
      acct_mappings_(other.acct_mappings_),
      acct_bytes_(other.acct_bytes_) {
  other.items_.clear();
  other.index_.clear();
  other.acct_ = nullptr;
  other.acct_mappings_ = 0;
  other.acct_bytes_ = 0;
}

MappingSet& MappingSet::operator=(MappingSet&& other) noexcept {
  if (this == &other) return *this;
  DetachAccounting();
  items_ = std::move(other.items_);
  index_ = std::move(other.index_);
  acct_ = other.acct_;
  acct_epoch_ = other.acct_epoch_;
  acct_mappings_ = other.acct_mappings_;
  acct_bytes_ = other.acct_bytes_;
  other.items_.clear();
  other.index_.clear();
  other.acct_ = nullptr;
  other.acct_mappings_ = 0;
  other.acct_bytes_ = 0;
  return *this;
}

void MappingSet::DetachAccounting() {
  if (acct_ != nullptr && acct_->epoch() == acct_epoch_) {
    acct_->OnRemove(acct_mappings_, acct_bytes_);
  }
  acct_ = nullptr;
  acct_mappings_ = 0;
  acct_bytes_ = 0;
}

MappingSet MappingSet::Join(const MappingSet& a, const MappingSet& b,
                            ThreadPool* pool) {
  return KeyedPass(KeyedOp::kJoin, a, b, pool);
}

MappingSet MappingSet::JoinNestedLoop(const MappingSet& a,
                                      const MappingSet& b) {
  MappingSet out;
  uint64_t visited = 0;
  bool cancelled = false;
  for (const Mapping& m1 : a) {
    // Cross products make the *pair* the unit of work: striding on the
    // outer loop alone would let a handful of wide rows run unchecked
    // (and unaccounted) for seconds between polls.
    for (const Mapping& m2 : b) {
      if ((++visited & (kCheckpointStride - 1)) == 0 &&
          !CooperativeCheckpoint()) {
        cancelled = true;
        break;
      }
      if (m1.CompatibleWith(m2)) out.Add(m1.UnionWith(m2));
    }
    if (cancelled) break;
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->join_probes += static_cast<uint64_t>(a.size()) * b.size();
  }
  return out;
}

MappingSet MappingSet::UnionSets(const MappingSet& a, const MappingSet& b) {
  MappingSet out = a;
  for (const Mapping& m : b) out.Add(m);
  return out;
}

MappingSet MappingSet::Minus(const MappingSet& a, const MappingSet& b,
                             ThreadPool* pool) {
  return KeyedPass(KeyedOp::kMinus, a, b, pool);
}

MappingSet MappingSet::LeftOuterJoin(const MappingSet& a, const MappingSet& b,
                                     ThreadPool* pool) {
  return KeyedPass(KeyedOp::kLeftOuterJoin, a, b, pool);
}

bool MappingSet::Subsumed(const MappingSet& a, const MappingSet& b) {
  for (const Mapping& m1 : a) {
    bool found = false;
    for (const Mapping& m2 : b) {
      if (m1.SubsumedBy(m2)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

bool operator==(const MappingSet& a, const MappingSet& b) {
  if (a.size() != b.size()) return false;
  for (const Mapping& m : a) {
    if (!b.Contains(m)) return false;
  }
  return true;
}

std::string MappingSet::ToString(const Dictionary& dict) const {
  std::vector<Mapping> sorted = items_;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const Mapping& m : sorted) {
    out += m.ToString(dict);
    out += '\n';
  }
  return out;
}

size_t MappingSet::ApproxBytes() const {
  size_t bytes = 0;
  for (const Mapping& m : items_) bytes += m.ApproxBytes();
  return bytes;
}

}  // namespace rdfql
