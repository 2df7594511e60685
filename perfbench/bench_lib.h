#ifndef RDFQL_PERFBENCH_BENCH_LIB_H_
#define RDFQL_PERFBENCH_BENCH_LIB_H_

// The benchmark's own arithmetic and instrumentation: percentile
// selection, order-independent result digests, benchmark-side spans with
// per-span allocation counts, self-time tables and Chrome-trace export.
// Everything here is measured from outside the library: spans wrap calls
// into rdfql's public functions, never code inside src/.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/mapping_set.h"
#include "rdf/dictionary.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

// --- Percentiles -----------------------------------------------------------

/// Samples a percentile needs beyond it before it is reported.
inline constexpr size_t kMinSamplesBeyond = 10;

struct PercentileResult {
  double value = 0.0;      // nearest-rank percentile of the samples
  size_t beyond = 0;       // samples strictly above the selected rank
  bool supported = false;  // beyond >= kMinSamplesBeyond
};

/// Nearest-rank percentile `q` in (0, 1] of `samples` (any order). The
/// result is marked supported only when at least kMinSamplesBeyond samples
/// lie beyond the selected rank; an empty input is unsupported.
PercentileResult SelectPercentile(std::vector<double> samples, double q);

/// Median (mean of the middle two for an even count); 0 when empty.
double MedianOf(std::vector<double> values);

/// Percentile of a series in the order it was measured, made robust to a
/// slow stretch of the run: the series is cut into 5 (else 3) consecutive
/// blocks of equal size when every block's percentile is supported, and
/// the result is the median of the blocks' percentiles, with `beyond` the
/// fewest samples beyond in any block. When no split keeps every block
/// supported, it is the plain SelectPercentile of the whole series.
PercentileResult BlockedPercentile(const std::vector<double>& chronological,
                                   double q);

/// Median rate over consecutive blocks of a run. `end_ns` are the events'
/// completion times from the start of the window (ascending), `weights`
/// what each event counts for (1 for operations, its rows for rows). The
/// events are cut into `blocks` runs of equal count; a block's rate is its
/// summed weight per second between the previous block's last completion
/// (the window start for the first) and its own. Block boundaries fall on
/// multiples of `granule` events, so that with a stream made of rounds of
/// `granule` operations every block holds whole rounds; the events after
/// the last whole granule are left out. Fewer granules than blocks give
/// one block.
double MedianBlockRate(const std::vector<uint64_t>& end_ns,
                       const std::vector<double>& weights, size_t blocks,
                       size_t granule = 1);

// --- Digests ---------------------------------------------------------------

/// A response's identity for correctness checks: its row count plus an
/// order-independent hash of its rows (sum of per-row hashes, so row order
/// does not matter but duplicate rows do).
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.rows == b.rows && a.hash == b.hash;
  }
  friend bool operator!=(const Digest& a, const Digest& b) {
    return !(a == b);
  }
};

/// One row as (variable, value) cells; cell order is irrelevant.
using Row = std::vector<std::pair<std::string, std::string>>;

/// Digest of explicit rows.
Digest DigestRows(const std::vector<Row>& rows);

/// Digest of a MappingSet (names resolved through `dict`).
Digest DigestOf(const rdfql::MappingSet& set, const rdfql::Dictionary& dict);

/// Digest of a W3C SPARQL JSON results document as Engine::QueryJson
/// writes it. Fails (nullopt) on text that is not such a document.
std::optional<Digest> DigestOfJson(std::string_view json);

/// Fast hash of a whole response's bytes, used to check that every repeat
/// of a (query, graph version) pair returns identical output.
uint64_t BytesHash(std::string_view bytes);

// --- Spans -----------------------------------------------------------------

/// One finished span. `parent` indexes the same SpanLog snapshot (-1 for a
/// root); `allocs` counts heap allocations made on the span's thread while
/// it was the innermost open span (its self allocations).
struct SpanRecord {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  uint32_t thread = 0;
  uint64_t allocs = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Heap allocations made so far on the calling thread (maintained by the
/// replaced global operator new in alloc_count.cc).
uint64_t ThreadAllocations();

/// Starts recording spans on every thread (off by default; a Span opened
/// while recording is off costs one flag test).
void EnableSpans(bool on);

/// RAII span around a call into one layer. `name` must be a string literal
/// (it is stored by pointer). A span opened with request 0 inherits the
/// enclosing span's request id.
class Span {
 public:
  Span(const char* name, uint64_t request = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; returns its duration (0 when not recording).
  uint64_t End();

 private:
  bool open_ = false;
};

/// Every span recorded so far, merged across threads in thread order, with
/// `parent` indices rebased into the merged vector. Call after the threads
/// that recorded them have been joined.
std::vector<SpanRecord> CollectSpans();

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to the
/// parent). Indexed like `spans`.
std::vector<uint64_t> SelfTimes(const std::vector<SpanRecord>& spans);

/// Per-name aggregate of a span list.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t allocs = 0;
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<SpanRecord>& spans);

/// Writes spans as Chrome-trace JSON ("X" events, µs timestamps relative
/// to the earliest span; the request id and self allocations ride in
/// `args`). At most `max_events` spans are written. Returns false on I/O
/// failure.
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path, size_t max_events);

}  // namespace perfbench

#endif  // RDFQL_PERFBENCH_BENCH_LIB_H_
