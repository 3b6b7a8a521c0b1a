// The Kushilevitz-Ostrovsky-Rabani approximate nearest-neighbor structure
// (Figures 6-8 of the paper; [KOR] SIAM J. Comput. 30(2)).
//
// Construction: for every candidate distance i in [1, d] a substructure S_i
// is built. S_i holds M1 tables; each table holds M2 random test vectors
// drawn with per-bit bias b = 1/(2i) and a 2^M2-entry table. A training
// flow registers in every table cell whose index is within Hamming distance
// M3 of the flow's trace (the M2 GF(2) inner products against the test
// vectors). Intuition: two points at distance <= i agree on a biased test
// with noticeably higher probability than points at distance > c*i, so the
// trace is a locality-sensitive fingerprint for distance scale i.
//
// Search: binary search over the distance scale. At scale t, compute the
// query's trace in a randomly chosen table of S_t; a hit sends the search
// toward smaller t, a miss toward larger t. The flow in the last non-empty
// cell visited is returned as the approximate nearest neighbor.
//
// Storage is struct-of-arrays: each table's M2 test vectors live in one
// contiguous word array, so computing a trace streams one cache-resident
// block instead of chasing M2 heap vectors, and search_batch() can probe a
// whole batch of queries against a table while that block stays hot.
//
// The paper's experiments use d = 720, M1 = 1, M2 = 12, M3 = 3.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "nns/bitvector.h"
#include "util/rng.h"

namespace infilter::nns {

struct KorParams {
  int m1 = 1;   ///< tables per substructure
  int m2 = 12;  ///< trace width (bits); table size is 2^m2
  int m3 = 3;   ///< registration ball: cells with HD(trace, z) < m3
  /// Training flows kept per table cell. Figure 6 stores one flow per
  /// cell; with thousands of training flows and m2 = 12 the 4096-cell
  /// tables saturate and a single first-registrant-wins entry is nearly
  /// random. A small bucket keeps several candidates so the search can
  /// pick the closest.
  int bucket_capacity = 4;
  /// A cell hit at scale t only counts when the best candidate is within
  /// verification_factor * t of the query, making the binary search robust
  /// to saturated cells (KOR's analysis assumes parameter regimes --
  /// m2 ~ c log n per scale -- that the paper's fixed m2 = 12 leaves;
  /// this distance check restores the "is there a neighbor within ~t?"
  /// semantics each binary-search step needs). Set <= 0 to accept any
  /// non-empty cell, which is the literal Figure 8 behaviour.
  double verification_factor = 2.0;
  /// Scales are geometrically spaced: substructures are built for
  /// t = 1, ceil(1*f), ceil(1*f^2), ... instead of every t in [1, d].
  /// Adjacent scales' bias 1/(2t) differs negligibly, so this compresses
  /// the structure ~d/log(d)-fold with no observable accuracy cost
  /// (1.0 builds every scale, the literal Figure 6).
  double scale_factor = 1.35;
  std::uint64_t seed = 1;
};

/// Result of a nearest-neighbor query: a training-set index plus the true
/// Hamming distance from the query to that training flow.
struct NnsMatch {
  int index = -1;
  int distance = 0;

  friend auto operator<=>(const NnsMatch&, const NnsMatch&) = default;
};

/// Reusable working memory for search_batch(). The indexes themselves are
/// immutable and shared across threads (core/cluster.h), so batch state
/// lives with the caller: hold one scratch per processing thread and the
/// batch path performs no per-query allocations after warm-up.
struct NnsBatchScratch {
  struct QueryState {
    int lo = 0;
    int hi = 0;
    std::int32_t best_index = -1;
    int best_distance = 0;
  };
  std::vector<QueryState> states;
  /// (group key, query id) pairs of the still-active queries, regrouped
  /// each binary-search round.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> active;
  /// Per-run trace staging area: traces are computed for a whole run
  /// first (prefetching each query's cell bucket as its trace lands),
  /// then the buckets are probed in a second pass.
  std::vector<std::uint32_t> traces;
};

/// Interface shared by the approximate structure and the exact baseline so
/// the analysis engine and the ablation bench can swap them.
class NnsIndex {
 public:
  virtual ~NnsIndex() = default;
  /// Finds an (approximate) nearest neighbor of `query`, or nullopt when
  /// the structure cannot locate any candidate (empty training set, or no
  /// table cell hit at any scale).
  [[nodiscard]] virtual std::optional<NnsMatch> search(const BitVector& query,
                                                       util::Rng& rng) const = 0;
  /// Batched search: out[i] is exactly what search(queries[i], rngs[i])
  /// returns -- every query consumes its own RNG in the same order as the
  /// per-query path, so batching is invisible to verdicts. The base
  /// implementation loops search(); KorNns overrides it with a
  /// level-synchronous probe that amortizes table loads across the batch.
  /// Preconditions: queries, rngs, and out have equal sizes.
  virtual void search_batch(std::span<const BitVector> queries,
                            std::span<std::optional<NnsMatch>> out,
                            std::span<util::Rng> rngs,
                            NnsBatchScratch& scratch) const;
};

/// The KOR structure (Figures 6 and 8).
class KorNns final : public NnsIndex {
 public:
  /// Builds the structure over `training`. All vectors must share the same
  /// dimension d >= 1; construction cost is O(d * |training| * m1 * m2)
  /// inner products.
  KorNns(std::span<const BitVector> training, const KorParams& params);

  [[nodiscard]] std::optional<NnsMatch> search(const BitVector& query,
                                               util::Rng& rng) const override;
  void search_batch(std::span<const BitVector> queries,
                    std::span<std::optional<NnsMatch>> out,
                    std::span<util::Rng> rngs,
                    NnsBatchScratch& scratch) const override;
  [[nodiscard]] const BitVector& training_flow(int index) const {
    return training_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] int dimension() const { return dimension_; }
  /// Approximate resident size of the tables, for the ablation bench.
  [[nodiscard]] std::size_t table_bytes() const;

 private:
  struct Table {
    /// m2 test vectors, SoA: vector k occupies the word range
    /// [k * words_per_vector, (k + 1) * words_per_vector).
    std::vector<std::uint64_t> test_words;
    /// 2^m2 cells x bucket_capacity slots, flattened; -1 = empty slot.
    std::vector<std::int32_t> cells;
  };
  struct Substructure {
    std::vector<Table> tables;  ///< m1 tables
  };

  [[nodiscard]] std::uint32_t trace_of(const Table& table, const BitVector& v) const;
  /// Traces of two queries against the same table, interleaved so each
  /// streamed test-vector word is shared between two independent parity
  /// chains. The batch kernel's unit of work.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> trace_pair(
      const Table& table, const BitVector& a, const BitVector& b) const;
  /// Best bucket candidate of `table`'s cell for `trace`, plus the
  /// hit/miss verdict at scale t (used by the per-query search()).
  [[nodiscard]] std::optional<NnsMatch> probe_cell(const Table& table,
                                                   std::uint32_t trace,
                                                   const BitVector& query) const;

  KorParams params_;
  int dimension_ = 0;
  std::size_t words_per_vector_ = 0;
  std::vector<BitVector> training_;
  /// The training vectors again, flattened row-major (row f occupies
  /// words [f * words_per_vector, (f + 1) * words_per_vector)). The batch
  /// probe kernel computes bucket distances against these rows -- one
  /// indexed block instead of two pointer hops per candidate -- and
  /// prefetches them a run ahead of the distance loop.
  std::vector<std::uint64_t> training_words_;
  /// Geometrically spaced scales t (ascending) and their substructures.
  std::vector<int> scales_;
  std::vector<Substructure> substructures_;
};

/// Exact linear-scan baseline: always returns the true nearest neighbor.
class ExactNns final : public NnsIndex {
 public:
  explicit ExactNns(std::span<const BitVector> training);

  [[nodiscard]] std::optional<NnsMatch> search(const BitVector& query,
                                               util::Rng& rng) const override;

 private:
  std::vector<BitVector> training_;
};

/// Enumerates all m2-bit strings within Hamming distance < radius of
/// `center` (the registration ball of Figure 6). Exposed for testing.
/// hamming_ball(c, m2, r)[j] == c ^ hamming_ball(0, m2, r)[j]: the
/// zero-centered ball is a reusable offset table (KorNns construction
/// memoizes it once per (m2, radius) instead of re-enumerating per flow).
[[nodiscard]] std::vector<std::uint32_t> hamming_ball(std::uint32_t center, int m2,
                                                      int radius);

}  // namespace infilter::nns
