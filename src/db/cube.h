#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/aggregate.h"
#include "db/database.h"
#include "db/executor.h"
#include "db/joined_relation.h"
#include "util/resource_governor.h"
#include "util/status.h"

namespace aggchecker {
namespace db {

class RelationCache;

/// \brief One aggregate computed by a cube query: a base aggregation
/// function applied to a column (or "*" for Count).
///
/// Only the five base functions are valid here; ratio aggregates are derived
/// from Count lookups by the evaluation engine.
struct CubeAggregate {
  AggFn fn = AggFn::kCount;
  ColumnRef column;  ///< empty column name = "*"

  bool is_star() const { return column.column.empty(); }
  std::string Key() const {
    return std::string(AggFnName(fn)) + "(" +
           (is_star() ? "*" : column.ToString()) + ")";
  }
};

/// \brief Replayable record of the governor work one completed cube
/// execution performed (DESIGN.md §16).
///
/// A cached CubeResult that survives into a later governor run must charge
/// that run the same totals a cold rebuild would, or warm and cold runs
/// would diverge under a budget. The totals are fully derivable from these
/// three counts plus the cube's shape (dimension count, aggregate count)
/// and the modeled per-combo/per-group constants — see ReplayCubeCharges.
struct CubeCharges {
  uint64_t rows = 0;    ///< relation rows the scan charged
  uint64_t combos = 0;  ///< distinct bucket combinations materialized
  uint64_t groups = 0;  ///< cube groups materialized
  /// ResourceGovernor::run_id of the run these charges were last accounted
  /// to (at execution or by replay); 0 = never charged under a governor.
  uint64_t charged_run = 0;
};

/// Bucket code for one cube dimension in a result key.
/// >= 0 : index into the dimension's relevant-literal list
///  kDefaultBucket : a value outside the relevant set (InOrDefault default)
///  kAllBucket     : dimension rolled up (no restriction)
constexpr int16_t kDefaultBucket = -1;
constexpr int16_t kAllBucket = -2;

/// \brief Result of a cube query for a fixed dimension set.
///
/// Maps a bucket-code key (one code per dimension, in dimension order) to
/// per-aggregate values. Implements the paper's InOrDefault reduction: only
/// the relevant literals get their own buckets; everything else collapses
/// into the default bucket, and kAllBucket entries provide rollups.
///
/// Keys are stored packed: 16 bits per dimension (bucket code + 3, so
/// kAllBucket/kDefaultBucket pack as 1/2), most-significant dimension first.
/// The same packing is computed once per row inside the cube scan, so both
/// the executor and `AnswerFromCube` look cells up by a single integer hash
/// instead of hashing a heap-allocated `std::vector<int16_t>`.
class CubeResult {
 public:
  /// Dimension counts beyond 4 never arise in practice (a cube's dimensions
  /// are a claim batch's predicate columns; nG <= max predicates + 1 = 4).
  /// The executor rejects higher counts rather than overflow the packing.
  static constexpr size_t kMaxDims = 4;

  /// Packs `d` bucket codes into the canonical cell key.
  static uint64_t PackKey(const int16_t* buckets, size_t d) {
    uint64_t key = 0;
    for (size_t i = 0; i < d; ++i) {
      key = (key << 16) |
            static_cast<uint16_t>(static_cast<int32_t>(buckets[i]) + 3);
    }
    return key;
  }
  static uint64_t PackKey(const std::vector<int16_t>& buckets) {
    return PackKey(buckets.data(), buckets.size());
  }

  CubeResult(std::vector<ColumnRef> dims,
             std::vector<std::vector<Value>> literals,
             std::vector<CubeAggregate> aggregates)
      : dims_(std::move(dims)),
        literals_(std::move(literals)),
        aggregates_(std::move(aggregates)) {
    literal_index_.resize(literals_.size());
    for (size_t d = 0; d < literals_.size(); ++d) {
      for (size_t i = 0; i < literals_[d].size(); ++i) {
        literal_index_[d].emplace(literals_[d][i],
                                  static_cast<int16_t>(i));
      }
    }
  }

  const std::vector<ColumnRef>& dims() const { return dims_; }
  const std::vector<std::vector<Value>>& literals() const { return literals_; }
  const std::vector<CubeAggregate>& aggregates() const { return aggregates_; }

  /// Looks up the value of aggregate `agg_idx` for a bucket-code key.
  /// Missing cells mean "no rows matched" and yield nullopt; for Count this
  /// is reported as 0 by the engine, not here.
  std::optional<double> Lookup(const std::vector<int16_t>& key,
                               size_t agg_idx) const {
    return LookupPacked(PackKey(key), agg_idx);
  }

  /// Lookup by pre-packed key (see PackKey) — the hot path.
  std::optional<double> LookupPacked(uint64_t key, size_t agg_idx) const;

  /// Bucket code of `v` on dimension `dim`: literal index or kDefaultBucket.
  int16_t BucketOf(size_t dim, const Value& v) const;

  void SetPacked(uint64_t key, size_t agg_idx, double value);

  size_t num_cells() const { return cells_.size(); }

  /// Charge record of the execution that filled this result (written by
  /// CubeExecution::Finish, stamped/replayed by the cache layer). Mutable
  /// bookkeeping about *how* the result was computed, not part of the
  /// result value — excluded from any equality/fingerprint notion.
  CubeCharges charges;

 private:
  std::vector<ColumnRef> dims_;
  std::vector<std::vector<Value>> literals_;
  std::vector<CubeAggregate> aggregates_;
  // Per-dimension literal -> bucket index (hash lookup for large sets).
  std::vector<std::unordered_map<Value, int16_t, ValueHasher>> literal_index_;
  std::unordered_map<uint64_t, std::vector<std::optional<double>>> cells_;
};

/// How ExecuteCubeInto materializes a cube.
enum class CubeExecMode {
  /// Three-pass combo-partitioned pipeline over flat typed column views
  /// (the default): (1) map each row to a dense bucket-combination id,
  /// block-parallel with a deterministic fold; (2) typed per-aggregate
  /// kernels over primitive arrays; (3) distribute combo accumulators into
  /// the 2^d groups. Produces results bit-identical to the oracle.
  kVectorized = 0,
  /// Row-at-a-time reference path: every row fans out to its 2^d groups
  /// through boxed `Value`s and `Aggregator`s. Kept as the semantics oracle
  /// for differential tests and as the perf-smoke baseline.
  kScalarOracle,
};

const char* CubeExecModeName(CubeExecMode mode);

/// Execution options for one cube materialization.
struct CubeExecOptions {
  CubeExecMode mode = CubeExecMode::kVectorized;
  /// Optional shared relation cache: the cube's joined relation is acquired
  /// through it (built once per distinct table set, memory charged once per
  /// governor run) instead of being rebuilt per cube. nullptr = build a
  /// private join per call, the pre-cache reference behavior.
  RelationCache* relation_cache = nullptr;
};

/// \brief One cube materialization, split into schedulable phases.
///
/// The phase split is what makes morsel-driven batch scheduling possible:
/// the engine Prepares every cube job (validation, relation acquisition,
/// column binding, block sizing), then drains one global queue of
/// (job, row-block) morsels on its pool via ScanBlock, then Finishes each
/// job (the deterministic serial block-order fold plus aggregation
/// kernels). Lifecycle: Prepare once; on OK, ScanBlock for every block in
/// [0, num_blocks()) — concurrently if desired, each block exactly once —
/// then Finish once. ScanBlock calls of one execution may run concurrently
/// with each other and with any phase of other executions; they share only
/// the immutable relation/database and the governor's atomics.
///
/// The vectorized mode scans blocks of ResourceGovernor::kCheckIntervalRows
/// rows; the scalar oracle is inherently sequential and exposes a single
/// block. Results are bit-identical across modes, thread counts, and
/// block interleavings (the fold replays block order).
class CubeExecution {
 public:
  CubeExecution() = default;

  /// Validates the shell, acquires (or builds) the joined relation —
  /// charging its modeled bytes per the relation-cache contract — binds
  /// dimension/aggregate columns, and sizes the block range. On error the
  /// execution must be discarded. Join-layer counters fold into `stats`.
  Status Prepare(const Database& db, CubeResult* result, ScanStats* stats,
                 const ResourceGovernor* governor,
                 const CubeExecOptions& options);

  /// Number of row-block morsels to scan. May be zero (empty relation).
  size_t num_blocks() const { return num_blocks_; }

  /// Scans one row block. Thread-safe across distinct blocks.
  Status ScanBlock(size_t block);

  /// Serial epilogue: deterministic block-order combo fold, aggregation
  /// kernels, result cells, scan stats. Call once, after every ScanBlock
  /// returned OK.
  Status Finish();

 private:
  /// Per-dimension fast access: base-column dictionary codes plus a
  /// code -> bucket translation table, so scan loops never hash values.
  struct DimAccess {
    const std::vector<int32_t>* codes = nullptr;
    std::vector<int16_t> code_to_bucket;
  };

  Status RunScalarOracle();
  Status ScanVectorizedBlock(size_t block);
  Status FinishVectorized();

  CubeResult* result_ = nullptr;
  ScanStats* stats_ = nullptr;
  const ResourceGovernor* governor_ = nullptr;
  CubeExecMode mode_ = CubeExecMode::kVectorized;
  std::shared_ptr<const JoinedRelation> relation_;
  std::vector<JoinedRelation::Binding> dim_bindings_;
  /// One per aggregate; the binding of a star aggregate stays default
  /// (never dereferenced — star aggregates read no column).
  std::vector<JoinedRelation::Binding> agg_bindings_;
  std::vector<DimAccess> access_;
  size_t num_blocks_ = 0;
  // Vectorized pass-1 state: per-row block-local combo ids plus each
  // block's packed keys in local first-appearance order; Finish renumbers
  // them globally in block order.
  std::vector<uint32_t> row_combo_;
  std::vector<std::vector<uint64_t>> block_first_keys_;
};

/// \brief Executes one merged cube query (§6.2).
///
/// Computes every aggregate in `aggregates` for every combination of bucket
/// codes over `dims` — including rollups (kAllBucket) for each dimension
/// subset — in a single scan of the joined relation.
///
/// When `governor` is non-null, the scan charges rows in amortized blocks,
/// every newly materialized group charges the cube-group budget, and the
/// modeled bytes of join/combo/group state charge the memory budget; a
/// tripped limit aborts the cube with the governor's Status (nothing is
/// returned, so callers never cache a partial cube).
Result<std::shared_ptr<CubeResult>> ExecuteCube(
    const Database& db, const std::vector<ColumnRef>& dims,
    const std::vector<std::vector<Value>>& relevant_literals,
    const std::vector<CubeAggregate>& aggregates, ScanStats* stats = nullptr,
    const ResourceGovernor* governor = nullptr,
    const CubeExecOptions& options = {});

/// \brief Materializes into a pre-built (empty) CubeResult shell.
///
/// `result` must have been constructed with the cube's dims/literals/
/// aggregates and carry no cells yet. This split lets a planner build and
/// publish shells serially (e.g. as shared cache entries) and fill them from
/// worker threads — each shell is written by exactly one worker, readers
/// wait at the fold barrier. Charges go through a local governor shard, so
/// concurrent cubes under one governor are safe. On error the shell's cells
/// are left untouched (possibly empty) and the caller must discard it.
///
/// Both execution modes produce bit-identical cells (the vectorized kernels
/// replay the oracle's exact floating-point operation order per group) and
/// charge the same governor totals; the differential property tests pin
/// this down.
Status ExecuteCubeInto(const Database& db, CubeResult& result,
                       ScanStats* stats = nullptr,
                       const ResourceGovernor* governor = nullptr,
                       const CubeExecOptions& options = {});

/// \brief Re-charges a cached cube's recorded work (`cube.charges`) to
/// `shard`'s governor.
///
/// Replays the exact totals a cold execution of this cube would charge —
/// rows scanned, combo state bytes, cube groups, group accumulator bytes,
/// recomputed from the recorded counts and the modeled constants — so a
/// warm cache hit under a fresh governor run accounts identically to a
/// cold rebuild. Returns the stop Status if a limit trips mid-replay; the
/// caller must then discard the cached entry ("does not fit this budget")
/// and fall back to cold execution, which aborts under the now-tripped
/// governor exactly as an uncached run would. Does not stamp
/// `charges.charged_run`; the caller stamps it on success.
Status ReplayCubeCharges(const CubeResult& cube,
                         ResourceGovernor::Shard& shard);

}  // namespace db
}  // namespace aggchecker
