#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/cube.h"
#include "db/database.h"
#include "db/executor.h"
#include "db/query.h"
#include "db/query_interner.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace db {

/// Execution strategies compared in Table 6 of the paper.
enum class EvalStrategy {
  kNaive = 0,        ///< one scan per candidate query
  kMerged,           ///< merge candidates into cube queries (§6.2)
  kMergedCached,     ///< cubes + result cache across claims/iterations (§6.3)
};

const char* EvalStrategyName(EvalStrategy s);

/// \brief Counters exposed for the Table 6 / Figure 13 benchmarks.
///
/// The wall-clock fields (query/join/phase seconds) are measurement-only:
/// they vary run to run and stay out of the determinism fingerprints.
struct EvalStats {
  size_t queries_answered = 0;
  size_t cube_queries = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t rows_scanned = 0;
  /// Join-layer counters: how many times a joined relation was actually
  /// materialized vs. served from the shared RelationCache. In cached mode
  /// joins_built stays at one per distinct table set per checking run.
  size_t joins_built = 0;
  size_t join_cache_hits = 0;
  /// Queries left unanswered because the resource governor tripped; their
  /// results surface as nullopt and the owning claims become partial.
  size_t queries_aborted = 0;
  /// Plan-cache counters (merged strategies only; naive batches have no
  /// plan and leave both at zero). A "plan" is the per-(relation,
  /// dimension-set) grouping work — canonical keys, sorted dims, column
  /// bindings — built once and reused across batches, claims, and EM
  /// iterations.
  size_t plans_built = 0;
  size_t plan_cache_hits = 0;
  /// Cached cube slices evicted because a base table's data version moved
  /// (DESIGN.md §16). Counts evictions of the version sweep only — entries
  /// withdrawn for job failure or budget trips are not included.
  size_t cache_invalidations = 0;
  double query_seconds = 0.0;
  double join_seconds = 0.0;  ///< wall time spent materializing joins
  /// Per-phase breakdown of EvaluateBatch: plan (grouping, cache lookups,
  /// shell construction), execute (relation acquisition + morsel scans +
  /// epilogues), fold (serial stats/cache reconciliation), answer (cube
  /// lookups). Naive batches report execute/fold only.
  double plan_seconds = 0.0;
  double execute_seconds = 0.0;
  double fold_seconds = 0.0;
  double answer_seconds = 0.0;
  /// Self-healing counters (recovery enabled via SetRecovery; see
  /// DESIGN.md §13). Deterministic for a fixed fault schedule.
  size_t recovery_retries = 0;    ///< same-rung re-attempts after transients
  size_t ladder_descents = 0;     ///< fallback-ladder rungs engaged
  size_t queries_recovered = 0;   ///< hard-failed queries healed by recovery
  size_t queries_quarantined = 0; ///< failed on every rung; owning claims
                                  ///< degrade to quarantined partials
  /// Kernel-work accounting: rows scanned times slices, summed over
  /// completed cube jobs (a slice's kernel cost is proportional to rows).
  /// probe_slice_rows_skipped is always 0 — the engine never sees a probe
  /// decision (DESIGN.md §17). Both are kept only because the end-to-end
  /// benchmark reads them as db.kernel_rows / db.kernel_rows_skipped.
  size_t probe_slice_rows_total = 0;
  size_t probe_slice_rows_skipped = 0;
};

/// \brief Batch evaluator for candidate queries (Function RefineByEval's
/// processing backend, §6).
///
/// In merged mode, candidates sharing a predicate-column set are answered by
/// one multi-aggregate cube query; the cached mode additionally persists
/// per-(aggregate, dimension-set) cube slices across batches and EM
/// iterations. All strategies return identical results — the property tests
/// assert this.
///
/// Concurrency: a batch may be spread over an attached ThreadPool
/// (SetThreadPool). Parallelism is internal to EvaluateBatch — the engine's
/// public interface stays externally single-threaded (one batch at a time),
/// and batches follow a plan → execute → fold structure where only the
/// execute phase runs on workers (see DESIGN.md "Concurrency contract").
/// The merged execute phase is morsel-driven: every cube job is split into
/// (job, row-block) morsels drained from one global queue, so a batch with
/// a single large cube saturates the pool just like one with many small
/// cubes. Results and cache state are bit-identical for any thread count.
class EvalEngine {
 public:
  EvalEngine(const Database* db, EvalStrategy strategy)
      : db_(db),
        strategy_(strategy),
        executor_(db),
        relation_cache_(&db->relation_cache()) {}

  /// Evaluates every query; result[i] is nullopt when query i is invalid,
  /// unsatisfiable for value-returning aggregates, or undefined. A thin
  /// wrapper: the queries are interned and evaluated by EvaluateInterned.
  std::vector<std::optional<double>> EvaluateBatch(
      const std::vector<SimpleAggregateQuery>& queries);

  /// Evaluates a batch of interned queries by id (see interner()) — the one
  /// way queries reach the engine. No SimpleAggregateQuery is built except
  /// lazily for the naive strategy and executor fallbacks. Ids must come
  /// from this engine's interner.
  std::vector<std::optional<double>> EvaluateInterned(
      const std::vector<QueryInterner::Id>& ids);

  /// Evaluates a single query using the engine's strategy (and cache).
  std::optional<double> Evaluate(const SimpleAggregateQuery& query);

  const EvalStats& stats() const { return stats_; }
  void ClearCache() {
    fp_cache_.clear();
    fp_cache_order_.clear();
  }

  /// The engine's query interner. Callers (the translator) intern candidate
  /// fragments through this and ship ids to EvaluateInterned. Interning is
  /// NOT thread-safe: only use it from serial sections, per the engine's
  /// externally-single-threaded contract.
  QueryInterner& interner() { return interner_; }

  /// Attaches a resource governor for subsequent evaluations (nullptr
  /// detaches). Not owned; the caller scopes it to one checking run. When a
  /// governor limit trips mid-batch, remaining queries return nullopt and
  /// are counted in EvalStats::queries_aborted; failed scans are never
  /// cached, so a later unbudgeted run recomputes them correctly.
  void SetGovernor(const ResourceGovernor* governor) { governor_ = governor; }
  const ResourceGovernor* governor() const { return governor_; }

  /// Attaches a thread pool for batch evaluation (nullptr detaches = serial,
  /// today's exact path). Not owned; must outlive the engine's use of it.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Overrides the relation cache joins are acquired through (default: the
  /// database's own shared cache). nullptr disables caching — every query
  /// and cube materializes a private join, the pre-cache reference behavior
  /// the differential tests and benches compare against. Not owned.
  void SetRelationCache(RelationCache* cache) { relation_cache_ = cache; }
  RelationCache* relation_cache() const { return relation_cache_; }

  /// Selects how cube queries materialize (default: vectorized). The scalar
  /// oracle is the row-at-a-time reference path; results are bit-identical
  /// either way — differential tests switch this to pin that down.
  void SetCubeExecMode(CubeExecMode mode) { cube_exec_ = mode; }
  CubeExecMode cube_exec_mode() const { return cube_exec_; }

  /// \brief One query's trip through the recovery layer (consumed per batch
  /// via ConsumeRecoveryRecords). `rung` is the ladder position the query
  /// ended on: 0 = healed by same-rung retries on the primary
  /// configuration, 1 = the reference configuration (scalar cube oracle,
  /// relation cache detached).
  struct QueryRecovery {
    size_t query_index = 0;  ///< index within the batch that failed
    uint32_t attempts = 1;   ///< total evaluation attempts, initial included
    uint32_t rung = 0;       ///< ladder position (0 = primary)
    bool recovered = false;  ///< false = quarantined on every rung
  };

  /// Evaluation attempts per ladder rung, the first included: a query
  /// whose error is transient re-runs at once on the same rung until it
  /// has run this often. core::AggChecker applies the same cap to
  /// run-level retries of a whole translation.
  static constexpr uint32_t kMaxAttempts = 3;

  /// Enables or disables the self-healing layer: hard-failed queries are
  /// re-run on the same rung while their error is transient (up to
  /// kMaxAttempts), then on the reference rung (scalar cube oracle over
  /// uncached joins), and only queries failing there too are surrendered
  /// (ConsumeFailedQueries / queries_quarantined). Raw engines default to
  /// OFF so differential tests observe unmasked errors; core::AggChecker
  /// turns it on at Create.
  void SetRecovery(bool enabled) { recovery_ = enabled; }
  bool recovery_enabled() const { return recovery_; }

  /// Returns (and clears) the batch-local indices of queries whose hard
  /// failure survived recovery (or recovery was disabled). Callers that map
  /// queries to claims use this to quarantine the owners instead of
  /// aborting the run.
  std::vector<size_t> ConsumeFailedQueries() {
    return std::move(failed_queries_);
  }

  /// Returns (and clears) the per-query recovery records accumulated since
  /// the last call (only queries that entered recovery appear).
  std::vector<QueryRecovery> ConsumeRecoveryRecords() {
    return std::move(recovery_records_);
  }

  /// Returns (and clears) the first *unexpected* execution error since the
  /// last call. Expected failures stay out of this channel: query-shape
  /// errors (kInvalidArgument / kNotFound / kUnsupported) mean "this
  /// candidate is not answerable" and surface as nullopt, and governor
  /// stops degrade to aborted queries. Anything else — an I/O fault, an
  /// internal invariant break — must NOT silently become an "undefined
  /// result" (which the verdict layer could misread as evidence of an
  /// erroneous claim), so the translator aborts the run on it.
  Status ConsumeHardError() {
    std::lock_guard<std::mutex> lock(hard_error_mu_);
    Status error = hard_error_;
    hard_error_ = Status::OK();
    return error;
  }

  /// Canonical key of the relation a query runs over (its sorted
  /// referenced-table set). Queries may share cubes and cache entries only
  /// within one relation.
  static std::string RelationKey(const SimpleAggregateQuery& query);

 private:
  /// One cached slice: a cube result plus the index of the aggregate within
  /// it that this cache entry answers (the relation it was computed over is
  /// part of its SliceKey).
  struct CacheEntry {
    std::shared_ptr<CubeResult> cube;
    size_t agg_idx;
  };

  /// Slice identity: which (aggregate, relation, dimension-set) a cached
  /// cube slice answers, as interned ids.
  struct SliceKey {
    QueryInterner::Id agg = QueryInterner::kNone;
    QueryInterner::Id relation = QueryInterner::kNone;
    QueryInterner::Id dimset = QueryInterner::kNone;
    bool operator==(const SliceKey& o) const {
      return agg == o.agg && relation == o.relation && dimset == o.dimset;
    }
  };
  struct SliceKeyHasher {
    size_t operator()(const SliceKey& k) const {
      uint64_t h = (uint64_t{k.agg} << 40) ^ (uint64_t{k.relation} << 20) ^
                   uint64_t{k.dimset};
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  /// Per-query compilation cached across batches (indexed by interned query
  /// id), built from the interner's parts once per distinct candidate for
  /// the lifetime of the engine: validity, the function and aggregation
  /// column the answer phase reads, normalized predicates, and the interned
  /// ids planning groups by.
  struct CompiledQuery {
    bool compiled = false;
    bool valid = false;
    /// Two predicates constrain one column to different values.
    bool unsatisfiable = false;
    AggFn fn = AggFn::kCount;
    QueryInterner::Id agg_column = QueryInterner::kNone;  ///< "*" included
    /// Predicate ids in query order, the first per column kept.
    std::vector<QueryInterner::Id> preds;
    QueryInterner::Id agg = QueryInterner::kNone;  ///< base-fn aggregate id
    QueryInterner::Id relation = QueryInterner::kNone;
    QueryInterner::Id dimset = QueryInterner::kNone;
  };

  /// An interned column resolved against the schema, once per engine.
  struct ResolvedColumn {
    const Table* table = nullptr;    ///< null: no such table
    const Column* column = nullptr;  ///< null: no such column
  };

  /// One set of referenced tables: CheckQueryRelation's verdict and, for a
  /// valid set, its interned relation id, both taken when a query with
  /// valid columns first references the set.
  struct TableSet {
    bool valid = false;
    QueryInterner::Id relation = QueryInterner::kNone;
  };

  /// Cached plan of one (relation, dimension-set) cube group: everything
  /// the plan phase would otherwise rebuild per batch. Plans hold no
  /// result data, so they never need governor-trip invalidation; the
  /// catalog (hence every dim/relation here) is immutable per run.
  struct GroupPlan {
    std::vector<ColumnRef> dims;
    std::vector<const Column*> dim_columns;  ///< bound once; may hold null
    QueryInterner::Id relation = QueryInterner::kNone;
    QueryInterner::Id dimset = QueryInterner::kNone;
    /// "relation||dimset" in canonical lower-cased text. Batch groups sort
    /// by this, which fixes group order independently of interning order:
    /// group order decides intra-batch rollup reuse, and with it cube
    /// formation and governor charges.
    std::string sort_key;
  };

  /// One cube to materialize: fills `shell` on a worker. The slices
  /// published for it at plan time are withdrawn on failure.
  struct CubeJob {
    std::shared_ptr<CubeResult> shell;
    std::vector<SliceKey> slice_keys;
    Status status = Status::OK();
    ScanStats scan;
  };

  /// One executor scan per query.
  std::vector<std::optional<double>> EvaluateNaive(
      const std::vector<QueryInterner::Id>& ids);
  std::vector<std::optional<double>> EvaluateMergedIds(
      const std::vector<QueryInterner::Id>& ids, bool use_cache);

  /// Strategy dispatch without the public wrappers' stats bumping or
  /// recovery pass — the single evaluation primitive both the primary
  /// attempt and recovery re-runs go through.
  std::vector<std::optional<double>> DispatchIds(
      const std::vector<QueryInterner::Id>& ids);

  /// Routes one query's execution failure: resource-exhausted counts as
  /// aborted, shape errors are an expected nullopt, anything else raises
  /// the hard-error channel AND records (index, status) in batch_failed_
  /// for the recovery pass.
  void NoteQueryFailure(size_t index, const Status& status);

  /// The recovery pass (DESIGN.md §13): re-runs batch_failed_ queries of
  /// `ids` on the same rung while transient, then re-runs the
  /// still-failing subset on the reference rung. Healed results are written
  /// into `results`; queries failing on every rung are quarantined.
  void RecoverBatch(const std::vector<QueryInterner::Id>& ids,
                    std::vector<std::optional<double>>& results);

  /// Compiles query `id` (validity, normalization, group ids) from its
  /// interned parts if not yet cached and returns the compilation.
  const CompiledQuery& EnsureCompiled(QueryInterner::Id id);

  /// Interned column `column_id` resolved against the schema (cached).
  ResolvedColumn Resolve(QueryInterner::Id column_id);

  /// The referenced-table set of a query with aggregation column
  /// `agg_column` and predicates `pred_ids` (cached per set of tables).
  /// Call only for queries that pass CheckQueryColumns.
  const TableSet& EnsureTableSet(
      QueryInterner::Id agg_column,
      const std::vector<QueryInterner::Id>& pred_ids);

  /// Returns the cached plan of group (cq.relation, cq.dimset), building it
  /// from `cq` on first sight (counted in EvalStats::plans_built; hits in
  /// plan_cache_hits).
  const GroupPlan& EnsureGroupPlan(const CompiledQuery& cq);

  /// Shared execute phase: Prepare / morsel-drained ScanBlock / Finish over
  /// `jobs`, adding wall time to EvalStats::execute_seconds.
  void ExecuteJobs(std::vector<CubeJob>& jobs);

  /// Answers one compiled query from aggregate `agg_idx` of a cube result;
  /// lookups translate missing count cells to 0.
  std::optional<double> AnswerFromCube(const CompiledQuery& cq,
                                       const CubeResult& cube,
                                       size_t agg_idx) const;

  /// Finds a cached slice answering aggregate `agg` over group `plan` with
  /// every batch literal separately bucketed; nullptr on miss. Exact
  /// SliceKey hit first, then a rollup scan (§6.3) over the
  /// insertion-ordered slices of (agg, plan.relation). Cubes over different
  /// relations are never interchangeable: an aggregate over a PK-FK join
  /// differs from the same aggregate over a base table (inner joins drop
  /// dangling rows and joins multiply cardinalities).
  ///
  /// During a batch's plan phase the cache may hold entries whose cube is a
  /// still-empty shell scheduled for this batch; coverage only inspects the
  /// cube's shape (dims + literal buckets), which is fixed at construction,
  /// so hit/miss decisions are identical whether the cube is filled yet.
  /// `dim_literals[d]` are the batch literals of plan.dims[d]. `hit_key`,
  /// when non-null, receives the SliceKey the returned entry lives under
  /// (which differs from the exact key on rollup hits) so the caller can
  /// withdraw the entry if its charge replay trips.
  const CacheEntry* FindCachedIds(
      QueryInterner::Id agg, const GroupPlan& plan,
      const std::vector<const std::vector<Value>*>& dim_literals,
      SliceKey* hit_key = nullptr) const;

  static std::string DimSetKey(const std::vector<ColumnRef>& dims);

  /// \brief Data-version sweep (DESIGN.md §16), run once per public
  /// evaluation entry point before any cache lookup.
  ///
  /// Diffs the database's current version vector against the last observed
  /// one; when tables changed, evicts exactly the cached cube slices whose
  /// relation's join closure reads a changed table (counted in
  /// EvalStats::cache_invalidations) from fp_cache_ / fp_cache_order_.
  /// Plans (group_plans_), compilations (compiled_), resolved columns and
  /// table sets, and the interner survive: they hold no result data, and
  /// their bound Table and Column pointers stay valid because ingestion
  /// mutates columns in place.
  void RefreshDataVersions();

  /// \brief Charge replay for a cross-run cache hit (DESIGN.md §16).
  ///
  /// If `entry`'s cube was last charged under a different governor run,
  /// replays its recorded charges so warm totals match a cold rebuild.
  /// Returns false — and the caller must withdraw the entry and treat the
  /// lookup as a miss — when the governor is already tripped (a cold run
  /// would find no entry and its rebuild would abort un-charged) or the
  /// replay itself trips a limit. Entries linked to a job of the current
  /// batch are skipped (their execution charges this run directly).
  bool ReplayChargesForHit(const CacheEntry& entry);

  /// Records `status` as the run's hard error unless it is an expected
  /// query-shape failure (kInvalidArgument/kNotFound/kUnsupported). First
  /// error wins under a mutex — safe from concurrent workers, though batch
  /// fold phases call it serially in plan order so the surfaced error does
  /// not depend on thread interleaving.
  void NoteHardError(const Status& status);

  const Database* db_;
  EvalStrategy strategy_;
  QueryExecutor executor_;
  EvalStats stats_;
  const ResourceGovernor* governor_ = nullptr;
  ThreadPool* pool_ = nullptr;
  RelationCache* relation_cache_ = nullptr;  ///< see SetRelationCache
  CubeExecMode cube_exec_ = CubeExecMode::kVectorized;
  std::mutex hard_error_mu_;
  Status hard_error_;  ///< first unexpected error; see ConsumeHardError()
  // ---- Recovery state (see SetRecovery) --------------------------------
  bool recovery_ = false;
  /// (batch index, status) of this dispatch's hard-failed queries; filled
  /// serially by fold/answer phases, drained by RecoverBatch.
  std::vector<std::pair<size_t, Status>> batch_failed_;
  std::vector<size_t> failed_queries_;       ///< see ConsumeFailedQueries
  std::vector<QueryRecovery> recovery_records_;
  /// Last observed database version vector (see RefreshDataVersions);
  /// starts empty, so the first sweep observes every table as "changed"
  /// against empty caches — a no-op.
  std::vector<std::pair<std::string, uint64_t>> data_versions_;

  // ---- Plan and cache state (see DESIGN.md §12) -----------------------
  // All of it is written only from serial plan/fold phases; workers never
  // touch the interner or these maps.
  QueryInterner interner_;
  /// Indexed by interned query id (ids are dense). Deque: references stay
  /// stable while new queries compile.
  std::deque<CompiledQuery> compiled_;
  /// Indexed by interned column id (see Resolve).
  std::vector<ResolvedColumn> resolved_columns_;
  /// Keyed by the sorted, distinct tables a query references (null for a
  /// table the schema lacks); see EnsureTableSet.
  std::map<std::vector<const Table*>, TableSet> table_sets_;
  std::vector<const Table*> table_key_;  ///< EnsureTableSet scratch
  /// (relation id << 32 | dimset id) -> plan. Survives batches and EM
  /// iterations; holds no result data, so ClearCache leaves it alone.
  std::unordered_map<uint64_t, GroupPlan> group_plans_;
  /// Result cache, keyed by SliceKey. fp_cache_order_ lists the SliceKeys
  /// of each (agg id << 32 | relation id) in first-publish order for the
  /// rollup scan; withdrawn entries linger there as stale keys (skipped via
  /// map membership) — republishing may append a duplicate, bounded by the
  /// number of governor trips.
  std::unordered_map<SliceKey, CacheEntry, SliceKeyHasher> fp_cache_;
  std::unordered_map<uint64_t, std::vector<SliceKey>> fp_cache_order_;

  /// Batch-local scratch for literal collection, epoch-stamped so clearing
  /// between batches is O(touched), not O(interned).
  uint32_t batch_epoch_ = 0;
  std::vector<uint32_t> pred_epoch_;
  std::vector<uint32_t> col_epoch_;
  std::vector<uint32_t> col_slot_;
  std::vector<QueryInterner::Id> batch_cols_;  ///< touched, in batch order
  std::vector<std::vector<Value>> batch_literals_;  ///< by col_slot_
};

}  // namespace db
}  // namespace aggchecker
