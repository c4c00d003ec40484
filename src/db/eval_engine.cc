#include "db/eval_engine.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "db/relation_cache.h"
#include "util/strings.h"
#include "util/timer.h"

namespace aggchecker {
namespace db {

const char* EvalStrategyName(EvalStrategy s) {
  switch (s) {
    case EvalStrategy::kNaive:
      return "Naive";
    case EvalStrategy::kMerged:
      return "+ Query Merging";
    case EvalStrategy::kMergedCached:
      return "+ Caching";
  }
  return "?";
}

EvalEngine::NormalizedPreds EvalEngine::Normalize(
    const std::vector<Predicate>& preds) {
  NormalizedPreds np;
  for (const Predicate& p : preds) {
    bool duplicate = false;
    for (const Predicate& q : np.preds) {
      if (q.column == p.column) {
        duplicate = true;
        if (!(q.value == p.value)) np.unsatisfiable = true;
        break;
      }
    }
    if (!duplicate) np.preds.push_back(p);
  }
  return np;
}

std::string EvalEngine::DimSetKey(const std::vector<ColumnRef>& dims) {
  std::string key;
  for (const ColumnRef& d : dims) {
    key += strings::ToLower(d.ToString());
    key += ';';
  }
  return key;
}

std::string EvalEngine::RelationKey(const SimpleAggregateQuery& query) {
  // Delegates to the relation cache's canonical key so cube grouping and
  // join caching agree on relation identity by construction.
  return RelationCache::KeyOf(query.ReferencedTables());
}

std::vector<std::optional<double>> EvalEngine::DispatchIds(
    const std::vector<QueryInterner::Id>& ids) {
  switch (strategy_) {
    case EvalStrategy::kNaive:
      return EvaluateNaive(ids);
    case EvalStrategy::kMerged:
      return EvaluateMergedIds(ids, /*use_cache=*/false);
    case EvalStrategy::kMergedCached:
      return EvaluateMergedIds(ids, /*use_cache=*/true);
  }
  return {};
}

void EvalEngine::RefreshDataVersions() {
  auto current = db_->VersionVector();
  if (current == data_versions_) return;

  // Tables whose version moved (or that appeared/disappeared) since the
  // last sweep; both vectors are sorted by name.
  std::set<std::string> changed;
  size_t i = 0, j = 0;
  while (i < data_versions_.size() || j < current.size()) {
    if (i >= data_versions_.size()) {
      changed.insert(current[j++].first);
    } else if (j >= current.size()) {
      changed.insert(data_versions_[i++].first);
    } else if (data_versions_[i].first < current[j].first) {
      changed.insert(data_versions_[i++].first);
    } else if (current[j].first < data_versions_[i].first) {
      changed.insert(current[j++].first);
    } else {
      if (data_versions_[i].second != current[j].second) {
        changed.insert(current[j].first);
      }
      ++i;
      ++j;
    }
  }
  data_versions_ = std::move(current);
  if (changed.empty()) return;

  // Whether a relation (by canonical "t1,t2," key) reads a changed table —
  // through its join *closure*: the join plan may pull in intermediate
  // tables the key does not list, and their rows shape the join too.
  std::unordered_map<std::string, bool> stale_memo;
  auto relation_stale = [&](const std::string& relation_key) {
    auto mit = stale_memo.find(relation_key);
    if (mit != stale_memo.end()) return mit->second;
    std::vector<std::string> tables;
    for (std::string& t : strings::Split(relation_key, ',')) {
      if (!t.empty()) tables.push_back(std::move(t));
    }
    bool stale = false;
    for (const std::string& t : tables) {
      if (changed.count(t) > 0) stale = true;
    }
    if (!stale && tables.size() > 1) {
      auto plan = db_->JoinPlan(tables);
      if (plan.ok()) {
        if (changed.count(strings::ToLower(plan->root)) > 0) stale = true;
        for (const JoinStep& step : plan->steps) {
          if (changed.count(strings::ToLower(step.table)) > 0) stale = true;
        }
      } else {
        // Cannot prove independence from the changed tables; evict.
        stale = true;
      }
    }
    stale_memo[relation_key] = stale;
    return stale;
  };

  // Entries carry relation identity in their SliceKey; resolve it through
  // the interner's canonical relation key.
  bool fp_evicted = false;
  for (auto it = fp_cache_.begin(); it != fp_cache_.end();) {
    if (relation_stale(interner_.relation_key(it->first.relation))) {
      it = fp_cache_.erase(it);
      ++stats_.cache_invalidations;
      fp_evicted = true;
    } else {
      ++it;
    }
  }
  // Prune the rollup-scan order lists so evicted slices do not linger as
  // stale keys forever under repeated ingestion.
  if (fp_evicted) {
    for (auto it = fp_cache_order_.begin(); it != fp_cache_order_.end();) {
      std::vector<SliceKey>& order = it->second;
      order.erase(std::remove_if(order.begin(), order.end(),
                                 [&](const SliceKey& key) {
                                   return fp_cache_.count(key) == 0;
                                 }),
                  order.end());
      it = order.empty() ? fp_cache_order_.erase(it) : std::next(it);
    }
  }
}

bool EvalEngine::ReplayChargesForHit(const CacheEntry& entry) {
  if (governor_ == nullptr) return true;
  CubeCharges& charges = entry.cube->charges;
  if (charges.charged_run == governor_->run_id()) return true;
  // An already-tripped governor: a cold run would find no cached entry and
  // its rebuild would abort before charging, so the warm hit must not be
  // served (or charged) either.
  if (!governor_->TripStatus().ok()) return false;
  ResourceGovernor::Shard shard(governor_);
  if (!ReplayCubeCharges(*entry.cube, shard).ok()) return false;
  charges.charged_run = governor_->run_id();
  return true;
}

std::vector<std::optional<double>> EvalEngine::EvaluateBatch(
    const std::vector<SimpleAggregateQuery>& queries) {
  std::vector<QueryInterner::Id> ids;
  ids.reserve(queries.size());
  for (const auto& q : queries) ids.push_back(interner_.InternQuery(q));
  return EvaluateInterned(ids);
}

std::vector<std::optional<double>> EvalEngine::EvaluateInterned(
    const std::vector<QueryInterner::Id>& ids) {
  Timer timer;
  batch_failed_.clear();
  RefreshDataVersions();
  auto results = DispatchIds(ids);
  RecoverBatch(ids, results);
  stats_.queries_answered += ids.size();
  stats_.query_seconds += timer.ElapsedSeconds();
  return results;
}

std::optional<double> EvalEngine::Evaluate(const SimpleAggregateQuery& query) {
  return EvaluateBatch({query})[0];
}

void EvalEngine::RunIndexed(size_t n, const std::function<void(size_t)>& body) {
  if (pool_ != nullptr && pool_->num_threads() > 1 && n > 1) {
    pool_->ParallelFor(0, n, body);
    return;
  }
  for (size_t i = 0; i < n; ++i) body(i);
}

std::vector<std::optional<double>> EvalEngine::EvaluateNaive(
    const std::vector<QueryInterner::Id>& ids) {
  const size_t n = ids.size();
  std::vector<std::optional<double>> results(n);
  // Materialize serially (the interner caches lazily and is not
  // thread-safe; its references are stable).
  std::vector<const SimpleAggregateQuery*> queries(n);
  for (size_t i = 0; i < n; ++i) queries[i] = &interner_.Materialize(ids[i]);

  // Execute phase: each query scans independently into its own slot; with
  // one thread this runs inline in index order (today's exact path).
  struct Slot {
    std::optional<double> value;
    Status status = Status::OK();
    ScanStats scan;
    bool skipped = false;
  };
  std::vector<Slot> slots(n);
  Timer execute_timer;
  RunIndexed(n, [&](size_t i) {
    Slot& slot = slots[i];
    if (governor_ != nullptr && governor_->exhausted()) {
      slot.skipped = true;  // budget spent before this query started
      return;
    }
    auto r = executor_.Execute(*queries[i], &slot.scan, governor_,
                               relation_cache_);
    if (r.ok()) {
      slot.value = *r;
    } else {
      slot.status = r.status();
    }
  });
  stats_.execute_seconds += execute_timer.ElapsedSeconds();

  // Fold phase (serial, index order): counters and the hard-error channel
  // update deterministically regardless of execution interleaving.
  Timer fold_timer;
  for (size_t i = 0; i < n; ++i) {
    stats_.rows_scanned += slots[i].scan.rows_scanned;
    stats_.joins_built += slots[i].scan.joins_built;
    stats_.join_cache_hits += slots[i].scan.join_cache_hits;
    stats_.join_seconds += slots[i].scan.join_seconds;
    if (slots[i].skipped) {
      ++stats_.queries_aborted;
      continue;
    }
    if (!slots[i].status.ok()) {
      NoteQueryFailure(i, slots[i].status);
      continue;
    }
    results[i] = slots[i].value;
  }
  stats_.fold_seconds += fold_timer.ElapsedSeconds();
  return results;
}

void EvalEngine::NoteHardError(const Status& status) {
  // Query-shape failures are an expected nullopt ("this candidate is not
  // answerable on this schema"), not a reason to abort the run.
  if (status.code() == StatusCode::kInvalidArgument ||
      status.code() == StatusCode::kNotFound ||
      status.code() == StatusCode::kUnsupported) {
    return;
  }
  std::lock_guard<std::mutex> lock(hard_error_mu_);
  if (hard_error_.ok()) hard_error_ = status;
}

void EvalEngine::NoteQueryFailure(size_t index, const Status& status) {
  if (status.IsResourceExhausted()) {
    // Governor stop: the query degrades to aborted/partial, never retried
    // (the governor's verdict is sticky for the run).
    ++stats_.queries_aborted;
    return;
  }
  if (status.code() == StatusCode::kInvalidArgument ||
      status.code() == StatusCode::kNotFound ||
      status.code() == StatusCode::kUnsupported) {
    return;  // expected shape failure: plain nullopt
  }
  NoteHardError(status);
  batch_failed_.emplace_back(index, status);
}

const char* EvalEngine::RecoveryRungName(uint32_t rung) {
  return rung == 0 ? "primary" : "reference";
}

void EvalEngine::RecoverBatch(const std::vector<QueryInterner::Id>& ids,
                              std::vector<std::optional<double>>& results) {
  if (batch_failed_.empty()) return;
  std::vector<std::pair<size_t, Status>> failed = std::move(batch_failed_);
  batch_failed_.clear();
  if (!recovery_.has_value() ||
      (governor_ != nullptr && governor_->exhausted())) {
    // Recovery off (raw-engine/differential use), or the run is already
    // resource-capped — re-runs would fail their first governor charge.
    // The hard error stays in its channel; callers see which queries died.
    for (const auto& [index, status] : failed) {
      (void)status;
      failed_queries_.push_back(index);
    }
    return;
  }

  // Stash the primary attempt's hard error: a fully-healed batch swallows
  // it, a quarantined one re-raises it after the ladder is exhausted.
  const Status primary_error = ConsumeHardError();

  // The fallback ladder has one rung below the primary configuration
  // (DESIGN.md §13): the reference configuration — scalar cube oracle with
  // the relation cache detached, so every query rebuilds its join
  // privately. It exists only when it changes something.
  const CubeExecMode saved_mode = cube_exec_;
  RelationCache* const saved_cache = relation_cache_;
  const bool has_reference_rung =
      (strategy_ != EvalStrategy::kNaive &&
       cube_exec_ == CubeExecMode::kVectorized) ||
      relation_cache_ != nullptr;

  struct Pending {
    size_t index;       ///< batch index of the failing query
    Status last;        ///< its most recent failure
    uint32_t attempts;  ///< evaluation attempts so far (initial included)
  };
  std::vector<Pending> pending;
  pending.reserve(failed.size());
  for (auto& [index, status] : failed) {
    pending.push_back(Pending{index, std::move(status), 1});
  }

  const RetryPolicy& retry = recovery_->retry;
  uint32_t rung = 0;  // 0 = primary, 1 = reference
  uint32_t attempt_on_rung = 1;
  while (!pending.empty()) {
    if (governor_ != nullptr && governor_->exhausted()) break;
    bool any_transient = false;
    for (const Pending& p : pending) any_transient |= p.last.IsTransient();
    if (any_transient && attempt_on_rung < retry.max_attempts) {
      // Same-rung retry with capped exponential backoff.
      SleepForBackoff(retry, attempt_on_rung);
      ++attempt_on_rung;
      ++stats_.recovery_retries;
    } else if (has_reference_rung && rung == 0) {
      cube_exec_ = CubeExecMode::kScalarOracle;
      relation_cache_ = nullptr;
      rung = 1;
      attempt_on_rung = 1;
      ++stats_.ladder_descents;
    } else {
      break;  // every rung exhausted: quarantine what's left
    }

    // Re-run the still-failing subset under the current configuration;
    // its failures refill batch_failed_ with subset-local indices.
    std::vector<QueryInterner::Id> subset;
    subset.reserve(pending.size());
    for (const Pending& p : pending) subset.push_back(ids[p.index]);
    batch_failed_.clear();
    std::vector<std::optional<double>> sub_results = DispatchIds(subset);
    // Re-run failures feed `pending` below, not the hard-error channel.
    (void)ConsumeHardError();
    std::map<size_t, Status> still_failed;
    for (auto& [local, status] : batch_failed_) {
      still_failed.emplace(local, std::move(status));
    }
    batch_failed_.clear();

    std::vector<Pending> next;
    for (size_t k = 0; k < pending.size(); ++k) {
      Pending p = std::move(pending[k]);
      ++p.attempts;
      auto it = still_failed.find(k);
      if (it == still_failed.end()) {
        // Healed: recovered values are the true values (the reference rung
        // is a bit-identical twin of the primary path), so verdicts match
        // the fault-free run exactly.
        if (k < sub_results.size()) results[p.index] = sub_results[k];
        recovery_records_.push_back(
            QueryRecovery{p.index, p.attempts, rung, true});
        ++stats_.queries_recovered;
      } else {
        p.last = it->second;
        next.push_back(std::move(p));
      }
    }
    pending = std::move(next);
  }

  cube_exec_ = saved_mode;
  relation_cache_ = saved_cache;

  if (pending.empty()) return;  // fully healed; primary error stays consumed
  for (Pending& p : pending) {
    failed_queries_.push_back(p.index);
    recovery_records_.push_back(
        QueryRecovery{p.index, p.attempts, rung, false});
    ++stats_.queries_quarantined;
  }
  {
    std::lock_guard<std::mutex> lock(hard_error_mu_);
    if (hard_error_.ok()) {
      hard_error_ = primary_error.ok() ? pending.front().last : primary_error;
    }
  }
}

std::optional<double> EvalEngine::AnswerFromCube(
    const SimpleAggregateQuery& query, const NormalizedPreds& np,
    const CubeResult& cube, size_t agg_idx) const {
  const auto& dims = cube.dims();
  const size_t nd = dims.size();
  // Map each cube dimension to the predicate value (if any). Bucket codes
  // live in a fixed-size array and lookups pack them into the cube's native
  // uint64 cell key — no per-lookup vector allocation or hashing.
  std::array<int16_t, CubeResult::kMaxDims> key;
  key.fill(kAllBucket);
  std::array<int, CubeResult::kMaxDims> pred_dim;
  pred_dim.fill(-1);
  for (size_t p = 0; p < np.preds.size(); ++p) {
    for (size_t d = 0; d < nd; ++d) {
      if (dims[d] == np.preds[p].column) {
        if (p < pred_dim.size()) pred_dim[p] = static_cast<int>(d);
        key[d] = cube.BucketOf(d, np.preds[p].value);
        break;
      }
    }
  }

  const bool is_count_like = query.fn == AggFn::kCount ||
                             query.fn == AggFn::kCountDistinct ||
                             query.fn == AggFn::kPercentage ||
                             query.fn == AggFn::kConditionalProbability;

  auto lookup_count = [&](const int16_t* k) -> double {
    std::optional<double> v =
        cube.LookupPacked(CubeResult::PackKey(k, nd), agg_idx);
    return v.value_or(0.0);  // absent group = zero matching rows
  };

  if (query.fn == AggFn::kPercentage) {
    double num = lookup_count(key.data());
    std::array<int16_t, CubeResult::kMaxDims> den_key = key;
    if (!query.is_star()) {
      for (size_t p = 0; p < np.preds.size() && p < pred_dim.size(); ++p) {
        if (np.preds[p].column == query.agg_column && pred_dim[p] >= 0) {
          den_key[static_cast<size_t>(pred_dim[p])] = kAllBucket;
        }
      }
    }
    double den = lookup_count(den_key.data());
    if (den == 0.0) return std::nullopt;
    return num * 100.0 / den;
  }
  if (query.fn == AggFn::kConditionalProbability) {
    double num = lookup_count(key.data());
    std::array<int16_t, CubeResult::kMaxDims> den_key;
    den_key.fill(kAllBucket);
    if (!np.preds.empty() && pred_dim[0] >= 0) {
      den_key[static_cast<size_t>(pred_dim[0])] =
          key[static_cast<size_t>(pred_dim[0])];
    }
    double den = lookup_count(den_key.data());
    if (den == 0.0) return std::nullopt;
    return num * 100.0 / den;
  }

  std::optional<double> v =
      cube.LookupPacked(CubeResult::PackKey(key.data(), nd), agg_idx);
  if (!v.has_value() && is_count_like) return 0.0;
  return v;
}

void EvalEngine::ExecuteJobs(std::vector<CubeJob>& jobs) {
  // ---- Execute phase (parallel, morsel-driven) ------------------------
  // Each job fills exactly one shell; workers share nothing but the
  // database (read-only, dictionaries and flat views pre-warmed), the
  // relation cache (internally synchronized), and the governor (atomic,
  // charged through local shards). Three stages, each a flat RunIndexed
  // so the pool is never entered from inside one of its own regions:
  //
  //  1. Prepare every job: validation, relation acquisition through the
  //     shared cache (one build per distinct table set, concurrent
  //     acquirers block only on that entry), column binding, block sizing.
  //  2. Drain one global queue of (job, row-block) morsels. This replaces
  //     the old jobs-XOR-blocks split — parallelism no longer depends on
  //     the batch's shape: a lone 1M-row cube yields ~256 morsels, many
  //     small cubes yield a few morsels each, and the pool load-balances
  //     across all of them uniformly.
  //  3. Finish every job: the serial block-order combo fold plus the
  //     aggregation kernels, independent per job.
  //
  // Block scans write only job-local state, so the fold in Finish replays
  // block order and results stay bit-identical for any thread count or
  // morsel interleaving.
  Timer execute_timer;
  CubeExecOptions exec_options;
  exec_options.mode = cube_exec_;
  exec_options.relation_cache = relation_cache_;
  std::vector<CubeExecution> execs(jobs.size());
  RunIndexed(jobs.size(), [&](size_t j) {
    CubeJob& job = jobs[j];
    if (governor_ != nullptr) {
      Status trip = governor_->TripStatus();
      if (!trip.ok()) {
        job.status = trip;  // budget spent before this cube started
        return;
      }
    }
    job.status = execs[j].Prepare(*db_, job.shell.get(), &job.scan,
                                  governor_, exec_options);
  });

  struct Morsel {
    uint32_t job = 0;
    uint32_t block = 0;
  };
  std::vector<Morsel> morsels;
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].status.ok()) continue;
    for (size_t b = 0; b < execs[j].num_blocks(); ++b) {
      morsels.push_back(
          Morsel{static_cast<uint32_t>(j), static_cast<uint32_t>(b)});
    }
  }
  std::vector<Status> morsel_status(morsels.size());
  RunIndexed(morsels.size(), [&](size_t m) {
    if (governor_ != nullptr) {
      Status trip = governor_->TripStatus();
      if (!trip.ok()) {
        morsel_status[m] = trip;  // budget spent before this morsel
        return;
      }
    }
    morsel_status[m] = execs[morsels[m].job].ScanBlock(morsels[m].block);
  });
  // Per-job error fold in ascending morsel order (= ascending block order
  // within a job): the failure a job reports is its lowest failing block,
  // not whichever worker lost the race.
  for (size_t m = 0; m < morsels.size(); ++m) {
    CubeJob& job = jobs[morsels[m].job];
    if (job.status.ok() && !morsel_status[m].ok()) {
      job.status = morsel_status[m];
    }
  }

  RunIndexed(jobs.size(), [&](size_t j) {
    CubeJob& job = jobs[j];
    if (!job.status.ok()) return;  // scans failed; shell stays unfilled
    job.status = execs[j].Finish();
  });
  stats_.execute_seconds += execute_timer.ElapsedSeconds();
}

const EvalEngine::CompiledQuery& EvalEngine::EnsureCompiled(
    QueryInterner::Id id) {
  if (compiled_.size() <= id) compiled_.resize(id + 1);
  CompiledQuery& cq = compiled_[id];
  if (cq.compiled) return cq;
  cq.compiled = true;
  const SimpleAggregateQuery& q = interner_.Materialize(id);
  cq.valid = executor_.Validate(q).ok();
  if (!cq.valid) return cq;
  cq.normalized = Normalize(q.predicates);
  cq.dims.reserve(cq.normalized.preds.size());
  for (const Predicate& p : cq.normalized.preds) cq.dims.push_back(p.column);
  std::sort(cq.dims.begin(), cq.dims.end());
  std::vector<QueryInterner::Id> dim_ids;
  dim_ids.reserve(cq.dims.size());
  for (const ColumnRef& d : cq.dims) dim_ids.push_back(interner_.InternColumn(d));
  cq.dimset = interner_.InternDimSet(dim_ids);
  cq.relation = interner_.InternTableSet(q.ReferencedTables());
  AggFn base_fn = (q.fn == AggFn::kPercentage ||
                   q.fn == AggFn::kConditionalProbability)
                      ? AggFn::kCount
                      : q.fn;
  cq.agg = interner_.InternAggregate(base_fn,
                                     interner_.InternColumn(q.agg_column));
  return cq;
}

const EvalEngine::GroupPlan& EvalEngine::EnsureGroupPlan(
    const CompiledQuery& cq) {
  uint64_t key = (uint64_t{cq.relation} << 32) | uint64_t{cq.dimset};
  auto it = group_plans_.find(key);
  if (it != group_plans_.end()) {
    ++stats_.plan_cache_hits;
    return it->second;
  }
  GroupPlan plan;
  plan.dims = cq.dims;
  plan.dim_columns.reserve(plan.dims.size());
  for (const ColumnRef& d : plan.dims) {
    plan.dim_columns.push_back(db_->FindColumn(d));
  }
  plan.relation = cq.relation;
  plan.dimset = cq.dimset;
  plan.sort_key =
      interner_.relation_key(cq.relation) + "||" + DimSetKey(plan.dims);
  ++stats_.plans_built;
  return group_plans_.emplace(key, std::move(plan)).first->second;
}

const EvalEngine::CacheEntry* EvalEngine::FindCachedIds(
    QueryInterner::Id agg, const GroupPlan& plan,
    const std::vector<const std::vector<Value>*>& dim_literals,
    SliceKey* hit_key) const {
  // Coverage: every group dimension must be a dimension of the candidate
  // cube, with every batch literal separately bucketed (relation equality
  // is implied by the keys).
  auto covers = [&](const CacheEntry& entry) {
    const CubeResult& cube = *entry.cube;
    for (size_t i = 0; i < plan.dims.size(); ++i) {
      int dim = -1;
      for (size_t d = 0; d < cube.dims().size(); ++d) {
        if (cube.dims()[d] == plan.dims[i]) {
          dim = static_cast<int>(d);
          break;
        }
      }
      if (dim < 0) return false;  // dimension not in this cube
      for (const Value& v : *dim_literals[i]) {
        if (cube.BucketOf(static_cast<size_t>(dim), v) == kDefaultBucket) {
          return false;  // literal not separately bucketed
        }
      }
    }
    return true;
  };

  // Exact dimension-set hit first.
  auto it = fp_cache_.find(SliceKey{agg, plan.relation, plan.dimset});
  if (it != fp_cache_.end() && covers(it->second)) {
    if (hit_key != nullptr) *hit_key = it->first;
    return &it->second;
  }

  // Otherwise any cached cube for the same aggregate over the same relation
  // whose dimensions are a superset of the group's (rollup reuse, §6.3).
  auto oit =
      fp_cache_order_.find((uint64_t{agg} << 32) | uint64_t{plan.relation});
  if (oit == fp_cache_order_.end()) return nullptr;
  for (const SliceKey& key : oit->second) {
    auto eit = fp_cache_.find(key);
    if (eit == fp_cache_.end()) continue;  // withdrawn: stale order entry
    if (covers(eit->second)) {
      if (hit_key != nullptr) *hit_key = key;
      return &eit->second;
    }
  }
  return nullptr;
}

std::vector<std::optional<double>> EvalEngine::EvaluateMergedIds(
    const std::vector<QueryInterner::Id>& ids, bool use_cache) {
  std::vector<std::optional<double>> results(ids.size());
  Timer plan_timer;

  // ---- Plan phase (serial) -------------------------------------------
  // Everything that touches shared state — grouping, cache lookups and
  // insertions, stats for hits/misses — happens here, in a deterministic
  // order, before any worker runs. Cubes that must be executed are planned
  // as jobs whose result shells are built (and, in cached mode, published
  // to the cache) up front; the shells' shape is fixed at construction, so
  // later cache-coverage checks within this same plan behave exactly as if
  // the cubes had already been filled. All identity work is integer
  // hashing against state compiled once per distinct query / group and
  // reused across batches and EM iterations.

  // Compile every query once (validity, normalization, group ids).
  for (QueryInterner::Id id : ids) EnsureCompiled(id);

  // Batch-relevant literals (the paper's "literals with non-zero marginal
  // probability for any claim"): the union of predicate values per column
  // over the whole batch, invalid queries included. Dedup is by predicate
  // id: the interner's value identity is Value::operator==.
  ++batch_epoch_;
  if (batch_epoch_ == 0) {
    // Epoch counter wrapped: stale stamps could alias. Reset all stamps.
    std::fill(pred_epoch_.begin(), pred_epoch_.end(), 0u);
    std::fill(col_epoch_.begin(), col_epoch_.end(), 0u);
    batch_epoch_ = 1;
  }
  if (pred_epoch_.size() < interner_.num_predicates()) {
    pred_epoch_.resize(interner_.num_predicates(), 0u);
  }
  if (col_epoch_.size() < interner_.num_columns()) {
    col_epoch_.resize(interner_.num_columns(), 0u);
    col_slot_.resize(interner_.num_columns(), 0u);
  }
  batch_cols_.clear();
  for (QueryInterner::Id id : ids) {
    for (QueryInterner::Id pid :
         interner_.pred_list(interner_.query_pred_list(id))) {
      if (pred_epoch_[pid] == batch_epoch_) continue;
      pred_epoch_[pid] = batch_epoch_;
      const auto& parts = interner_.predicate(pid);
      if (col_epoch_[parts.column] != batch_epoch_) {
        col_epoch_[parts.column] = batch_epoch_;
        col_slot_[parts.column] = static_cast<uint32_t>(batch_cols_.size());
        batch_cols_.push_back(parts.column);
        if (batch_literals_.size() < batch_cols_.size()) {
          batch_literals_.emplace_back();
        }
        batch_literals_[col_slot_[parts.column]].clear();
      }
      batch_literals_[col_slot_[parts.column]].push_back(
          interner_.value(parts.value));
    }
  }

  // Group queries by (relation, dimension set) — integer keys; only queries
  // over the same joined relation may share a cube — then sort groups by
  // their plans' canonical text key, so group order (and with it
  // intra-batch rollup reuse, cube formation, and governor charges) does
  // not depend on interning order.
  struct BatchGroup {
    const GroupPlan* plan = nullptr;
    std::vector<size_t> query_indices;
  };
  std::unordered_map<uint64_t, size_t> group_index;
  std::vector<BatchGroup> batch_groups;
  ScanStats serial_scan;

  for (size_t i = 0; i < ids.size(); ++i) {
    const CompiledQuery& cq = compiled_[ids[i]];
    if (!cq.valid) {
      results[i] = std::nullopt;
      continue;
    }
    if (cq.normalized.unsatisfiable) {
      // Rare degenerate case: fall back to the reference executor so all
      // strategies agree on semantics.
      auto r = executor_.Execute(interner_.Materialize(ids[i]), &serial_scan,
                                 governor_, relation_cache_);
      if (!r.ok()) NoteQueryFailure(i, r.status());
      results[i] = r.ok() ? *r : std::nullopt;
      continue;
    }
    uint64_t gkey = (uint64_t{cq.relation} << 32) | uint64_t{cq.dimset};
    auto [git, inserted] = group_index.emplace(gkey, batch_groups.size());
    if (inserted) {
      batch_groups.push_back(BatchGroup{&EnsureGroupPlan(cq), {}});
    }
    batch_groups[git->second].query_indices.push_back(i);
  }
  std::sort(batch_groups.begin(), batch_groups.end(),
            [](const BatchGroup& a, const BatchGroup& b) {
              return a.plan->sort_key < b.plan->sort_key;
            });

  /// Where a query's aggregate comes from, keyed by aggregate id.
  struct Source {
    std::shared_ptr<CubeResult> cube;
    size_t agg_idx = 0;
    int job = -1;
  };
  struct PlannedGroup {
    std::vector<size_t> query_indices;
    std::unordered_map<QueryInterner::Id, Source> sources;
  };
  std::vector<CubeJob> jobs;
  std::vector<PlannedGroup> planned;
  planned.reserve(batch_groups.size());
  std::unordered_map<const CubeResult*, int> job_of_cube;

  for (BatchGroup& bg : batch_groups) {
    const GroupPlan& plan = *bg.plan;
    // Base aggregate ids needed by this group (ratio fns need a Count),
    // deduplicated in first-need order — aggregate ids are injective on
    // (fn, column) identity.
    std::vector<QueryInterner::Id> needed;
    for (size_t qi : bg.query_indices) {
      QueryInterner::Id agg = compiled_[ids[qi]].agg;
      if (std::find(needed.begin(), needed.end(), agg) == needed.end()) {
        needed.push_back(agg);
      }
    }

    // This batch's literals per group dimension (every dimension column
    // appeared in some raw predicate, so its batch slot exists).
    std::vector<const std::vector<Value>*> dim_literals;
    dim_literals.reserve(plan.dims.size());
    for (size_t d = 0; d < plan.dims.size(); ++d) {
      QueryInterner::Id col = interner_.dim_set(plan.dimset)[d];
      dim_literals.push_back(&batch_literals_[col_slot_[col]]);
    }

    PlannedGroup pg;
    pg.query_indices = std::move(bg.query_indices);
    std::vector<QueryInterner::Id> to_execute;
    for (QueryInterner::Id agg : needed) {
      if (use_cache) {
        SliceKey hit_key;
        const CacheEntry* hit = FindCachedIds(agg, plan, dim_literals,
                                              &hit_key);
        // A hit on an entry carried over from a previous governor run must
        // replay its recorded charges first (this batch's own shells are
        // exempt — their execution charges directly). A replay that trips
        // withdraws the entry and degrades the lookup to a miss, so the
        // rebuild aborts under the tripped governor exactly as a cold run.
        if (hit != nullptr && job_of_cube.count(hit->cube.get()) == 0 &&
            !ReplayChargesForHit(*hit)) {
          fp_cache_.erase(hit_key);
          hit = nullptr;
        }
        if (hit != nullptr) {
          ++stats_.cache_hits;
          Source src;
          src.cube = hit->cube;
          src.agg_idx = hit->agg_idx;
          auto jit = job_of_cube.find(hit->cube.get());
          if (jit != job_of_cube.end()) src.job = jit->second;
          pg.sources[agg] = std::move(src);
          continue;
        }
        ++stats_.cache_misses;
      }
      to_execute.push_back(agg);
    }

    if (!to_execute.empty()) {
      std::vector<std::vector<Value>> cube_literals;
      cube_literals.reserve(plan.dims.size());
      for (size_t d = 0; d < plan.dims.size(); ++d) {
        cube_literals.push_back(*dim_literals[d]);
        // Pre-warm the dimension's lazy dictionary (codes + distinct
        // values) while still serial; cube workers then only read it.
        if (plan.dim_columns[d] != nullptr) (void)plan.dim_columns[d]->Codes();
      }
      std::vector<CubeAggregate> cube_aggs;
      cube_aggs.reserve(to_execute.size());
      for (QueryInterner::Id agg : to_execute) {
        const auto& parts = interner_.aggregate(agg);
        CubeAggregate ca;
        ca.fn = parts.fn;
        ca.column = interner_.column(parts.column);
        // Pre-warm what the vectorized kernels read: the flat typed view of
        // the aggregate column, and the dictionary for CountDistinct.
        if (!ca.is_star()) {
          if (const Column* col = db_->FindColumn(ca.column)) {
            (void)col->Flat();
            if (ca.fn == AggFn::kCountDistinct) (void)col->Codes();
          }
        }
        cube_aggs.push_back(std::move(ca));
      }
      CubeJob job;
      job.shell = std::make_shared<CubeResult>(plan.dims, cube_literals,
                                               cube_aggs);
      const int job_idx = static_cast<int>(jobs.size());
      job_of_cube[job.shell.get()] = job_idx;
      ++stats_.cube_queries;
      for (size_t a = 0; a < to_execute.size(); ++a) {
        Source src;
        src.cube = job.shell;
        src.agg_idx = a;
        src.job = job_idx;
        pg.sources[to_execute[a]] = std::move(src);
        if (use_cache) {
          SliceKey key{to_execute[a], plan.relation, plan.dimset};
          auto [cit, inserted] =
              fp_cache_.emplace(key, CacheEntry{job.shell, a});
          if (!inserted) {
            // Republished slice (the earlier cube lacked a literal bucket):
            // replace the entry but keep its original rollup-scan position.
            cit->second = CacheEntry{job.shell, a};
          } else {
            fp_cache_order_[(uint64_t{to_execute[a]} << 32) |
                            uint64_t{plan.relation}]
                .push_back(key);
          }
          job.slice_keys.push_back(key);
        }
      }
      jobs.push_back(std::move(job));
    }
    planned.push_back(std::move(pg));
  }

  stats_.plan_seconds += plan_timer.ElapsedSeconds();

  ExecuteJobs(jobs);

  // ---- Fold phase (serial, job order) --------------------------------
  // Stats accumulate and failed jobs withdraw their cache entries in plan
  // order, so cache contents and counters never depend on interleaving.
  Timer fold_timer;
  for (CubeJob& job : jobs) {
    stats_.rows_scanned += job.scan.rows_scanned;
    stats_.joins_built += job.scan.joins_built;
    stats_.join_cache_hits += job.scan.join_cache_hits;
    stats_.join_seconds += job.scan.join_seconds;
    if (job.status.ok()) {
      // The execution just charged this run; stamp it so a later run (not
      // this one) replays the recorded charges on a warm hit.
      if (governor_ != nullptr) {
        job.shell->charges.charged_run = governor_->run_id();
      }
      stats_.probe_slice_rows_total +=
          job.scan.rows_scanned * job.shell->aggregates().size();
      continue;
    }
    for (const SliceKey& key : job.slice_keys) fp_cache_.erase(key);
    if (!job.status.IsResourceExhausted()) NoteHardError(job.status);
  }
  stats_.fold_seconds += fold_timer.ElapsedSeconds();

  // ---- Answer phase (serial, group order) ----------------------------
  Timer answer_timer;
  for (const PlannedGroup& pg : planned) {
    for (size_t qi : pg.query_indices) {
      const CompiledQuery& cq = compiled_[ids[qi]];
      auto it = pg.sources.find(cq.agg);
      if (it == pg.sources.end()) {
        results[qi] = std::nullopt;
        continue;
      }
      const Source& src = it->second;
      if (src.job >= 0 && !jobs[static_cast<size_t>(src.job)].status.ok()) {
        // Cube execution failed; a governor stop means this query was
        // aborted (its claim degrades to a partial verdict), anything else
        // is recorded for the recovery pass.
        NoteQueryFailure(qi, jobs[static_cast<size_t>(src.job)].status);
        results[qi] = std::nullopt;
        continue;
      }
      results[qi] = AnswerFromCube(interner_.Materialize(ids[qi]),
                                   cq.normalized, *src.cube, src.agg_idx);
    }
  }

  stats_.answer_seconds += answer_timer.ElapsedSeconds();

  stats_.rows_scanned += serial_scan.rows_scanned;
  stats_.joins_built += serial_scan.joins_built;
  stats_.join_cache_hits += serial_scan.join_cache_hits;
  stats_.join_seconds += serial_scan.join_seconds;
  return results;
}

}  // namespace db
}  // namespace aggchecker

