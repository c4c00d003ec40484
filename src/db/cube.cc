#include "db/cube.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>

#include "db/joined_relation.h"
#include "db/relation_cache.h"
#include "util/fault_injection.h"

namespace aggchecker {
namespace db {

std::optional<double> CubeResult::LookupPacked(uint64_t key,
                                               size_t agg_idx) const {
  auto it = cells_.find(key);
  if (it == cells_.end()) return std::nullopt;
  return it->second[agg_idx];
}

int16_t CubeResult::BucketOf(size_t dim, const Value& v) const {
  const auto& index = literal_index_[dim];
  auto it = index.find(v);
  return it == index.end() ? kDefaultBucket : it->second;
}

void CubeResult::SetPacked(uint64_t key, size_t agg_idx, double value) {
  auto& cell = cells_[key];
  if (cell.empty()) cell.resize(aggregates_.size());
  cell[agg_idx] = value;
}

const char* CubeExecModeName(CubeExecMode mode) {
  switch (mode) {
    case CubeExecMode::kVectorized:
      return "Vectorized";
    case CubeExecMode::kScalarOracle:
      return "ScalarOracle";
  }
  return "?";
}

Result<std::shared_ptr<CubeResult>> ExecuteCube(
    const Database& db, const std::vector<ColumnRef>& dims,
    const std::vector<std::vector<Value>>& relevant_literals,
    const std::vector<CubeAggregate>& aggregates, ScanStats* stats,
    const ResourceGovernor* governor, const CubeExecOptions& options) {
  auto result =
      std::make_shared<CubeResult>(dims, relevant_literals, aggregates);
  Status status = ExecuteCubeInto(db, *result, stats, governor, options);
  if (!status.ok()) return status;
  return result;
}

namespace {

// Modeled memory footprints charged against GovernorLimits::max_memory_bytes.
// Canonical constants shared by both execution modes (not allocator truth),
// so memory totals stay mode- and thread-invariant: one combo charges its
// key + fanout bookkeeping, one group charges key/cell bookkeeping plus one
// accumulator per aggregate. Transient per-mode scratch is not charged:
// the vectorized row->combo array and per-block hash maps, and the COUNT
// DISTINCT kernel's rows bucketed by combo, inverted group -> combo
// fanout, per-combo code lists and per-code stamp array. It is bounded by
// the row count, the fanout and the column dictionary, not by the
// group/combo structure the budget models.
constexpr uint64_t kModeledComboBytes = 64;
constexpr uint64_t kModeledGroupBaseBytes = 32;
constexpr uint64_t kModeledAggStateBytes = 64;

}  // namespace

Status ReplayCubeCharges(const CubeResult& cube,
                         ResourceGovernor::Shard& shard) {
  const size_t num_subsets = static_cast<size_t>(1) << cube.dims().size();
  const uint64_t combo_bytes =
      kModeledComboBytes + num_subsets * sizeof(uint32_t);
  const uint64_t group_bytes =
      kModeledGroupBaseBytes + cube.aggregates().size() * kModeledAggStateBytes;
  const CubeCharges& c = cube.charges;
  // Zero-amount charges are skipped, not passed through: they would still
  // inspect limits, and a cold run performs no inspection for work it never
  // did.
  Status s = Status::OK();
  if (c.rows > 0) s = shard.ChargeRows(c.rows);
  if (s.ok() && c.combos > 0) s = shard.ChargeMemoryBytes(c.combos * combo_bytes);
  if (s.ok() && c.groups > 0) s = shard.ChargeCubeGroups(c.groups);
  if (s.ok() && c.groups > 0) s = shard.ChargeMemoryBytes(c.groups * group_bytes);
  if (s.ok()) s = shard.Flush();
  return s;
}

Status CubeExecution::Prepare(const Database& db, CubeResult* result,
                              ScanStats* stats,
                              const ResourceGovernor* governor,
                              const CubeExecOptions& options) {
  AGG_FAULT_POINT("cube.materialize");
  result_ = result;
  stats_ = stats;
  governor_ = governor;
  mode_ = options.mode;

  const std::vector<ColumnRef>& dims = result->dims();
  const std::vector<CubeAggregate>& aggregates = result->aggregates();
  if (dims.size() != result->literals().size()) {
    return Status::InvalidArgument("dims/literals size mismatch");
  }
  if (aggregates.empty()) {
    return Status::InvalidArgument("cube query needs at least one aggregate");
  }
  for (const CubeAggregate& agg : aggregates) {
    if (agg.fn == AggFn::kPercentage ||
        agg.fn == AggFn::kConditionalProbability) {
      return Status::InvalidArgument(
          "ratio aggregates must be derived from counts, not cubed directly");
    }
  }
  if (dims.size() > CubeResult::kMaxDims) {
    return Status::Unsupported("cube dimensionality above 4 not supported");
  }

  // Tables referenced by dims and aggregates; joined along PK-FK paths.
  std::set<std::string> table_set;
  for (const ColumnRef& dim : dims) table_set.insert(dim.table);
  for (const CubeAggregate& a : aggregates) {
    // Star aggregates still carry the table to count rows of.
    if (!a.column.table.empty()) table_set.insert(a.column.table);
  }
  if (table_set.empty()) {
    return Status::InvalidArgument("cube query references no table");
  }
  std::vector<std::string> tables(table_set.begin(), table_set.end());

  // The join's row-index arrays are the first modeled allocation; the
  // acquisition charges them (once per cached relation per governor run,
  // or per build when uncached).
  ResourceGovernor::Shard shard(governor);
  RelationCache::AcquireInfo join_info;
  auto rel = AcquireOrBuildRelation(options.relation_cache, db, tables,
                                    shard, &join_info);
  if (stats != nullptr) {
    stats->joins_built += join_info.built ? 1 : 0;
    stats->join_cache_hits += join_info.hit ? 1 : 0;
    stats->join_seconds += join_info.build_seconds;
  }
  if (!rel.ok()) return rel.status();
  relation_ = *rel;

  dim_bindings_.clear();
  dim_bindings_.reserve(dims.size());
  for (const ColumnRef& dim : dims) {
    auto b = relation_->Bind(dim);
    if (!b.ok()) return b.status();
    dim_bindings_.push_back(*b);
  }
  agg_bindings_.assign(aggregates.size(), JoinedRelation::Binding{});
  for (size_t i = 0; i < aggregates.size(); ++i) {
    if (aggregates[i].is_star()) continue;
    auto b = relation_->Bind(aggregates[i].column);
    if (!b.ok()) return b.status();
    agg_bindings_[i] = *b;
  }

  access_.assign(dims.size(), DimAccess{});
  for (size_t i = 0; i < dims.size(); ++i) {
    const Column* column = dim_bindings_[i].column;
    access_[i].codes = &column->Codes();
    const auto& distinct = column->DistinctValues();
    access_[i].code_to_bucket.resize(distinct.size());
    for (size_t c = 0; c < distinct.size(); ++c) {
      access_[i].code_to_bucket[c] = result->BucketOf(i, distinct[c]);
    }
  }

  const size_t num_rows = relation_->num_rows();
  constexpr size_t kBlock = ResourceGovernor::kCheckIntervalRows;
  if (mode_ == CubeExecMode::kScalarOracle) {
    // The oracle is inherently sequential: one morsel covers the scan.
    num_blocks_ = 1;
  } else {
    num_blocks_ = (num_rows + kBlock - 1) / kBlock;
    row_combo_.assign(num_rows, 0);
    block_first_keys_.assign(num_blocks_, {});
  }
  return Status::OK();
}

Status CubeExecution::ScanBlock(size_t block) {
  return mode_ == CubeExecMode::kScalarOracle ? RunScalarOracle()
                                              : ScanVectorizedBlock(block);
}

Status CubeExecution::Finish() {
  if (mode_ == CubeExecMode::kVectorized) {
    Status status = FinishVectorized();
    if (!status.ok()) return status;
  }
  // The oracle writes its result cells inside RunScalarOracle.
  if (stats_ != nullptr) stats_->rows_scanned += relation_->num_rows();
  result_->charges.rows = relation_->num_rows();
  return Status::OK();
}

/// \brief Row-at-a-time reference path (CubeExecMode::kScalarOracle).
///
/// Every row fans out to its 2^d groups through boxed `Value`s and
/// `Aggregator`s. This is the semantics oracle the vectorized kernels are
/// differentially tested against, and the baseline the perf-smoke CI step
/// compares with.
Status CubeExecution::RunScalarOracle() {
  const JoinedRelation& rel = *relation_;
  CubeResult& result = *result_;
  const std::vector<CubeAggregate>& aggregates = result.aggregates();
  const size_t d = dim_bindings_.size();
  const size_t num_subsets = static_cast<size_t>(1) << d;
  const Value star_placeholder(static_cast<int64_t>(1));
  const uint64_t combo_bytes =
      kModeledComboBytes + num_subsets * sizeof(uint32_t);
  const uint64_t group_bytes =
      kModeledGroupBaseBytes + aggregates.size() * kModeledAggStateBytes;
  ResourceGovernor::Shard shard(governor_);

  // Group accumulators, addressed by dense index; `group_keys` remembers
  // each group's packed bucket key for the final result assembly.
  std::vector<std::vector<Aggregator>> groups;
  std::vector<uint64_t> group_keys;
  std::unordered_map<uint64_t, uint32_t> group_index;

  // Rows sharing a bucket combination update the same 2^d groups; cache
  // the group-id fan-out per combination so the hot loop performs a single
  // hash lookup per row.
  std::unordered_map<uint64_t, uint32_t> combo_index;
  std::vector<std::vector<uint32_t>> combo_groups;

  int16_t row_buckets[CubeResult::kMaxDims] = {0, 0, 0, 0};
  int16_t key_buckets[CubeResult::kMaxDims] = {0, 0, 0, 0};

  const size_t num_rows = rel.num_rows();
  constexpr size_t kBlock = ResourceGovernor::kCheckIntervalRows;
  for (size_t r = 0; r < num_rows; ++r) {
    if ((r % kBlock) == 0) {
      Status charge =
          shard.ChargeRows(std::min<uint64_t>(kBlock, num_rows - r));
      if (!charge.ok()) return charge;
    }
    for (size_t i = 0; i < d; ++i) {
      size_t base = dim_bindings_[i].base_row(r);
      int32_t code = (*access_[i].codes)[base];
      row_buckets[i] =
          code < 0 ? kDefaultBucket : access_[i].code_to_bucket[code];
    }
    auto [combo_it, combo_new] =
        combo_index.try_emplace(CubeResult::PackKey(row_buckets, d),
                                static_cast<uint32_t>(combo_groups.size()));
    if (combo_new) {
      // First row with this bucket combination: resolve (creating on
      // demand) the 2^d groups it contributes to.
      Status mem = shard.ChargeMemoryBytes(combo_bytes);
      if (!mem.ok()) return mem;
      std::vector<uint32_t> fanout;
      fanout.reserve(num_subsets);
      uint64_t new_groups = 0;
      for (size_t mask = 0; mask < num_subsets; ++mask) {
        for (size_t i = 0; i < d; ++i) {
          key_buckets[i] = (mask & (1u << i)) ? row_buckets[i] : kAllBucket;
        }
        auto [it, inserted] = group_index.try_emplace(
            CubeResult::PackKey(key_buckets, d),
            static_cast<uint32_t>(groups.size()));
        if (inserted) {
          std::vector<Aggregator> accs;
          accs.reserve(aggregates.size());
          for (const CubeAggregate& a : aggregates) accs.emplace_back(a.fn);
          groups.push_back(std::move(accs));
          group_keys.push_back(it->first);
          ++new_groups;
        }
        fanout.push_back(it->second);
      }
      combo_groups.push_back(std::move(fanout));
      if (new_groups > 0) {
        // Group materialization is the cube-explosion lever; charge it
        // separately from row scans so a budget can bound it directly,
        // then charge its modeled accumulator bytes.
        Status charge = shard.ChargeCubeGroups(new_groups);
        if (!charge.ok()) return charge;
        Status gmem = shard.ChargeMemoryBytes(new_groups * group_bytes);
        if (!gmem.ok()) return gmem;
      }
    }
    for (uint32_t group : combo_groups[combo_it->second]) {
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const Value& v = aggregates[a].is_star() ? star_placeholder
                                                 : agg_bindings_[a].at(r);
        groups[group][a].Add(v);
      }
    }
  }

  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t a = 0; a < groups[g].size(); ++a) {
      std::optional<double> v = groups[g][a].Finish();
      if (v.has_value()) result.SetPacked(group_keys[g], a, *v);
    }
  }
  result.charges.combos = combo_groups.size();
  result.charges.groups = groups.size();
  return Status::OK();
}

/// \brief Pass 1 of the combo-partitioned pipeline, one block.
///
/// Maps every row of the block to a block-local bucket-combination id using
/// dictionary codes and records the packed keys in local first-appearance
/// order. Runs concurrently with other blocks (of this or any other cube
/// execution); FinishVectorized renumbers the local ids globally in block
/// order, so global ids equal the oracle's first-appearance order for any
/// thread count or morsel interleaving.
Status CubeExecution::ScanVectorizedBlock(size_t block) {
  // Vectorized-path-only fault point (the scalar oracle never passes
  // through here): chaos tests arm it to prove the fallback ladder's
  // reference rung heals a poisoned vectorized kernel bit-identically.
  AGG_FAULT_POINT("cube.scan.vectorized");
  const size_t num_rows = relation_->num_rows();
  const size_t d = dim_bindings_.size();
  constexpr size_t kBlock = ResourceGovernor::kCheckIntervalRows;
  const size_t begin = block * kBlock;
  const size_t end = std::min(begin + kBlock, num_rows);

  std::array<const uint32_t*, CubeResult::kMaxDims> dim_idx{};
  std::array<const int32_t*, CubeResult::kMaxDims> dim_codes{};
  std::array<const int16_t*, CubeResult::kMaxDims> dim_buckets{};
  for (size_t i = 0; i < d; ++i) {
    dim_idx[i] = dim_bindings_[i].index;
    dim_codes[i] = access_[i].codes->data();
    dim_buckets[i] = access_[i].code_to_bucket.data();
  }

  // Per-block shard: row charges fold into the shared governor atomics
  // once per block, the same totals as the oracle's per-block charging.
  ResourceGovernor::Shard block_shard(governor_);
  Status charge = block_shard.ChargeRows(end - begin);
  if (!charge.ok()) return charge;
  std::unordered_map<uint64_t, uint32_t> local;
  std::vector<uint64_t>& first_keys = block_first_keys_[block];
  int16_t buckets[CubeResult::kMaxDims] = {0, 0, 0, 0};
  for (size_t r = begin; r < end; ++r) {
    for (size_t i = 0; i < d; ++i) {
      size_t base = dim_idx[i] != nullptr ? dim_idx[i][r] : r;
      int32_t code = dim_codes[i][base];
      buckets[i] = code < 0 ? kDefaultBucket : dim_buckets[i][code];
    }
    uint64_t key = CubeResult::PackKey(buckets, d);
    auto [it, fresh] =
        local.try_emplace(key, static_cast<uint32_t>(first_keys.size()));
    if (fresh) first_keys.push_back(key);
    row_combo_[r] = it->second;
  }
  return Status::OK();
}

/// \brief Serial epilogue of the combo-partitioned pipeline.
///
/// Folds the per-block combo ids in block order (pass 1's deterministic
/// fold), builds the combo -> group fanout, then runs one typed kernel per
/// aggregate over the flat primitive column views (pass 2) and distributes
/// combo accumulators into the 2^d groups (pass 3).
///
/// Bit-exactness with the oracle is by construction, not by tolerance:
///  - Count / CountDistinct fold integers (order-independent); distinct
///    values are dictionary codes, whose identity matches `Value` equality
///    (numeric coercion, per-occurrence NaN codes) exactly.
///  - Sum / Avg accumulate per *group* in global row order — the identical
///    floating-point addition sequence the oracle performs — because FP
///    addition does not commute across a per-combo regrouping.
///  - Min / Max keep per-combo (best, first row attaining it) and fold with
///    strict comparisons + earliest-row tie-break, reproducing the oracle's
///    first-occurrence semantics (observable only through -0.0/+0.0
///    representation; NaN inputs poison the group to nullopt either way).
Status CubeExecution::FinishVectorized() {
  const JoinedRelation& rel = *relation_;
  CubeResult& result = *result_;
  const std::vector<CubeAggregate>& aggregates = result.aggregates();
  const size_t d = dim_bindings_.size();
  const size_t num_subsets = static_cast<size_t>(1) << d;
  const size_t num_rows = rel.num_rows();
  constexpr size_t kBlock = ResourceGovernor::kCheckIntervalRows;
  const size_t num_blocks = num_blocks_;
  ResourceGovernor::Shard shard(governor_);

  // Serial fold in block order: global combo ids equal first-appearance
  // order over the whole relation — exactly the order the oracle discovers
  // combos in — for any thread count. Fresh combos charge their modeled
  // state here (the oracle charges at discovery inside the scan; totals on
  // completed runs are identical).
  std::unordered_map<uint64_t, uint32_t> combo_ids;
  std::vector<uint64_t> combo_keys;
  std::vector<std::vector<uint32_t>> translate(num_blocks);
  const uint64_t combo_bytes =
      kModeledComboBytes + num_subsets * sizeof(uint32_t);
  for (size_t b = 0; b < num_blocks; ++b) {
    translate[b].reserve(block_first_keys_[b].size());
    for (uint64_t key : block_first_keys_[b]) {
      auto [it, fresh] =
          combo_ids.try_emplace(key, static_cast<uint32_t>(combo_keys.size()));
      if (fresh) {
        combo_keys.push_back(key);
        Status mem = shard.ChargeMemoryBytes(combo_bytes);
        if (!mem.ok()) return mem;
      }
      translate[b].push_back(it->second);
    }
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * kBlock;
    const size_t end = std::min(begin + kBlock, num_rows);
    const std::vector<uint32_t>& tr = translate[b];
    for (size_t r = begin; r < end; ++r) row_combo_[r] = tr[row_combo_[r]];
  }
  const size_t num_combos = combo_keys.size();

  // ---- Combo -> group fanout (serial, combo order) -------------------
  // Same group-id assignment and charge order as the oracle: combos in
  // first-appearance order, masks 0..2^d-1 within each combo.
  std::unordered_map<uint64_t, uint32_t> group_index;
  std::vector<uint64_t> group_keys;
  std::vector<uint32_t> fanout;
  fanout.reserve(num_combos * num_subsets);
  const uint64_t group_bytes =
      kModeledGroupBaseBytes + aggregates.size() * kModeledAggStateBytes;
  int16_t row_buckets[CubeResult::kMaxDims] = {0, 0, 0, 0};
  int16_t key_buckets[CubeResult::kMaxDims] = {0, 0, 0, 0};
  for (size_t c = 0; c < num_combos; ++c) {
    const uint64_t key = combo_keys[c];
    for (size_t i = 0; i < d; ++i) {
      row_buckets[i] = static_cast<int16_t>(
          static_cast<int32_t>((key >> (16 * (d - 1 - i))) & 0xFFFF) - 3);
    }
    uint64_t new_groups = 0;
    for (size_t mask = 0; mask < num_subsets; ++mask) {
      for (size_t i = 0; i < d; ++i) {
        key_buckets[i] = (mask & (1u << i)) ? row_buckets[i] : kAllBucket;
      }
      auto [it, inserted] = group_index.try_emplace(
          CubeResult::PackKey(key_buckets, d),
          static_cast<uint32_t>(group_keys.size()));
      if (inserted) {
        group_keys.push_back(it->first);
        ++new_groups;
      }
      fanout.push_back(it->second);
    }
    if (new_groups > 0) {
      Status charge = shard.ChargeCubeGroups(new_groups);
      if (!charge.ok()) return charge;
      Status gmem = shard.ChargeMemoryBytes(new_groups * group_bytes);
      if (!gmem.ok()) return gmem;
    }
  }
  const size_t num_groups = group_keys.size();
  result.charges.combos = num_combos;
  result.charges.groups = num_groups;

  // ---- Pass 2 + 3: typed kernels, folded into groups -----------------
  // Combo tallies distribute into groups as exact integers.
  auto fold_counts = [&](const std::vector<int64_t>& combo_n) {
    std::vector<int64_t> group_n(num_groups, 0);
    for (size_t c = 0; c < num_combos; ++c) {
      if (combo_n[c] == 0) continue;
      const uint32_t* fan = &fanout[c * num_subsets];
      for (size_t s = 0; s < num_subsets; ++s) group_n[fan[s]] += combo_n[c];
    }
    return group_n;
  };

  // Rows per combo; serves every star aggregate (the oracle feeds them a
  // constant non-null placeholder, so their input is "one 1 per row").
  std::vector<int64_t> combo_rows;
  auto rows_per_combo = [&]() -> const std::vector<int64_t>& {
    if (combo_rows.empty() && num_combos > 0) {
      combo_rows.assign(num_combos, 0);
      for (size_t r = 0; r < num_rows; ++r) ++combo_rows[row_combo_[r]];
    }
    return combo_rows;
  };

  // Rows bucketed by combo (a counting sort, row order within a combo) and
  // the fanout inverted into group -> combo lists. Built on the first
  // column COUNT DISTINCT and shared by the cube's later ones.
  struct DistinctIndex {
    std::vector<uint32_t> combo_begin, combo_rows;
    std::vector<uint32_t> group_begin, group_combos;
  };
  DistinctIndex distinct;
  auto distinct_index = [&]() -> const DistinctIndex& {
    if (!distinct.combo_begin.empty()) return distinct;
    const std::vector<int64_t>& n = rows_per_combo();
    distinct.combo_begin.assign(num_combos + 1, 0);
    for (size_t c = 0; c < num_combos; ++c) {
      distinct.combo_begin[c + 1] =
          distinct.combo_begin[c] + static_cast<uint32_t>(n[c]);
    }
    std::vector<uint32_t> next(distinct.combo_begin.begin(),
                               distinct.combo_begin.end() - 1);
    distinct.combo_rows.resize(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      distinct.combo_rows[next[row_combo_[r]]++] = static_cast<uint32_t>(r);
    }
    distinct.group_begin.assign(num_groups + 1, 0);
    for (uint32_t g : fanout) ++distinct.group_begin[g + 1];
    for (size_t g = 0; g < num_groups; ++g) {
      distinct.group_begin[g + 1] += distinct.group_begin[g];
    }
    next.assign(distinct.group_begin.begin(), distinct.group_begin.end() - 1);
    distinct.group_combos.resize(fanout.size());
    for (size_t i = 0; i < fanout.size(); ++i) {
      distinct.group_combos[next[fanout[i]]++] =
          static_cast<uint32_t>(i / num_subsets);
    }
    return distinct;
  };

  struct Extreme {
    double best = 0.0;
    uint64_t best_row = 0;  ///< first row attaining `best` (tie-break)
    uint8_t has = 0;
    uint8_t poison = 0;  ///< saw a non-finite value
  };

  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggFn fn = aggregates[a].fn;
    const bool star = aggregates[a].is_star();
    const Column* col = star ? nullptr : agg_bindings_[a].column;
    const uint32_t* idx = star ? nullptr : agg_bindings_[a].index;

    switch (fn) {
      case AggFn::kCount: {
        std::vector<int64_t> combo_n;
        if (star) {
          combo_n = rows_per_combo();
        } else {
          const Column::FlatView& flat = col->Flat();
          combo_n.assign(num_combos, 0);
          for (size_t r = 0; r < num_rows; ++r) {
            size_t base = idx != nullptr ? idx[r] : r;
            combo_n[row_combo_[r]] +=
                static_cast<int64_t>(flat.nulls[base] == 0);
          }
        }
        std::vector<int64_t> group_n = fold_counts(combo_n);
        for (size_t g = 0; g < num_groups; ++g) {
          result.SetPacked(group_keys[g], a, static_cast<double>(group_n[g]));
        }
        break;
      }

      case AggFn::kCountDistinct: {
        if (star) {
          // Oracle semantics: every row feeds the same placeholder, so any
          // materialized group has exactly one distinct value.
          for (size_t g = 0; g < num_groups; ++g) {
            result.SetPacked(group_keys[g], a, 1.0);
          }
          break;
        }
        // Dictionary codes are distinct-value identities: the dictionary
        // dedupes by `Value` equality (numeric coercion included) and gives
        // each NaN occurrence its own code — exactly the membership rule of
        // the oracle's unordered_set<Value>. Codes lie in [0, distinct) (the
        // snapshot reader rejects files where they do not), so one stamp
        // per code dedupes without hashing: first each combo's codes, then
        // each group's union of its combos' codes.
        const DistinctIndex& index = distinct_index();
        const std::vector<int32_t>& codes = col->Codes();
        std::vector<uint32_t> stamp(col->DistinctValues().size(), 0);
        uint32_t epoch = 0;
        std::vector<uint32_t> combo_code_begin(num_combos + 1, 0);
        std::vector<int32_t> combo_codes;
        for (size_t c = 0; c < num_combos; ++c) {
          ++epoch;
          for (uint32_t i = index.combo_begin[c];
               i < index.combo_begin[c + 1]; ++i) {
            const uint32_t r = index.combo_rows[i];
            const int32_t code = codes[idx != nullptr ? idx[r] : r];
            if (code < 0 || stamp[code] == epoch) continue;
            stamp[code] = epoch;
            combo_codes.push_back(code);
          }
          combo_code_begin[c + 1] = static_cast<uint32_t>(combo_codes.size());
        }
        for (size_t g = 0; g < num_groups; ++g) {
          ++epoch;
          int64_t n = 0;
          for (uint32_t i = index.group_begin[g];
               i < index.group_begin[g + 1]; ++i) {
            const uint32_t c = index.group_combos[i];
            for (uint32_t j = combo_code_begin[c];
                 j < combo_code_begin[c + 1]; ++j) {
              const int32_t code = combo_codes[j];
              n += stamp[code] != epoch;
              stamp[code] = epoch;
            }
          }
          result.SetPacked(group_keys[g], a, static_cast<double>(n));
        }
        break;
      }

      case AggFn::kSum:
      case AggFn::kAvg: {
        if (star) {
          // Sum of n ones is exactly n (n < 2^53); their average exactly 1.
          std::vector<int64_t> group_n = fold_counts(rows_per_combo());
          for (size_t g = 0; g < num_groups; ++g) {
            if (group_n[g] == 0) continue;
            result.SetPacked(
                group_keys[g], a,
                fn == AggFn::kSum ? static_cast<double>(group_n[g]) : 1.0);
          }
          break;
        }
        const Column::FlatView& flat = col->Flat();
        // Non-numeric columns coerce to 0.0 per Value::ToDouble, matching
        // the oracle (queries gate Sum/Avg to numeric columns upstream).
        const double* xs = flat.doubles;
        std::vector<int64_t> combo_n(num_combos, 0);
        std::vector<double> group_sum(num_groups, 0.0);
        std::vector<uint8_t> group_poison(num_groups, 0);
        for (size_t r = 0; r < num_rows; ++r) {
          size_t base = idx != nullptr ? idx[r] : r;
          if (flat.nulls[base]) continue;
          const double x = xs != nullptr ? xs[base] : 0.0;
          const uint32_t c = row_combo_[r];
          ++combo_n[c];
          const uint8_t bad = std::isfinite(x) ? 0 : 1;
          const uint32_t* fan = &fanout[c * num_subsets];
          for (size_t s = 0; s < num_subsets; ++s) {
            group_sum[fan[s]] += x;
            group_poison[fan[s]] |= bad;
          }
        }
        std::vector<int64_t> group_n = fold_counts(combo_n);
        for (size_t g = 0; g < num_groups; ++g) {
          if (group_n[g] == 0 || group_poison[g] ||
              !std::isfinite(group_sum[g])) {
            continue;  // empty, poisoned, or overflowed: undefined
          }
          result.SetPacked(group_keys[g], a,
                           fn == AggFn::kSum
                               ? group_sum[g]
                               : group_sum[g] /
                                     static_cast<double>(group_n[g]));
        }
        break;
      }

      case AggFn::kMin:
      case AggFn::kMax: {
        if (star) {
          for (size_t g = 0; g < num_groups; ++g) {
            result.SetPacked(group_keys[g], a, 1.0);
          }
          break;
        }
        const Column::FlatView& flat = col->Flat();
        const double* xs = flat.doubles;
        const bool is_min = fn == AggFn::kMin;
        std::vector<Extreme> combo_ext(num_combos);
        for (size_t r = 0; r < num_rows; ++r) {
          size_t base = idx != nullptr ? idx[r] : r;
          if (flat.nulls[base]) continue;
          const double x = xs != nullptr ? xs[base] : 0.0;
          Extreme& e = combo_ext[row_combo_[r]];
          e.poison |= !std::isfinite(x);
          if (!e.has) {
            e.best = x;
            e.best_row = r;
            e.has = 1;
          } else if (is_min ? (x < e.best) : (x > e.best)) {
            e.best = x;
            e.best_row = r;
          }
        }
        std::vector<Extreme> group_ext(num_groups);
        for (size_t c = 0; c < num_combos; ++c) {
          const Extreme& e = combo_ext[c];
          if (!e.has) continue;
          const uint32_t* fan = &fanout[c * num_subsets];
          for (size_t s = 0; s < num_subsets; ++s) {
            Extreme& ge = group_ext[fan[s]];
            ge.poison |= e.poison;
            if (!ge.has) {
              ge.best = e.best;
              ge.best_row = e.best_row;
              ge.has = 1;
            } else {
              const bool better =
                  is_min ? (e.best < ge.best) : (e.best > ge.best);
              // Equal bests (e.g. -0.0 vs +0.0) keep the earliest row's
              // representation, like the oracle's strict-compare replace.
              if (better ||
                  (e.best == ge.best && e.best_row < ge.best_row)) {
                ge.best = e.best;
                ge.best_row = e.best_row;
              }
            }
          }
        }
        for (size_t g = 0; g < num_groups; ++g) {
          if (!group_ext[g].has || group_ext[g].poison) continue;
          result.SetPacked(group_keys[g], a, group_ext[g].best);
        }
        break;
      }

      default:
        return Status::Internal("unexpected cube aggregate function");
    }
  }
  return Status::OK();
}

Status ExecuteCubeInto(const Database& db, CubeResult& result,
                       ScanStats* stats, const ResourceGovernor* governor,
                       const CubeExecOptions& options) {
  CubeExecution exec;
  Status prep = exec.Prepare(db, &result, stats, governor, options);
  if (!prep.ok()) return prep;
  for (size_t b = 0; b < exec.num_blocks(); ++b) {
    Status status = exec.ScanBlock(b);
    if (!status.ok()) return status;
  }
  return exec.Finish();
}

}  // namespace db
}  // namespace aggchecker
