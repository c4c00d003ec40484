#include "db/relation_cache.h"

#include <algorithm>

#include "util/fault_injection.h"
#include "util/strings.h"
#include "util/timer.h"

namespace aggchecker {
namespace db {

std::string RelationCache::KeyOf(const std::vector<std::string>& tables) {
  std::vector<std::string> sorted;
  sorted.reserve(tables.size());
  for (const std::string& t : tables) sorted.push_back(strings::ToLower(t));
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string key;
  for (const std::string& t : sorted) {
    key += t;
    key += ',';
  }
  return key;
}

Result<std::shared_ptr<const JoinedRelation>> RelationCache::Acquire(
    const Database& db, const std::vector<std::string>& tables,
    ResourceGovernor::Shard& shard, AcquireInfo* info) {
  // Cached-path-only fault point (AcquireOrBuildRelation's uncached build
  // bypasses it): models a poisoned cache entry; the ladder's reference
  // rung, which detaches the relation cache, heals it.
  AGG_FAULT_POINT("relation.cache.acquire");
  const ResourceGovernor* governor = shard.governor();
  if (governor != nullptr) {
    Status trip = governor->TripStatus();
    if (!trip.ok()) return trip;  // budget spent before this acquire
  }

  const std::string key = KeyOf(tables);
  // Loop: an entry found stale (a member table's data version moved since
  // the build) is withdrawn and the lookup retried, which installs a fresh
  // entry and rebuilds under it — charging exactly as a cold build would.
  while (true) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& slot = entries_[key];
      if (slot == nullptr) slot = std::make_shared<Entry>();
      entry = slot;
    }

    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (!entry->build_attempted) {
      entry->build_attempted = true;
      Timer timer;
      auto built = JoinedRelation::Build(db, tables);
      const double seconds = timer.ElapsedSeconds();
      if (info != nullptr) info->build_seconds = seconds;
      if (!built.ok()) {
        entry->build_status = built.status();
        Withdraw(key, entry);  // failures are never cached; retry later
        return built.status();
      }
      entry->relation =
          std::make_shared<const JoinedRelation>(std::move(*built));
      for (const std::string& t : entry->relation->tables()) {
        entry->table_versions.emplace_back(t, db.TableVersion(t));
      }
      if (info != nullptr) info->built = true;
    } else if (!entry->build_status.ok()) {
      return entry->build_status;
    } else {
      bool stale = false;
      for (const auto& [table, version] : entry->table_versions) {
        if (db.TableVersion(table) != version) {
          stale = true;
          break;
        }
      }
      if (stale) {
        Withdraw(key, entry);
        continue;  // rebuild under a fresh entry
      }
      if (info != nullptr) info->hit = true;
    }

    // Charge the join's modeled bytes once per governor run. The entry
    // mutex is held across build *and* charge, so of two concurrent
    // acquirers the second observes charged_run already stamped and
    // charges nothing.
    if (governor != nullptr && entry->charged_run != governor->run_id()) {
      const uint64_t bytes = entry->relation->ApproxBytes();
      if (bytes > 0) {
        Status mem = shard.ChargeMemoryBytes(bytes);
        if (!mem.ok()) {
          // Withdrawal: the join does not fit this run's budget, so it
          // must not linger as cached-but-unaccounted state. A later run
          // with a larger budget rebuilds and re-charges it.
          Withdraw(key, entry);
          return mem;
        }
      }
      entry->charged_run = governor->run_id();
    }
    return entry->relation;
  }
}

void RelationCache::Withdraw(const std::string& key,
                             const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second == entry) entries_.erase(it);
}

void RelationCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t RelationCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Result<std::shared_ptr<const JoinedRelation>> AcquireOrBuildRelation(
    RelationCache* cache, const Database& db,
    const std::vector<std::string>& tables, ResourceGovernor::Shard& shard,
    RelationCache::AcquireInfo* info) {
  if (cache != nullptr) return cache->Acquire(db, tables, shard, info);
  Timer timer;
  auto built = JoinedRelation::Build(db, tables);
  if (info != nullptr) info->build_seconds = timer.ElapsedSeconds();
  if (!built.ok()) return built.status();
  if (info != nullptr) info->built = true;
  auto relation = std::make_shared<const JoinedRelation>(std::move(*built));
  Status mem = shard.ChargeMemoryBytes(relation->ApproxBytes());
  if (!mem.ok()) return mem;
  return relation;
}

}  // namespace db
}  // namespace aggchecker
