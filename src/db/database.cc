#include "db/database.h"

#include <algorithm>
#include <deque>
#include <set>

#include "db/relation_cache.h"
#include "util/strings.h"

namespace aggchecker {
namespace db {

Database::Database(std::string name)
    : name_(std::move(name)),
      relation_cache_(std::make_unique<RelationCache>()) {}

// Out of line so RelationCache is a complete type where unique_ptr needs it.
Database::~Database() = default;
Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;

Status Database::AddTable(Table table) {
  std::string key = strings::ToLower(table.name());
  if (table_index_.count(key) > 0) {
    return Status::InvalidArgument("duplicate table: " + table.name());
  }
  table_index_[key] = static_cast<int>(tables_.size());
  tables_.push_back(std::make_unique<Table>(std::move(table)));
  return Status::OK();
}

int Database::TableIndex(const std::string& name) const {
  auto it = table_index_.find(strings::ToLower(name));
  return it == table_index_.end() ? -1 : it->second;
}

const Table* Database::FindTable(const std::string& name) const {
  int idx = TableIndex(name);
  return idx < 0 ? nullptr : tables_[static_cast<size_t>(idx)].get();
}

const Column* Database::FindColumn(const ColumnRef& ref) const {
  const Table* table = FindTable(ref.table);
  return table == nullptr ? nullptr : table->FindColumn(ref.column);
}

Status Database::AppendRows(const std::string& table,
                            std::vector<std::vector<Value>> rows) {
  int idx = TableIndex(table);
  if (idx < 0) return Status::NotFound("unknown table: " + table);
  return tables_[static_cast<size_t>(idx)]->AppendRows(std::move(rows));
}

uint64_t Database::TableVersion(const std::string& table) const {
  int idx = TableIndex(table);
  return idx < 0 ? 0 : tables_[static_cast<size_t>(idx)]->version();
}

std::vector<std::pair<std::string, uint64_t>> Database::VersionVector()
    const {
  std::vector<std::pair<std::string, uint64_t>> versions;
  versions.reserve(tables_.size());
  for (const auto& t : tables_) {
    versions.emplace_back(strings::ToLower(t->name()), t->version());
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

bool Database::WouldCreateCycle(const std::string& a,
                                const std::string& b) const {
  // The join graph (tables as nodes, FKs as undirected edges) must stay a
  // forest: adding edge a-b creates a cycle iff b is already reachable from a.
  std::string la = strings::ToLower(a);
  std::string lb = strings::ToLower(b);
  if (la == lb) return true;  // self edge
  std::deque<std::string> frontier{la};
  std::set<std::string> visited{la};
  while (!frontier.empty()) {
    std::string cur = frontier.front();
    frontier.pop_front();
    for (const ForeignKey& fk : foreign_keys_) {
      std::string u = strings::ToLower(fk.from.table);
      std::string v = strings::ToLower(fk.to.table);
      std::string next;
      if (u == cur) {
        next = v;
      } else if (v == cur) {
        next = u;
      } else {
        continue;
      }
      if (next == lb) return true;
      if (visited.insert(next).second) frontier.push_back(next);
    }
  }
  return false;
}

Status Database::AddForeignKey(const ColumnRef& from, const ColumnRef& to) {
  if (FindColumn(from) == nullptr) {
    return Status::InvalidArgument("unknown FK column: " + from.ToString());
  }
  if (FindColumn(to) == nullptr) {
    return Status::InvalidArgument("unknown PK column: " + to.ToString());
  }
  if (WouldCreateCycle(from.table, to.table)) {
    return Status::InvalidArgument(
        strings::Format("foreign key %s -> %s would create a cycle",
                        from.ToString().c_str(), to.ToString().c_str()));
  }
  foreign_keys_.push_back(ForeignKey{from, to});
  return Status::OK();
}

Result<JoinPlanResult> Database::JoinPlan(
    const std::vector<std::string>& tables) const {
  if (tables.empty()) return Status::InvalidArgument("no tables requested");
  std::set<std::string> wanted;
  for (const auto& t : tables) {
    if (TableIndex(t) < 0) return Status::NotFound("unknown table: " + t);
    wanted.insert(strings::ToLower(t));
  }
  const std::string root = *wanted.begin();
  wanted.erase(wanted.begin());

  // BFS from the root through the FK forest, recording the parent edge of
  // each visited table. Since the graph is a forest, paths are unique.
  struct ParentEdge {
    std::string parent;
    ColumnRef parent_col;
    ColumnRef child_col;
  };
  std::unordered_map<std::string, ParentEdge> parents;
  std::deque<std::string> frontier{root};
  std::set<std::string> visited{root};
  while (!frontier.empty()) {
    std::string cur = frontier.front();
    frontier.pop_front();
    for (const ForeignKey& fk : foreign_keys_) {
      std::string u = strings::ToLower(fk.from.table);
      std::string v = strings::ToLower(fk.to.table);
      std::string next;
      ColumnRef parent_col, child_col;
      if (u == cur && visited.count(v) == 0) {
        next = v;
        parent_col = fk.from;
        child_col = fk.to;
      } else if (v == cur && visited.count(u) == 0) {
        next = u;
        parent_col = fk.to;
        child_col = fk.from;
      } else {
        continue;
      }
      visited.insert(next);
      parents[next] = ParentEdge{cur, parent_col, child_col};
      frontier.push_back(next);
    }
  }

  // Union the root-to-target paths; only tables on those paths are joined.
  std::vector<std::string> join_order;  // child tables, parent-before-child
  std::set<std::string> on_plan{root};
  for (const std::string& target : wanted) {
    if (visited.count(target) == 0) {
      return Status::NotFound("table not reachable via join graph: " + target);
    }
    std::vector<std::string> path;
    for (std::string cur = target; cur != root;
         cur = parents.at(cur).parent) {
      path.push_back(cur);
    }
    // Reverse so parents come first; skip tables already planned.
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (on_plan.insert(*it).second) join_order.push_back(*it);
    }
  }

  JoinPlanResult plan;
  plan.root = FindTable(root)->name();
  plan.steps.reserve(join_order.size());
  for (const std::string& t : join_order) {
    const ParentEdge& e = parents.at(t);
    const Table* table = FindTable(t);
    plan.steps.push_back(JoinStep{table->name(), e.parent_col, e.child_col});
  }
  return plan;
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& t : tables_) total += t->num_rows();
  return total;
}

}  // namespace db
}  // namespace aggchecker
