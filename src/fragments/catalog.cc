#include "fragments/catalog.h"

#include <algorithm>

#include "ir/tokenizer.h"
#include "ir/word_splitter.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace aggchecker {
namespace fragments {

namespace {

using TermWeight = ir::InvertedIndex::TermWeight;

/// The index words of an identifier (column or table name): its word parts
/// (§4.2), without one-letter parts other than digits.
std::vector<std::string> IdentifierWords(const std::string& identifier) {
  std::vector<std::string> words;
  for (std::string& part : ir::WordSplitter::Default().Split(identifier)) {
    if (part.size() < 2 && !strings::IsDigits(part)) continue;
    words.push_back(std::move(part));
  }
  return words;
}

/// The index words of free text (dictionary descriptions, literal values):
/// its tokens, without stop words.
std::vector<std::string> TextWords(const std::string& text) {
  std::vector<std::string> words;
  for (std::string& token : ir::Tokenize(text)) {
    if (ir::IsStopWord(token)) continue;
    words.push_back(std::move(token));
  }
  return words;
}

void AddWords(const std::vector<std::string>& words, double weight,
              std::vector<TermWeight>* terms) {
  for (const std::string& word : words) terms->push_back({word, weight});
}

}  // namespace

Result<FragmentCatalog> FragmentCatalog::Build(const db::Database& db,
                                               const CatalogOptions& options) {
  AGG_FAULT_POINT("catalog.build");
  if (db.num_tables() == 0) {
    return Status::InvalidArgument("database has no tables");
  }
  FragmentCatalog catalog;

  // --- Aggregation-function fragments: fixed keyword sets. ---
  auto& fn_fragments =
      catalog.fragments_[static_cast<size_t>(FragmentType::kAggFunction)];
  auto& fn_index =
      catalog.indexes_[static_cast<size_t>(FragmentType::kAggFunction)];
  for (db::AggFn fn : db::AllAggFns()) {
    QueryFragment frag;
    frag.type = FragmentType::kAggFunction;
    frag.fn = fn;
    std::vector<TermWeight> terms;
    for (const std::string& kw : db::AggFnKeywords(fn)) {
      terms.push_back({kw, 1.0});
    }
    fn_index.AddDocument(terms);
    fn_fragments.push_back(std::move(frag));
  }

  // --- Aggregation-column fragments (every column plus one "*" per table)
  // and predicate fragments (one per column and distinct literal). Each
  // table and column name is split into words once and its words go into
  // every document that names it; the two kinds of documents go into
  // separate indexes, so filling both in one pass keeps each index's
  // document order. ---
  auto& col_fragments =
      catalog.fragments_[static_cast<size_t>(FragmentType::kAggColumn)];
  auto& col_index =
      catalog.indexes_[static_cast<size_t>(FragmentType::kAggColumn)];
  auto& pred_fragments =
      catalog.fragments_[static_cast<size_t>(FragmentType::kPredicate)];
  auto& pred_index =
      catalog.indexes_[static_cast<size_t>(FragmentType::kPredicate)];
  for (size_t t = 0; t < db.num_tables(); ++t) {
    const db::Table& table = db.table(t);
    const std::vector<std::string> table_words = IdentifierWords(table.name());
    {
      QueryFragment star;
      star.type = FragmentType::kAggColumn;
      star.column = db::ColumnRef{table.name(), ""};
      std::vector<TermWeight> terms;
      AddWords(table_words, 1.0, &terms);
      // Generic row-count vocabulary so "*" is reachable from count-ish
      // phrasings without a named column.
      for (const char* kw : {"rows", "entries", "records", "cases"}) {
        terms.push_back({kw, 0.5});
      }
      col_index.AddDocument(terms);
      col_fragments.push_back(std::move(star));
    }
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const db::Column& column = table.column(c);
      const db::ColumnRef col_ref{table.name(), column.name()};
      const std::vector<std::string> column_words =
          IdentifierWords(column.name());
      const std::vector<std::string> description_words =
          options.dictionary != nullptr
              ? TextWords(options.dictionary->Lookup(col_ref))
              : std::vector<std::string>{};

      // Non-numeric columns are still valid aggregation targets for
      // CountDistinct / Percentage; numeric ones additionally for
      // Sum/Avg/Min/Max. The model's validator rejects bad pairings.
      QueryFragment frag;
      frag.type = FragmentType::kAggColumn;
      frag.column = col_ref;
      std::vector<TermWeight> terms;
      AddWords(column_words, 1.0, &terms);
      AddWords(table_words, 0.4, &terms);
      AddWords(description_words, 0.8, &terms);
      col_index.AddDocument(terms);
      col_fragments.push_back(std::move(frag));

      const auto& distinct = column.DistinctValues();
      size_t limit = std::min(distinct.size(),
                              options.max_literals_per_column);
      if (limit > 0) catalog.predicate_columns_.push_back(col_ref);
      for (size_t v = 0; v < limit; ++v) {
        QueryFragment pred;
        pred.type = FragmentType::kPredicate;
        pred.column = col_ref;
        pred.value = distinct[v];
        terms.clear();
        AddWords(TextWords(distinct[v].ToString()), 1.0, &terms);
        AddWords(column_words, 0.6, &terms);
        AddWords(table_words, 0.2, &terms);
        AddWords(description_words, 0.5, &terms);
        pred_index.AddDocument(terms);
        pred_fragments.push_back(std::move(pred));
      }
    }
  }

  catalog.BuildLookupMaps();
  return catalog;
}

FragmentCatalog FragmentCatalog::FromParts(Parts parts) {
  FragmentCatalog catalog;
  for (int t = 0; t < kNumFragmentTypes; ++t) {
    catalog.fragments_[t] = std::move(parts.fragments[t]);
    catalog.indexes_[t] = std::move(parts.indexes[t]);
  }
  catalog.predicate_columns_ = std::move(parts.predicate_columns);
  catalog.BuildLookupMaps();
  return catalog;
}

void FragmentCatalog::BuildLookupMaps() {
  // Dense-id lookup maps (first occurrence wins, matching the linear scans
  // these replace).
  predicate_column_index_.clear();
  agg_column_index_.clear();
  for (size_t i = 0; i < predicate_columns_.size(); ++i) {
    predicate_column_index_.emplace(
        strings::ToLower(predicate_columns_[i].ToString()),
        static_cast<int>(i));
  }
  const auto& col_fragments =
      fragments_[static_cast<size_t>(FragmentType::kAggColumn)];
  for (size_t i = 0; i < col_fragments.size(); ++i) {
    agg_column_index_.emplace(
        strings::ToLower(col_fragments[i].column.ToString()),
        static_cast<int>(i));
  }
}

std::vector<ScoredFragment> FragmentCatalog::Retrieve(
    FragmentType type, const std::vector<TermWeight>& query,
    size_t top_k) const {
  std::vector<ScoredFragment> out;
  for (const ir::ScoredDoc& hit :
       indexes_[static_cast<size_t>(type)].Search(query, top_k)) {
    out.push_back(ScoredFragment{hit.doc_id, hit.score});
  }
  return out;
}

int FragmentCatalog::PredicateColumnIndex(const db::ColumnRef& column) const {
  auto it = predicate_column_index_.find(strings::ToLower(column.ToString()));
  return it == predicate_column_index_.end() ? -1 : it->second;
}

int FragmentCatalog::AggColumnIndex(const db::ColumnRef& column) const {
  auto it = agg_column_index_.find(strings::ToLower(column.ToString()));
  return it == agg_column_index_.end() ? -1 : it->second;
}

double FragmentCatalog::CountPossibleQueries(const db::Database& db) {
  // (function, column) pairs.
  double select_choices = 0;
  for (size_t t = 0; t < db.num_tables(); ++t) {
    const db::Table& table = db.table(t);
    select_choices += 1;  // Count(*) — plus ratio-on-star pairs below
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const db::Column& column = table.column(c);
      for (db::AggFn fn : db::AllAggFns()) {
        if (db::RequiresNumericColumn(fn) && !column.is_numeric()) continue;
        select_choices += 1;
      }
    }
  }
  // Predicate combinations: any subset of columns, one literal each.
  double predicate_choices = 1;
  for (size_t t = 0; t < db.num_tables(); ++t) {
    const db::Table& table = db.table(t);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      predicate_choices *=
          1.0 + static_cast<double>(table.column(c).DistinctValues().size());
    }
  }
  return select_choices * predicate_choices;
}

}  // namespace fragments
}  // namespace aggchecker
