#include "ir/inverted_index.h"

#include <algorithm>
#include <cmath>

#include "ir/porter_stemmer.h"

namespace aggchecker {
namespace ir {

int InvertedIndex::AddDocument(const std::vector<TermWeight>& terms) {
  const int doc_id = static_cast<int>(doc_norms_.size());
  // Accumulate weights per stemmed term.
  std::unordered_map<std::string, double> tf;
  for (const auto& [term, weight] : terms) {
    if (term.empty() || weight <= 0) continue;
    tf[PorterStem(term)] += weight;
  }
  double norm_sq = 0;
  for (const auto& [term, weight] : tf) {
    double w = 1.0 + std::log(weight);
    if (w <= 0) w = weight;  // weights < 1 stay sub-linear but positive
    postings_[term].push_back(Posting{doc_id, w});
    norm_sq += w * w;
  }
  doc_norms_.push_back(norm_sq > 0 ? std::sqrt(norm_sq) : 1.0);
  return doc_id;
}

std::vector<InvertedIndex::TermPostings> InvertedIndex::ExportPostings()
    const {
  std::vector<TermPostings> out;
  out.reserve(postings_.size());
  for (const auto& [term, postings] : postings_) {
    out.push_back(TermPostings{term, postings});
  }
  // Deterministic serialization order; restore order does not affect
  // scoring (per-term lookups), but byte-identical snapshots of the same
  // state make the format testable.
  std::sort(out.begin(), out.end(),
            [](const TermPostings& a, const TermPostings& b) {
              return a.term < b.term;
            });
  return out;
}

InvertedIndex InvertedIndex::FromParts(std::vector<TermPostings> postings,
                                       std::vector<double> doc_norms) {
  InvertedIndex index;
  index.doc_norms_ = std::move(doc_norms);
  index.postings_.reserve(postings.size());
  for (TermPostings& tp : postings) {
    index.postings_.emplace(std::move(tp.term), std::move(tp.postings));
  }
  return index;
}

double InvertedIndex::Idf(size_t df) const {
  return std::log(1.0 + static_cast<double>(doc_norms_.size()) /
                            (1.0 + static_cast<double>(df)));
}

InvertedIndex::ScoreScratch& InvertedIndex::TlsScratch() {
  static thread_local ScoreScratch scratch;
  return scratch;
}

void InvertedIndex::Accumulate(const std::vector<TermWeight>& query,
                               ScoreScratch* scratch) const {
  // Merge duplicate query terms first.
  std::unordered_map<std::string, double> qtf;
  for (const auto& [term, weight] : query) {
    if (term.empty() || weight <= 0) continue;
    qtf[PorterStem(term)] += weight;
  }
  for (const auto& [term, weight] : qtf) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    double idf = Idf(it->second.size());
    double qw = weight * idf;
    for (const Posting& p : it->second) {
      scratch->Add(p.doc_id, qw * p.weight * idf /
                                 doc_norms_[static_cast<size_t>(p.doc_id)]);
    }
  }
}

std::vector<ScoredDoc> InvertedIndex::Search(
    const std::vector<TermWeight>& query, size_t top_k) const {
  ScoreScratch& scratch = TlsScratch();
  scratch.Begin(doc_norms_.size());
  Accumulate(query, &scratch);
  std::vector<ScoredDoc> hits;
  hits.reserve(scratch.touched.size());
  for (int doc : scratch.touched) {
    double score = scratch.At(doc);
    if (score > 0) hits.push_back(ScoredDoc{doc, score});
  }
  std::sort(hits.begin(), hits.end(), [](const ScoredDoc& a,
                                         const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

}  // namespace ir
}  // namespace aggchecker
