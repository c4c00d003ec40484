#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace aggchecker {
namespace ir {

/// \brief A retrieval hit: document id plus relevance score.
struct ScoredDoc {
  int doc_id = -1;
  double score = 0.0;
};

/// \brief TF-IDF inverted index over weighted keyword bags — the engine the
/// AggChecker uses in place of Apache Lucene (§4.1).
///
/// Documents are weighted term bags (query fragments index their keyword
/// sets; claims query with their weighted keyword contexts). Terms are
/// Porter-stemmed on both sides. Scoring is cosine similarity with
/// log-scaled term frequencies and smoothed idf, matching Lucene's classic
/// practical scoring closely enough to act as the relevance-score source
/// S_c of the probabilistic model.
class InvertedIndex {
 public:
  using TermWeight = std::pair<std::string, double>;

  /// One posting: document id plus its log-scaled term frequency. Public
  /// because the snapshot subsystem serializes postings lists verbatim.
  struct Posting {
    int doc_id;
    double weight;  ///< log-scaled term frequency
  };

  /// One stemmed term's postings list, in document-insertion order.
  struct TermPostings {
    std::string term;
    std::vector<Posting> postings;
  };

  /// Adds a document; returns its id (dense, starting at 0).
  int AddDocument(const std::vector<TermWeight>& terms);

  /// Top-k documents by score. Ties broken by lower doc id. Query terms are
  /// stemmed; unknown terms are ignored. Scores are always > 0 for returned
  /// docs; fewer than k hits may be returned.
  std::vector<ScoredDoc> Search(const std::vector<TermWeight>& query,
                                size_t top_k) const;

  size_t num_documents() const { return doc_norms_.size(); }

  /// Snapshot hooks (DESIGN.md §15). Scores depend only on the posting
  /// vectors, the document norms, and the document count — all exact
  /// doubles — so an index reassembled by FromParts from ExportPostings'
  /// output scores bit-identically to the original.
  std::vector<TermPostings> ExportPostings() const;  ///< sorted by term
  const std::vector<double>& doc_norms() const { return doc_norms_; }
  static InvertedIndex FromParts(std::vector<TermPostings> postings,
                                 std::vector<double> doc_norms);

 private:
  /// Dense per-document score accumulator, reused across queries (scoring
  /// every claim against every fragment is the retrieval hot path; a hash
  /// map here allocated and rehashed per query). Epoch-stamped: Begin()
  /// invalidates previous scores in O(1), docs touched by the current query
  /// are listed in first-touch order. Per-thread, see TlsScratch().
  struct ScoreScratch {
    std::vector<double> score;    ///< by doc id, valid when stamped
    std::vector<uint32_t> stamp;  ///< epoch the score slot was written
    std::vector<int> touched;     ///< docs scored by the current query
    uint32_t epoch = 0;

    void Begin(size_t num_docs) {
      if (score.size() < num_docs) {
        score.resize(num_docs, 0.0);
        stamp.resize(num_docs, 0u);
      }
      ++epoch;
      if (epoch == 0) {  // wrapped: stale stamps could alias
        for (auto& s : stamp) s = 0u;
        epoch = 1;
      }
      touched.clear();
    }
    void Add(int doc, double v) {
      size_t d = static_cast<size_t>(doc);
      if (stamp[d] != epoch) {
        stamp[d] = epoch;
        score[d] = 0.0;
        touched.push_back(doc);
      }
      score[d] += v;
    }
    double At(int doc) const {
      size_t d = static_cast<size_t>(doc);
      return stamp[d] == epoch ? score[d] : 0.0;
    }
  };

  double Idf(size_t df) const;

  /// The calling thread's scratch (Search/Score may run concurrently from
  /// the per-claim parallel loops; scratches are never shared).
  static ScoreScratch& TlsScratch();

  /// Accumulates per-document scores for a query into `scratch` (which must
  /// have Begin() called for this query already). Per-document sums run in
  /// the same term-major order as always, so scores are bit-identical to
  /// the old hash-map accumulation.
  void Accumulate(const std::vector<TermWeight>& query,
                  ScoreScratch* scratch) const;

  std::unordered_map<std::string, std::vector<Posting>> postings_;
  std::vector<double> doc_norms_;
};

}  // namespace ir
}  // namespace aggchecker
