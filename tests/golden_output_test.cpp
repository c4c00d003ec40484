// Golden output: pins an FNV-1a 64-bit digest of everything a checking run
// reports deterministically. The identity tests elsewhere compare two
// configurations of one build; this one compares a build against the
// output of an earlier one, so a change that moves a single bit of a
// verdict, a probability or a counter fails here even when every
// configuration still agrees with every other.
//
// Digested per case, in corpus order: FleetVerdictFingerprint (verdicts and
// reported candidates, doubles as hexfloat); each reported candidate's
// keyword_score and prior (hexfloat); each verdict's recovery record and
// dependency stamps; em_iterations, total_candidates and
// queries_evaluated; and every EvalStats counter that is not a time.
//
// Regenerating, only for a change that is meant to alter output: build the
// tree whose output becomes the reference (Release preset), run
//   build/tests/golden_output_test
// and copy the digest each failing case prints into its constant below.
// The commit that does so says why the output moved.

#include <gtest/gtest.h>

#include <cinttypes>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/corpus.h"
#include "corpus/embedded_articles.h"
#include "util/strings.h"

namespace aggchecker {
namespace {

constexpr uint64_t kFullCorpusMergedCached = 0xd5cc23f6891de90fULL;
constexpr uint64_t kEmbeddedArticlesNaive = 0x8ddc5dfa08a6fc15ULL;

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Bits(double v) { return strings::Format("%a", v); }

/// The digested rendering of one report.
std::string Render(const core::CheckReport& report) {
  std::string out = core::FleetVerdictFingerprint(report);
  out += strings::Format("em=%d cand=%zu evaluated=%zu\n",
                         report.em_iterations, report.total_candidates,
                         report.queries_evaluated);
  const db::EvalStats& s = report.eval_stats;
  out += strings::Format(
      "stats answered=%zu cubes=%zu hits=%zu misses=%zu rows=%zu "
      "joins=%zu join_hits=%zu aborted=%zu plans=%zu plan_hits=%zu "
      "invalidations=%zu retries=%zu descents=%zu recovered=%zu "
      "quarantined=%zu slice_rows=%zu slice_rows_skipped=%zu\n",
      s.queries_answered, s.cube_queries, s.cache_hits, s.cache_misses,
      s.rows_scanned, s.joins_built, s.join_cache_hits, s.queries_aborted,
      s.plans_built, s.plan_cache_hits, s.cache_invalidations,
      s.recovery_retries, s.ladder_descents, s.queries_recovered,
      s.queries_quarantined, s.probe_slice_rows_total,
      s.probe_slice_rows_skipped);
  for (const core::ClaimVerdict& v : report.verdicts) {
    out += strings::Format(
        "claim %s attempts=%u rung=%u recovered=%d quarantined=%d\n",
        v.claim.id.c_str(), static_cast<unsigned>(v.recovery.attempts),
        static_cast<unsigned>(v.recovery.deepest_rung),
        v.recovery.recovered ? 1 : 0, v.recovery.quarantined ? 1 : 0);
    for (const auto& [table, version] : v.dependencies) {
      out += strings::Format("  dep %s@%" PRIu64 "\n", table.c_str(),
                             version);
    }
    for (const model::RankedCandidate& q : v.top_queries) {
      out += strings::Format("  kw=%s prior=%s\n",
                             Bits(q.keyword_score).c_str(),
                             Bits(q.prior).c_str());
    }
  }
  return out;
}

/// Digest of checking every case with a fresh one-thread checker.
uint64_t CorpusDigest(const std::vector<corpus::CorpusCase>& cases,
                      db::EvalStrategy strategy) {
  std::string rendered;
  for (const corpus::CorpusCase& c : cases) {
    core::CheckOptions options;
    options.strategy = strategy;
    options.model.num_threads = 1;
    auto checker = core::AggChecker::Create(&c.database, options);
    EXPECT_TRUE(checker.ok()) << c.name << ": " << checker.status().ToString();
    if (!checker.ok()) return 0;
    auto report = checker->Check(c.document);
    EXPECT_TRUE(report.ok()) << c.name << ": " << report.status().ToString();
    if (!report.ok()) return 0;
    rendered += strings::Format("case %s\n", c.name.c_str());
    rendered += Render(*report);
  }
  return Fnv1a64(rendered);
}

std::string Hex(uint64_t digest) {
  return strings::Format("0x%016" PRIx64 "ULL", digest);
}

TEST(GoldenOutputTest, FullCorpusMergedCached) {
  const uint64_t digest =
      CorpusDigest(corpus::FullCorpus(), db::EvalStrategy::kMergedCached);
  EXPECT_EQ(digest, kFullCorpusMergedCached) << "digest " << Hex(digest);
}

TEST(GoldenOutputTest, EmbeddedArticlesNaive) {
  const uint64_t digest =
      CorpusDigest(corpus::EmbeddedArticles(), db::EvalStrategy::kNaive);
  EXPECT_EQ(digest, kEmbeddedArticlesNaive) << "digest " << Hex(digest);
}

}  // namespace
}  // namespace aggchecker
