#include "corpus/embedded_articles.h"

#include "db/executor.h"
#include "util/strings.h"

namespace aggchecker {
namespace corpus {

namespace {

db::Value S(const char* s) { return db::Value(std::string(s)); }
db::Value L(int64_t v) { return db::Value(v); }
db::Value D(double v) { return db::Value(v); }

/// Fills in true_value / is_erroneous by executing the ground-truth query.
void FinishGroundTruth(CorpusCase* c) {
  db::QueryExecutor exec(&c->database);
  for (GroundTruthClaim& g : c->ground_truth) {
    auto r = exec.Execute(g.query);
    g.true_value = (r.ok() && r->has_value()) ? **r : 0.0;
  }
}

GroundTruthClaim Truth(double claimed, db::SimpleAggregateQuery query,
                       bool erroneous = false) {
  GroundTruthClaim g;
  g.claimed_value = claimed;
  g.query = std::move(query);
  g.is_erroneous = erroneous;
  return g;
}

db::SimpleAggregateQuery Query(db::AggFn fn, db::ColumnRef agg,
                               std::vector<db::Predicate> preds = {}) {
  db::SimpleAggregateQuery q;
  q.fn = fn;
  q.agg_column = std::move(agg);
  q.predicates = std::move(preds);
  return q;
}

}  // namespace

CorpusCase MakeNflCase() {
  CorpusCase c;
  c.name = "nfl-suspensions";
  c.source = "538";

  db::Table t("nflsuspensions");
  (void)t.AddColumn("Name", db::ValueType::kString);
  (void)t.AddColumn("Team", db::ValueType::kString);
  (void)t.AddColumn("Games", db::ValueType::kString);
  (void)t.AddColumn("Category", db::ValueType::kString);
  (void)t.AddColumn("Year", db::ValueType::kLong);
  (void)t.AddColumn("Fine", db::ValueType::kDouble);
  struct Row {
    const char *name, *team, *games, *category;
    int64_t year;
    double fine;
  };
  const Row rows[] = {
      {"A. Adams", "OAK", "indef", "substance abuse repeated offense", 2013,
       60000},
      {"B. Brown", "MIA", "indef", "substance abuse repeated offense", 2014,
       55000},
      {"C. Clark", "OAK", "indef", "substance abuse repeated offense", 2015,
       65000},
      {"D. Davis", "DET", "indef", "gambling", 2013, 70000},
      {"E. Evans", "NYG", "4", "substance abuse", 2013, 40000},
      {"F. Foster", "DAL", "4", "substance abuse", 2015, 45000},
      {"G. Green", "SEA", "8", "substance abuse", 2015, 50000},
      {"H. Hill", "OAK", "2", "substance abuse", 2016, 35000},
      {"I. Irving", "DEN", "6", "substance abuse", 2013, 55000},
      {"J. Jones", "DAL", "10", "substance abuse", 2016, 60000},
      {"K. King", "NE", "4", "personal conduct", 2015, 30000},
      {"L. Lewis", "SEA", "2", "personal conduct", 2013, 45000},
      {"M. Moore", "CHI", "6", "personal conduct", 2016, 50000},
      {"N. Nash", "NE", "8", "personal conduct", 2015, 40000},
      {"O. Owens", "CAR", "6", "domestic violence", 2014, 50000},
      {"P. Price", "CHI", "2", "domestic violence", 2016, 50000},
  };
  for (const Row& r : rows) {
    (void)t.AddRow({S(r.name), S(r.team), S(r.games), S(r.category),
                    L(r.year), D(r.fine)});
  }
  (void)c.database.AddTable(std::move(t));

  auto doc = text::ParseDocument(R"(
<h1>The NFL's Uneven History Of Punishing Domestic Violence</h1>
<h2>Lifetime bans</h2>
<p>There were only four previous lifetime bans in my database. Three were
for repeated substance abuse, one was for gambling.</p>
<h2>All suspensions</h2>
<p>My database of punishments contains 16 suspensions in total. Six of
those suspensions were handed out for substance abuse. Five suspensions
were for personal conduct.</p>
<p>Lifetime bans make up 25 percent of all entries. Another 31 percent of
the suspensions were for substance abuse.</p>
<h2>Teams and fines</h2>
<p>The suspensions cover ten different teams. The average fine across all
punishments was 50,000 dollars. Only two suspensions were handed out
in 2014.</p>
)");
  c.document = std::move(*doc);

  const db::ColumnRef star{"nflsuspensions", ""};
  const db::ColumnRef games{"nflsuspensions", "Games"};
  const db::ColumnRef category{"nflsuspensions", "Category"};
  const db::ColumnRef team{"nflsuspensions", "Team"};
  const db::ColumnRef fine{"nflsuspensions", "Fine"};
  const db::ColumnRef year{"nflsuspensions", "Year"};
  const db::Predicate indef{games, S("indef")};
  const db::Predicate repeated{category,
                               S("substance abuse repeated offense")};
  const db::Predicate gambl{category, S("gambling")};
  const db::Predicate substance{category, S("substance abuse")};
  const db::Predicate conduct{category, S("personal conduct")};

  c.ground_truth = {
      Truth(4, Query(db::AggFn::kCount, star, {indef})),
      Truth(3, Query(db::AggFn::kCount, star, {indef, repeated})),
      Truth(1, Query(db::AggFn::kCount, star, {indef, gambl})),
      Truth(16, Query(db::AggFn::kCount, star)),
      Truth(6, Query(db::AggFn::kCount, star, {substance})),
      // True value is 4: an injected erroneous claim.
      Truth(5, Query(db::AggFn::kCount, star, {conduct}), true),
      Truth(25, Query(db::AggFn::kPercentage, games, {indef})),
      // True value is 37.5%: claimed 31 is wrong.
      Truth(31, Query(db::AggFn::kPercentage, category, {substance}), true),
      Truth(10, Query(db::AggFn::kCountDistinct, team)),
      Truth(50000, Query(db::AggFn::kAvg, fine)),
      Truth(2, Query(db::AggFn::kCount, star,
                     {db::Predicate{year, L(2014)}})),
  };
  FinishGroundTruth(&c);
  return c;
}

CorpusCase MakeEtiquetteCase() {
  CorpusCase c;
  c.name = "airplane-etiquette";
  c.source = "538";

  db::Table t("etiquette");
  (void)t.AddColumn("RespondentID", db::ValueType::kLong);
  (void)t.AddColumn("RecliningRude", db::ValueType::kString);
  (void)t.AddColumn("FliesOften", db::ValueType::kString);
  (void)t.AddColumn("HasChildren", db::ValueType::kString);
  (void)t.AddColumn("Recline", db::ValueType::kString);
  (void)t.AddColumn("Height", db::ValueType::kDouble);
  for (int i = 0; i < 1000; ++i) {
    // Rude: [0,120) often-rude, [120,400) often-not, [400,690) rarely-rude,
    // [690,1000) rarely-not. Total rude = 410 (41%); rude|often = 30%.
    bool often = i < 400;
    bool rude = (i < 120) || (i >= 400 && i < 690);
    // Parents: 220 total, 110 of them rude (60 often-rude + 50 rarely-rude
    // + 110 often-not-rude).
    bool children =
        (i < 60) || (i >= 400 && i < 450) || (i >= 120 && i < 230);
    bool never_reclines = i >= 300 && i < 570;
    // Verbose answer coding, as in the original 538 survey export.
    (void)t.AddRow({L(i + 1), S(rude ? "rude" : "not rude"),
                    S(often ? "often" : "rarely"),
                    S(children ? "parent" : "solo"),
                    S(never_reclines ? "never" : "sometimes"),
                    D(i % 2 == 0 ? 160.0 : 180.0)});
  }
  (void)c.database.AddTable(std::move(t));

  auto doc = text::ParseDocument(R"(
<h1>41 Percent Of Fliers Think You're Rude If You Recline Your Seat</h1>
<h2>The survey</h2>
<p>In our survey we asked 1,000 fliers about airplane etiquette. A clear
finding: 41 percent of fliers think you are rude if you recline your
seat.</p>
<h2>Frequent fliers</h2>
<p>Frequent fliers are more tolerant. Among fliers who fly often, only 30
percent consider reclining rude.</p>
<p>Exactly 270 respondents said they never recline their own seat.</p>
<h2>Families</h2>
<p>Some 220 of the surveyed fliers are parents flying with children. Among
these parents, 50 percent find reclining rude. Only 25 percent of fliers
who fly rarely consider reclining rude.</p>
<h2>Respondents</h2>
<p>The average height of our respondents was 170 centimeters.</p>
)");
  c.document = std::move(*doc);

  const db::ColumnRef star{"etiquette", ""};
  const db::ColumnRef rude_col{"etiquette", "RecliningRude"};
  const db::ColumnRef height{"etiquette", "Height"};
  const db::Predicate rude{rude_col, S("rude")};
  const db::Predicate often{{"etiquette", "FliesOften"}, S("often")};
  const db::Predicate rarely{{"etiquette", "FliesOften"}, S("rarely")};
  const db::Predicate parent{{"etiquette", "HasChildren"}, S("parent")};
  const db::Predicate never{{"etiquette", "Recline"}, S("never")};

  // Conditional shares are expressed in the canonical Percentage form:
  // Percentage(A) WHERE A = v AND cond equals ConditionalProbability with
  // the condition first (footnote 1), and the checker canonicalizes to the
  // Percentage spelling.
  c.ground_truth = {
      Truth(1000, Query(db::AggFn::kCount, star)),
      Truth(41, Query(db::AggFn::kPercentage, rude_col, {rude})),
      Truth(30, Query(db::AggFn::kPercentage, rude_col, {rude, often})),
      Truth(270, Query(db::AggFn::kCount, star, {never})),
      Truth(220, Query(db::AggFn::kCount, star, {parent})),
      Truth(50, Query(db::AggFn::kPercentage, rude_col, {rude, parent})),
      // True value 48.3%: the claimed 25 is wrong.
      Truth(25, Query(db::AggFn::kPercentage, rude_col, {rude, rarely}),
            true),
      Truth(170, Query(db::AggFn::kAvg, height)),
  };
  FinishGroundTruth(&c);
  return c;
}

CorpusCase MakeDeveloperSurveyCase() {
  CorpusCase c;
  c.name = "developer-survey";
  c.source = "StackOverflow";

  db::Table t("stackoverflow2016");
  (void)t.AddColumn("Respondent", db::ValueType::kLong);
  (void)t.AddColumn("Country", db::ValueType::kString);
  (void)t.AddColumn("Education", db::ValueType::kString);
  (void)t.AddColumn("Occupation", db::ValueType::kString);
  (void)t.AddColumn("Salary", db::ValueType::kDouble);
  (void)t.AddColumn("Remote", db::ValueType::kString);
  for (int i = 0; i < 1000; ++i) {
    const char* education = i < 136              ? "self-taught"
                            : i < 136 + 220      ? "masters degree"
                            : i < 136 + 220 + 400 ? "bachelors degree"
                                                  : "other";
    const char* occupation = i < 450        ? "full-stack developer"
                             : i < 450 + 300 ? "back-end developer"
                                             : "other";
    bool remote = i >= 700;  // 300 remote rows
    double salary = remote ? 60000.0 : 38000000.0 / 700.0;
    (void)t.AddRow({L(i + 1),
                    S(strings::Format("nation-%d", i % 40).c_str()),
                    S(education), S(occupation), D(salary),
                    S(remote ? "yes" : "no")});
  }
  (void)c.database.AddTable(std::move(t));

  auto doc = text::ParseDocument(R"(
<h1>Developer Survey Results 2016</h1>
<h2>Who answered</h2>
<p>We surveyed 1,000 developers around the world this year. Respondents
came from 40 different countries.</p>
<h2>Education</h2>
<p>Formal schooling is not the only path. 13 percent of respondents across
the globe tell us they are only self-taught. Meanwhile 22 percent hold a
masters degree as their highest education.</p>
<h2>Jobs and pay</h2>
<p>Some 450 participants identify as a full-stack developer by occupation.
The average salary of our respondents was 56,000 dollars.</p>
<h2>Remote work</h2>
<p>Exactly 300 respondents work remote at least part of the time. Among
remote workers, the average salary was 60,000 dollars.</p>
)");
  c.document = std::move(*doc);

  const db::ColumnRef star{"stackoverflow2016", ""};
  const db::ColumnRef education{"stackoverflow2016", "Education"};
  const db::ColumnRef country{"stackoverflow2016", "Country"};
  const db::ColumnRef salary{"stackoverflow2016", "Salary"};
  const db::Predicate self_taught{education, S("self-taught")};
  const db::Predicate masters{education, S("masters degree")};
  const db::Predicate fullstack{{"stackoverflow2016", "Occupation"},
                                S("full-stack developer")};
  const db::Predicate remote{{"stackoverflow2016", "Remote"}, S("yes")};

  c.ground_truth = {
      Truth(1000, Query(db::AggFn::kCount, star)),
      Truth(40, Query(db::AggFn::kCountDistinct, country)),
      // Table 9's rounding error: true value 13.6% rounds to 14, not 13.
      Truth(13, Query(db::AggFn::kPercentage, education, {self_taught}),
            true),
      Truth(22, Query(db::AggFn::kPercentage, education, {masters})),
      Truth(450, Query(db::AggFn::kCount, star, {fullstack})),
      Truth(56000, Query(db::AggFn::kAvg, salary)),
      Truth(300, Query(db::AggFn::kCount, star, {remote})),
      Truth(60000, Query(db::AggFn::kAvg, salary, {remote})),
  };
  FinishGroundTruth(&c);
  return c;
}

CorpusCase MakeDonationsJoinCase() {
  CorpusCase c;
  c.name = "campaign-donations";
  c.source = "NYT";

  // candidates: 8 rows; Vermont's only candidate (id 6) receives 4 gifts.
  db::Table candidates("candidates");
  (void)candidates.AddColumn("CandidateId", db::ValueType::kLong);
  (void)candidates.AddColumn("CandidateName", db::ValueType::kString);
  (void)candidates.AddColumn("Party", db::ValueType::kString);
  (void)candidates.AddColumn("HomeState", db::ValueType::kString);
  struct Cand {
    int64_t id;
    const char *name, *party, *state;
  };
  const Cand cands[] = {
      {1, "Alvarez", "democratic", "ohio"},
      {2, "Baker", "democratic", "texas"},
      {3, "Chen", "democratic", "oregon"},
      {4, "Diaz", "democratic", "nevada"},
      {5, "Ellis", "democratic", "utah"},
      {6, "Ford", "republican", "vermont"},
      {7, "Grant", "republican", "texas"},
      {8, "Hayes", "republican", "ohio"},
  };
  for (const Cand& cand : cands) {
    (void)candidates.AddRow(
        {L(cand.id), S(cand.name), S(cand.party), S(cand.state)});
  }
  (void)c.database.AddTable(std::move(candidates));

  // gifts: 25 democratic (5 per candidate 1..5), 15 republican (4/5/6 to
  // candidates 6/7/8). The first 12 democratic gifts are 750-dollar
  // finance-sector gifts (sum 9000); the rest of the democratic gifts are
  // 400; every republican gift is exactly 500 (average 500).
  db::Table gifts("gifts");
  (void)gifts.AddColumn("GiftId", db::ValueType::kLong);
  (void)gifts.AddColumn("CandidateId", db::ValueType::kLong);
  (void)gifts.AddColumn("Amount", db::ValueType::kDouble);
  (void)gifts.AddColumn("DonorSector", db::ValueType::kString);
  int64_t gift_id = 0;
  int dem_gifts = 0;
  auto add_gift = [&](int64_t candidate, double amount, const char* sector) {
    (void)gifts.AddRow({L(++gift_id), L(candidate), D(amount), S(sector)});
  };
  for (int64_t cand_id = 1; cand_id <= 5; ++cand_id) {
    for (int k = 0; k < 5; ++k) {
      bool finance = dem_gifts < 12;
      add_gift(cand_id, finance ? 750.0 : 400.0,
               finance ? "finance" : (dem_gifts % 2 ? "technology"
                                                    : "education"));
      ++dem_gifts;
    }
  }
  const int rep_counts[] = {4, 5, 6};  // candidates 6, 7, 8
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < rep_counts[i]; ++k) {
      add_gift(6 + i, 500.0, "energy");
    }
  }
  (void)c.database.AddTable(std::move(gifts));
  (void)c.database.AddForeignKey({"gifts", "CandidateId"},
                                 {"candidates", "CandidateId"});

  auto doc = text::ParseDocument(R"(
<h1>Race In The Primary Involves Donating Dollars</h1>
<h2>The donations</h2>
<p>Our records cover 40 individual donations. The donations went to eight
different candidates.</p>
<h2>Parties</h2>
<p>Exactly 25 donations went to democratic candidates. The average donation
to republican candidates was 500 dollars.</p>
<h2>Sectors and states</h2>
<p>Donations from the finance sector totaled 9,000 dollars. Nineteen donations
went to candidates from vermont.</p>
)");
  c.document = std::move(*doc);

  const db::ColumnRef gifts_star{"gifts", ""};
  const db::ColumnRef amount{"gifts", "Amount"};
  const db::ColumnRef gift_candidate{"gifts", "CandidateId"};
  const db::Predicate democratic{{"candidates", "Party"}, S("democratic")};
  const db::Predicate republican{{"candidates", "Party"}, S("republican")};
  const db::Predicate finance{{"gifts", "DonorSector"}, S("finance")};
  const db::Predicate vermont{{"candidates", "HomeState"}, S("vermont")};

  c.ground_truth = {
      Truth(40, Query(db::AggFn::kCount, gifts_star)),
      Truth(8, Query(db::AggFn::kCountDistinct, gift_candidate)),
      Truth(25, Query(db::AggFn::kCount, gifts_star, {democratic})),
      Truth(500, Query(db::AggFn::kAvg, amount, {republican})),
      Truth(9000, Query(db::AggFn::kSum, amount, {finance})),
      // True value is 4: the claimed nineteen is wrong (Table 9's 64-vs-63
      // donation-count error, in spirit).
      Truth(19, Query(db::AggFn::kCount, gifts_star, {vermont}), true),
  };
  FinishGroundTruth(&c);
  return c;
}

std::vector<CorpusCase> EmbeddedArticles() {
  std::vector<CorpusCase> cases;
  cases.push_back(MakeNflCase());
  cases.push_back(MakeEtiquetteCase());
  cases.push_back(MakeDeveloperSurveyCase());
  return cases;
}

}  // namespace corpus
}  // namespace aggchecker
