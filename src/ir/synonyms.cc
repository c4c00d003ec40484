#include "ir/synonyms.h"

#include <algorithm>

namespace aggchecker {
namespace ir {

void SynonymDictionary::AddGroup(const std::vector<std::string>& words) {
  for (const std::string& w : words) {
    auto& syns = map_[w];
    for (const std::string& other : words) {
      if (other == w) continue;
      if (std::find(syns.begin(), syns.end(), other) == syns.end()) {
        syns.push_back(other);
      }
    }
  }
}

const std::vector<std::string>& SynonymDictionary::Lookup(
    const std::string& word) const {
  auto it = map_.find(word);
  return it == map_.end() ? empty_ : it->second;
}

const SynonymDictionary& SynonymDictionary::Default() {
  static const SynonymDictionary* kDefault = [] {
    auto* d = new SynonymDictionary();
    // Generic data-summary vocabulary.
    d->AddGroup({"ban", "suspension", "punishment", "penalty", "sanction"});
    d->AddGroup({"lifetime", "indefinite", "permanent", "indef"});
    d->AddGroup({"game", "match", "contest"});
    d->AddGroup({"team", "club", "franchise", "squad"});
    d->AddGroup({"player", "athlete"});
    d->AddGroup({"category", "type", "kind", "class", "group", "reason"});
    d->AddGroup({"gambling", "betting", "wagering"});
    d->AddGroup({"substance", "drug", "drugs"});
    d->AddGroup({"abuse", "violation", "offense", "offence", "misuse"});
    d->AddGroup({"repeated", "repeat", "multiple"});
    d->AddGroup({"year", "season"});
    d->AddGroup({"salary", "pay", "wage", "compensation", "earnings",
                 "income"});
    d->AddGroup({"money", "dollars", "funds", "cash", "amount"});
    d->AddGroup({"donation", "contribution", "donor", "gift"});
    d->AddGroup({"candidate", "nominee", "contender"});
    d->AddGroup({"vote", "ballot"});
    d->AddGroup({"election", "race", "primary", "campaign"});
    d->AddGroup({"party", "affiliation"});
    d->AddGroup({"state", "region", "territory"});
    d->AddGroup({"country", "nation"});
    d->AddGroup({"city", "town", "municipality"});
    d->AddGroup({"respondent", "participant", "user", "developer",
                 "surveyed"});
    d->AddGroup({"survey", "poll", "questionnaire"});
    d->AddGroup({"answer", "response", "reply"});
    d->AddGroup({"question", "item"});
    d->AddGroup({"education", "schooling", "degree", "taught", "training"});
    d->AddGroup({"job", "occupation", "role", "position", "employment"});
    d->AddGroup({"experience", "tenure", "seniority"});
    d->AddGroup({"gender", "sex"});
    d->AddGroup({"age", "old"});
    d->AddGroup({"language", "tongue"});
    d->AddGroup({"rude", "impolite", "inconsiderate", "disrespectful"});
    d->AddGroup({"recline", "lean"});
    d->AddGroup({"flier", "flyer", "passenger", "traveler"});
    d->AddGroup({"airplane", "plane", "aircraft", "flight"});
    d->AddGroup({"etiquette", "manners", "courtesy"});
    d->AddGroup({"seat", "chair"});
    d->AddGroup({"child", "kid", "children", "kids"});
    d->AddGroup({"parent", "guardian"});
    d->AddGroup({"speech", "address", "talk", "commencement"});
    d->AddGroup({"president", "presidential"});
    d->AddGroup({"show", "program", "appearance", "broadcast"});
    d->AddGroup({"song", "track", "lyric", "lyrics"});
    d->AddGroup({"artist", "rapper", "musician", "singer"});
    d->AddGroup({"mention", "reference", "namecheck"});
    d->AddGroup({"positive", "favorable", "supportive", "endorsing"});
    d->AddGroup({"negative", "unfavorable", "critical", "hostile"});
    d->AddGroup({"price", "cost", "fee", "charge"});
    d->AddGroup({"sale", "sales", "revenue", "turnover"});
    d->AddGroup({"profit", "earnings", "gain"});
    d->AddGroup({"product", "item", "good", "goods"});
    d->AddGroup({"store", "shop", "outlet", "retailer"});
    d->AddGroup({"customer", "client", "buyer", "shopper"});
    d->AddGroup({"order", "purchase", "transaction"});
    d->AddGroup({"employee", "worker", "staff", "staffer"});
    d->AddGroup({"company", "firm", "corporation", "business", "employer"});
    d->AddGroup({"industry", "sector", "field", "domain"});
    d->AddGroup({"goal", "score", "point", "points"});
    d->AddGroup({"win", "victory", "triumph"});
    d->AddGroup({"loss", "defeat"});
    d->AddGroup({"coach", "manager", "trainer"});
    d->AddGroup({"league", "division", "conference"});
    d->AddGroup({"stadium", "arena", "venue"});
    d->AddGroup({"attendance", "crowd", "turnout"});
    d->AddGroup({"rating", "score", "grade", "mark"});
    d->AddGroup({"movie", "film", "picture"});
    d->AddGroup({"budget", "spending", "expenditure"});
    d->AddGroup({"tax", "levy", "duty"});
    d->AddGroup({"population", "residents", "inhabitants", "people"});
    d->AddGroup({"area", "size", "extent"});
    d->AddGroup({"growth", "increase", "rise"});
    d->AddGroup({"decline", "decrease", "drop", "fall"});
    d->AddGroup({"rate", "ratio", "frequency"});
    d->AddGroup({"median", "middle", "midpoint"});
    d->AddGroup({"female", "woman", "women"});
    d->AddGroup({"male", "man", "men"});
    d->AddGroup({"remote", "distributed", "offsite"});
    d->AddGroup({"programmer", "coder", "developer", "engineer"});
    d->AddGroup({"code", "software", "programming"});
    d->AddGroup({"tool", "technology", "framework", "stack"});
    d->AddGroup({"happy", "satisfied", "content"});
    d->AddGroup({"unhappy", "dissatisfied", "discontent"});
    d->AddGroup({"big", "large", "huge", "sizable"});
    d->AddGroup({"small", "little", "tiny", "modest"});
    d->AddGroup({"new", "recent", "fresh"});
    d->AddGroup({"old", "former", "previous", "prior"});
    d->AddGroup({"poor", "poorer", "poorest", "low-income"});
    d->AddGroup({"rich", "wealthy", "affluent"});
    d->AddGroup({"soccer", "football", "fifa"});
    d->AddGroup({"injury", "injured", "hurt"});
    d->AddGroup({"violence", "violent", "assault"});
    d->AddGroup({"domestic", "family", "household"});
    d->AddGroup({"conduct", "behavior", "behaviour"});
    d->AddGroup({"self-taught", "self", "autodidact"});
    d->AddGroup({"fund", "funding", "fundraising", "funds"});
    d->AddGroup({"committee", "pac", "commission"});
    d->AddGroup({"recipient", "receiver", "beneficiary"});
    d->AddGroup({"genre", "style", "category"});
    d->AddGroup({"station", "network", "channel", "outlet"});
    d->AddGroup({"guest", "visitor", "appearance"});
    d->AddGroup({"sunday", "weekend"});
    d->AddGroup({"morning", "am"});
    d->AddGroup({"senator", "lawmaker", "legislator", "congressman"});
    return d;
  }();
  return *kDefault;
}

}  // namespace ir
}  // namespace aggchecker
