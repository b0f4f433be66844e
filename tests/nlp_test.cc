#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/math_utils.h"
#include "datasets/dataset.h"
#include "kb/kb_io.h"
#include "kb/synthetic_kb.h"
#include "nlp/entity_linker.h"
#include "reference_linker.h"

namespace docs::nlp {
namespace {

class EntityLinkerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new kb::SyntheticKb(kb::BuildSyntheticKb());
  }
  static void TearDownTestSuite() {
    delete kb_;
    kb_ = nullptr;
  }
  static kb::SyntheticKb* kb_;
};

kb::SyntheticKb* EntityLinkerTest::kb_ = nullptr;

TEST_F(EntityLinkerTest, DetectsAllEntitiesOfTable2) {
  EntityLinker linker(&kb_->knowledge_base);
  auto entities = linker.Link(
      "Does Michael Jordan win more NBA championships than Kobe Bryant?");
  ASSERT_EQ(entities.size(), 3u);
  EXPECT_EQ(entities[0].mention, "michael jordan");
  EXPECT_EQ(entities[1].mention, "nba");
  EXPECT_EQ(entities[2].mention, "kobe bryant");
}

TEST_F(EntityLinkerTest, CandidateDistributionsAreNormalized) {
  EntityLinker linker(&kb_->knowledge_base);
  auto entities = linker.Link(
      "Does Michael Jordan win more NBA championships than Kobe Bryant?");
  for (const auto& entity : entities) {
    double total = 0.0;
    for (const auto& c : entity.candidates) total += c.probability;
    EXPECT_NEAR(total, 1.0, 1e-9) << entity.mention;
  }
}

TEST_F(EntityLinkerTest, CandidatesSortedByProbability) {
  EntityLinker linker(&kb_->knowledge_base);
  auto entities = linker.Link("Compare the height of Mount Everest and K2.");
  ASSERT_FALSE(entities.empty());
  for (const auto& entity : entities) {
    for (size_t j = 1; j < entity.candidates.size(); ++j) {
      EXPECT_GE(entity.candidates[j - 1].probability,
                entity.candidates[j].probability);
    }
  }
}

TEST_F(EntityLinkerTest, SportsContextDisambiguatesMichaelJordan) {
  EntityLinker linker(&kb_->knowledge_base);
  auto entities = linker.Link(
      "Does Michael Jordan win more NBA championships than Kobe Bryant?");
  ASSERT_FALSE(entities.empty());
  const auto& top = entities[0].candidates[0];
  EXPECT_EQ(kb_->knowledge_base.GetConcept(top.concept_id).title,
            "Michael Jordan");
  EXPECT_GT(top.probability, 0.4);
}

TEST_F(EntityLinkerTest, MachineLearningContextPrefersTheScientist) {
  EntityLinker linker(&kb_->knowledge_base);
  auto entities = linker.Link(
      "Did Michael Jordan write the machine learning paper at the "
      "university as professor of statistics research?");
  ASSERT_FALSE(entities.empty());
  // The scientist should now outrank (or at least rival) the player.
  double p_player = 0.0, p_scientist = 0.0;
  for (const auto& c : entities[0].candidates) {
    const auto& title = kb_->knowledge_base.GetConcept(c.concept_id).title;
    if (title == "Michael Jordan") p_player = c.probability;
    if (title == "Michael I Jordan") p_scientist = c.probability;
  }
  EXPECT_GT(p_scientist, 0.0);
  EXPECT_GT(p_scientist, p_player * 0.5);
}

TEST_F(EntityLinkerTest, LongestMatchWins) {
  EntityLinker linker(&kb_->knowledge_base);
  // "Golden State Warriors" must match as one mention, not "Golden" etc.
  auto entities = linker.Link("Has Golden State Warriors ever won the title?");
  ASSERT_GE(entities.size(), 1u);
  EXPECT_EQ(entities[0].mention, "golden state warriors");
}

TEST_F(EntityLinkerTest, TopCOptionTruncatesCandidates) {
  EntityLinkerOptions options;
  options.max_candidates = 3;
  EntityLinker linker(&kb_->knowledge_base, options);
  auto entities = linker.Link("Is Stephen Curry a point guard?");
  ASSERT_FALSE(entities.empty());
  for (const auto& entity : entities) {
    EXPECT_LE(entity.candidates.size(), 3u);
    double total = 0.0;
    for (const auto& c : entity.candidates) total += c.probability;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(EntityLinkerTest, NoEntitiesInPlainText) {
  EntityLinker linker(&kb_->knowledge_base);
  auto entities = linker.Link("the of and is a with very much");
  EXPECT_TRUE(entities.empty());
}

TEST_F(EntityLinkerTest, EmptyTextYieldsNoEntities) {
  EntityLinker linker(&kb_->knowledge_base);
  EXPECT_TRUE(linker.Link("").empty());
}

TEST_F(EntityLinkerTest, TokenSpansAreConsistent) {
  EntityLinker linker(&kb_->knowledge_base);
  auto entities =
      linker.Link("Which food contains more calories, Chocolate or Honey?");
  for (const auto& entity : entities) {
    EXPECT_LT(entity.token_begin, entity.token_end);
  }
  ASSERT_GE(entities.size(), 2u);
  // Mentions appear left to right without overlap.
  for (size_t i = 1; i < entities.size(); ++i) {
    EXPECT_GE(entities[i].token_begin, entities[i - 1].token_end);
  }
}

TEST_F(EntityLinkerTest, CoherencePassSharpensAmbiguousMention) {
  // With no sport-specific context words, "Michael Jordan" is decided by
  // priors alone; the unambiguous teammate mention pulls it toward the
  // player once the coherence pass is on.
  const char* text = "Michael Jordan and Scottie Pippen";
  auto probability_of_player = [&](double coherence_weight) {
    EntityLinkerOptions options;
    options.coherence_weight = coherence_weight;
    EntityLinker linker(&kb_->knowledge_base, options);
    auto entities = linker.Link(text);
    for (const auto& entity : entities) {
      if (entity.mention != "michael jordan") continue;
      for (const auto& c : entity.candidates) {
        if (kb_->knowledge_base.GetConcept(c.concept_id).title ==
            "Michael Jordan") {
          return c.probability;
        }
      }
    }
    return 0.0;
  };
  const double without = probability_of_player(0.0);
  const double with = probability_of_player(2.0);
  EXPECT_GT(with, without);
}

TEST_F(EntityLinkerTest, CoherenceKeepsDistributionsNormalized) {
  EntityLinkerOptions options;
  options.coherence_weight = 1.5;
  EntityLinker linker(&kb_->knowledge_base, options);
  auto entities = linker.Link(
      "Does Michael Jordan win more NBA championships than Kobe Bryant?");
  for (const auto& entity : entities) {
    double total = 0.0;
    for (const auto& c : entity.candidates) total += c.probability;
    EXPECT_NEAR(total, 1.0, 1e-9) << entity.mention;
    for (size_t j = 1; j < entity.candidates.size(); ++j) {
      EXPECT_GE(entity.candidates[j - 1].probability,
                entity.candidates[j].probability);
    }
  }
}

TEST_F(EntityLinkerTest, CoherenceIsNoOpForSingleMention) {
  EntityLinkerOptions with_options;
  with_options.coherence_weight = 2.0;
  EntityLinker with(&kb_->knowledge_base, with_options);
  EntityLinker without(&kb_->knowledge_base);
  auto a = with.Link("Tell me about Kobe Bryant");
  auto b = without.Link("Tell me about Kobe Bryant");
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a[0].candidates.size(), b[0].candidates.size());
  for (size_t j = 0; j < a[0].candidates.size(); ++j) {
    EXPECT_DOUBLE_EQ(a[0].candidates[j].probability,
                     b[0].candidates[j].probability);
  }
}

TEST_F(EntityLinkerTest, AmbiguousCurryAliasHasBothSenses) {
  EntityLinker linker(&kb_->knowledge_base);
  auto entities = linker.Link("How spicy is Curry compared to Chili?");
  ASSERT_GE(entities.size(), 2u);
  // In a food context the food sense should win over any distractor.
  const auto& top = entities[0].candidates[0];
  EXPECT_EQ(kb_->knowledge_base.GetConcept(top.concept_id).title, "Curry");
}

// --- Equivalence with the string-window oracle --------------------------------
//
// The linker runs on word ids, an alias trie and sorted keyword id lists;
// testing::ReferenceLinker is the string-window linker it replaced. Every
// field must match bit for bit, probabilities included: the candidate order
// fixes the summation order of each mention's score total.

::testing::AssertionResult SameLinks(const std::vector<LinkedEntity>& got,
                                     const std::vector<LinkedEntity>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " mentions, oracle has " << want.size();
  }
  for (size_t e = 0; e < got.size(); ++e) {
    const LinkedEntity& a = got[e];
    const LinkedEntity& b = want[e];
    if (a.mention != b.mention || a.token_begin != b.token_begin ||
        a.token_end != b.token_end ||
        a.candidates.size() != b.candidates.size()) {
      return ::testing::AssertionFailure()
             << "mention " << e << ": \"" << a.mention << "\" ["
             << a.token_begin << ", " << a.token_end << ") with "
             << a.candidates.size() << " candidates, oracle \"" << b.mention
             << "\" [" << b.token_begin << ", " << b.token_end << ") with "
             << b.candidates.size();
    }
    for (size_t j = 0; j < a.candidates.size(); ++j) {
      if (a.candidates[j].concept_id != b.candidates[j].concept_id ||
          std::bit_cast<uint64_t>(a.candidates[j].probability) !=
              std::bit_cast<uint64_t>(b.candidates[j].probability)) {
        return ::testing::AssertionFailure()
               << "mention \"" << a.mention << "\" candidate " << j << ": ("
               << a.candidates[j].concept_id << ", "
               << a.candidates[j].probability << "), oracle ("
               << b.candidates[j].concept_id << ", "
               << b.candidates[j].probability << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<EntityLinkerOptions> OptionSweep() {
  std::vector<EntityLinkerOptions> sweep;
  for (size_t top_c : {20u, 10u, 3u}) {
    for (double coherence : {0.0, 1.5}) {
      EntityLinkerOptions options;
      options.max_candidates = top_c;
      options.coherence_weight = coherence;
      sweep.push_back(options);
    }
  }
  return sweep;
}

// Links every text with both linkers under every option set; stops at the
// first mismatch of each option set.
void ExpectMatchesOracle(const kb::KnowledgeBase& knowledge_base,
                         const std::vector<std::string>& texts) {
  for (const EntityLinkerOptions& options : OptionSweep()) {
    EntityLinker linker(&knowledge_base, options);
    testing::ReferenceLinker oracle(&knowledge_base, options);
    for (const std::string& text : texts) {
      const auto result = SameLinks(linker.Link(text), oracle.Link(text));
      if (!result) {
        ADD_FAILURE() << "c = " << options.max_candidates << ", coherence "
                      << options.coherence_weight << ", text \"" << text
                      << "\": " << result.message();
        break;
      }
    }
  }
}

TEST_F(EntityLinkerTest, MatchesOracleOnTheFourDatasets) {
  const std::vector<datasets::Dataset> all = {
      datasets::MakeItemDataset(*kb_), datasets::MakeFourDomainDataset(*kb_),
      datasets::MakeQaDataset(*kb_, 4000, 3), datasets::MakeSfvDataset(*kb_)};
  std::vector<std::string> texts;
  size_t mentions = 0;
  EntityLinker linker(&kb_->knowledge_base);
  for (const auto& dataset : all) {
    for (const auto& task : dataset.tasks) {
      texts.push_back(task.text);
      mentions += linker.Link(task.text).size();
    }
  }
  ASSERT_EQ(texts.size(), 360u + 400u + 4000u + 328u);
  ASSERT_GT(mentions, texts.size());  // the sweep exercises real mentions
  ExpectMatchesOracle(kb_->knowledge_base, texts);
}

TEST_F(EntityLinkerTest, MatchesOracleOnAdversarialTexts) {
  ExpectMatchesOracle(
      kb_->knowledge_base,
      {"", "?!", "MICHAEL JORDAN!!! and Kobe-Bryant, NBA.",
       "michael zzqx jordan plays basketball",
       "Golden State", "Golden State Warriors Golden State Warriors",
       "Which is higher, K2 or Mount Everest",
       "Caf\xc3\xa9 Michael\xe9Jordan \xff\x80 NBA \xc3\xa9t\xc3\xa9",
       "Michael Jordan and Scottie Pippen and Kobe Bryant and Curry"});
}

// A small KB whose aliases and keywords hit every corner of the matcher:
// case and punctuation, shared prefixes, overlaps, a prefix with no alias,
// a five-word alias, bytes >= 0x80 and keywords that are not one word.
class AdversarialKbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kb_ = std::make_unique<kb::KnowledgeBase>(
        kb::DomainTaxonomy::FromNames({"A", "B", "C"}));
    add("Shaquille O'Neal", {1, 0, 0}, 0.9,
        {"basketball", "lakers", "Center", "o'neal", "basketball"});
    add("New York", {0, 1, 0}, 0.8, {"city", "state"});
    add("New York City", {0, 1, 1}, 0.7, {"city", "manhattan", "new york"});
    add("York City", {1, 0, 0}, 0.5, {"football", "club", "city"});
    add("One Two Three", {0, 0, 1}, 0.4, {"counting"});
    add("Alpha Beta Gamma Delta Epsilon", {1, 1, 0}, 0.6, {"greek"});
    add("Caf\xc3\xa9 Noir", {0, 0, 1}, 0.3, {"coffee", "\xc3\xa9t\xc3\xa9", ""});
    add("Jordan River", {0, 0, 1}, 0.2, {"water"});
    add("Jordan", {0, 1, 0}, 0.6, {"country", "amman"});
    // Ambiguous aliases, so that keyword counts move probabilities.
    ASSERT_TRUE(kb_->AddAlias("SHAQ", 0, 0.5).ok());
    ASSERT_TRUE(kb_->AddAlias("shaq", 3, 0.5).ok());
    ASSERT_TRUE(kb_->AddAlias("Shaquille O'Neal", 7, 0.2).ok());
    ASSERT_TRUE(kb_->AddAlias("new-york", 2, 0.1).ok());
    ASSERT_TRUE(kb_->AddAlias("jordan", 0, 0.05).ok());
    ASSERT_TRUE(kb_->AddAlias("york", 1, 0.3).ok());
  }

  void add(const std::string& title, std::vector<uint8_t> indicator,
           double popularity, std::vector<std::string> keywords) {
    kb::Concept c;
    c.title = title;
    c.domain_indicator = std::move(indicator);
    c.popularity = popularity;
    c.context_keywords = std::move(keywords);
    auto id = kb_->AddConcept(std::move(c));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(kb_->AddAlias(title, id.value()).ok());
  }

  std::unique_ptr<kb::KnowledgeBase> kb_;
};

const std::vector<std::string>& AdversarialTexts() {
  static const std::vector<std::string> texts = {
      "",                                                // empty
      "SHAQUILLE O'NEAL plays BASKETBALL for the Lakers!",  // case, punct
      "shaq, basketball, football",         // a keyword listed twice
      "shaquille xyzzy o neal basketball",  // unknown word inside an alias
      "one two four counting",              // alias prefix, no terminal
      "I love New York City and York City football club",  // overlaps
      "the city of new york",               // alias at the end of the text
      "alpha beta gamma delta epsilon alpha beta gamma delta epsilon zeta",
      "one two three one two three one two three one two",  // long runs
      "caf\xc3\xa9 noir coffee \xc3\xa9t\xc3\xa9 \xff\x80shaq\x80",  // bytes >= 0x80
      "jordan river jordan amman jordan",
      "NEW-YORK new york-city york",
      "...,,,!!!",
  };
  return texts;
}

TEST_F(AdversarialKbTest, MatchesOracle) {
  ExpectMatchesOracle(*kb_, AdversarialTexts());
}

TEST_F(AdversarialKbTest, UnknownWordBreaksAliasAndPrefixIsNoMatch) {
  EntityLinker linker(kb_.get());
  auto broken = linker.Link("shaquille xyzzy o neal");
  EXPECT_TRUE(broken.empty());
  auto prefix = linker.Link("one two four");
  EXPECT_TRUE(prefix.empty());
  auto longest = linker.Link("new york city");
  ASSERT_EQ(longest.size(), 1u);
  EXPECT_EQ(longest[0].mention, "new york city");
}

TEST_F(AdversarialKbTest, KeywordsThatAreNotOneWordNeverMatch) {
  // "Center" (upper case), "o'neal" (punctuation) and "new york" (two
  // words) can never equal a text word, so they get no id; "basketball"
  // is listed twice and counts twice.
  const auto shaq_keywords = kb_->KeywordIds(0);
  ASSERT_EQ(shaq_keywords.size(), 3u);
  EXPECT_EQ(kb_->vocabulary().word(shaq_keywords[0]),
            kb_->vocabulary().word(shaq_keywords[1]));
  EXPECT_EQ(kb_->KeywordIds(2).size(), 2u);
  EXPECT_EQ(kb_->KeywordIds(6).size(), 1u);  // "coffee" only
}

TEST_F(AdversarialKbTest, AliasAddedAfterLinkIsSeen) {
  EntityLinker linker(kb_.get());
  const std::string text = "the amman citadel overlooks jordan";
  EXPECT_TRUE(SameLinks(linker.Link(text),
                        testing::ReferenceLinker(kb_.get()).Link(text)));
  const size_t before = linker.Link(text).size();
  ASSERT_TRUE(kb_->AddAlias("Amman Citadel", 8, 0.4).ok());
  ASSERT_TRUE(kb_->AddAlias("overlooks", 3, 0.2).ok());
  EXPECT_EQ(linker.Link(text).size(), before + 2);
  EXPECT_TRUE(SameLinks(linker.Link(text),
                        testing::ReferenceLinker(kb_.get()).Link(text)));
  ExpectMatchesOracle(*kb_, AdversarialTexts());
}

TEST(EntityLinkerKbIoTest, LoadedKbLinksLikeTheOriginal) {
  kb::SyntheticKbOptions options;
  options.filler_concepts_per_domain = 5;
  options.minor_persons_per_sphere = 20;
  const kb::SyntheticKb synthetic = kb::BuildSyntheticKb(options);
  const std::string path = ::testing::TempDir() + "/nlp_kb_roundtrip.txt";
  ASSERT_TRUE(kb::SaveKnowledgeBase(synthetic.knowledge_base, path).ok());
  auto loaded = kb::LoadKnowledgeBase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  std::vector<std::string> texts;
  for (const auto& task : datasets::MakeQaDataset(synthetic, 300, 3).tasks) {
    texts.push_back(task.text);
  }
  for (const auto& task : datasets::MakeSfvDataset(synthetic).tasks) {
    texts.push_back(task.text);
  }
  ExpectMatchesOracle(*loaded, texts);
  EntityLinker original(&synthetic.knowledge_base);
  EntityLinker reloaded(&*loaded);
  size_t mentions = 0;
  for (const std::string& text : texts) {
    const auto want = original.Link(text);
    mentions += want.size();
    ASSERT_TRUE(SameLinks(reloaded.Link(text), want)) << text;
  }
  EXPECT_GT(mentions, texts.size());
}

}  // namespace
}  // namespace docs::nlp
