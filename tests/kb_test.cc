#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "kb/domain_taxonomy.h"
#include "kb/knowledge_base.h"
#include "kb/synthetic_kb.h"

namespace docs::kb {
namespace {

TEST(DomainTaxonomyTest, Has26YahooDomains) {
  auto taxonomy = DomainTaxonomy::YahooAnswers26();
  EXPECT_EQ(taxonomy.size(), 26u);
}

TEST(DomainTaxonomyTest, IndexOfKnownDomains) {
  auto taxonomy = DomainTaxonomy::YahooAnswers26();
  for (const char* name :
       {"Sports", "Food", "Cars", "Travel", "Entertain", "Science",
        "Business", "Politics"}) {
    auto index = taxonomy.IndexOf(name);
    ASSERT_TRUE(index.ok()) << name;
    EXPECT_EQ(taxonomy.name(index.value()), name);
  }
}

TEST(DomainTaxonomyTest, IndexOfUnknownFails) {
  auto taxonomy = DomainTaxonomy::YahooAnswers26();
  EXPECT_FALSE(taxonomy.IndexOf("Quidditch").ok());
}

TEST(DomainTaxonomyTest, CategoriesMapToDomains) {
  auto taxonomy = DomainTaxonomy::FromNames({"A", "B"});
  ASSERT_TRUE(taxonomy.AddCategory("/x/a", 0).ok());
  ASSERT_TRUE(taxonomy.AddCategory("/x/b", 1).ok());
  EXPECT_EQ(taxonomy.DomainOfCategory("/x/a").value(), 0u);
  EXPECT_EQ(taxonomy.DomainOfCategory("/x/b").value(), 1u);
  EXPECT_FALSE(taxonomy.DomainOfCategory("/x/c").ok());
}

TEST(DomainTaxonomyTest, DuplicateCategoryRejected) {
  auto taxonomy = DomainTaxonomy::FromNames({"A"});
  ASSERT_TRUE(taxonomy.AddCategory("/x/a", 0).ok());
  EXPECT_FALSE(taxonomy.AddCategory("/x/a", 0).ok());
}

TEST(DomainTaxonomyTest, OutOfRangeDomainRejected) {
  auto taxonomy = DomainTaxonomy::FromNames({"A"});
  EXPECT_FALSE(taxonomy.AddCategory("/x/a", 5).ok());
}

TEST(KnowledgeBaseTest, AddConceptValidatesArity) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A", "B"}));
  Concept bad;
  bad.title = "X";
  bad.domain_indicator = {1};  // wrong size
  EXPECT_FALSE(kb.AddConcept(bad).ok());
}

TEST(KnowledgeBaseTest, AddConceptValidatesPopularity) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A"}));
  Concept bad;
  bad.title = "X";
  bad.domain_indicator = {1};
  bad.popularity = 0.0;
  EXPECT_FALSE(kb.AddConcept(bad).ok());
}

TEST(KnowledgeBaseTest, AliasLookupIsCaseAndPunctuationInsensitive) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A"}));
  Concept c;
  c.title = "Shaquille Oneal";
  c.domain_indicator = {1};
  auto id = kb.AddConcept(c);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(kb.AddAlias("Shaquille O'Neal", id.value()).ok());
  EXPECT_TRUE(kb.HasAlias("shaquille o neal"));
  EXPECT_TRUE(kb.HasAlias("SHAQUILLE O'NEAL"));
  ASSERT_EQ(kb.LookupAlias("shaquille o'neal").size(), 1u);
}

TEST(KnowledgeBaseTest, AliasIsIdempotentPerConcept) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A"}));
  Concept c;
  c.title = "X";
  c.domain_indicator = {1};
  auto id = kb.AddConcept(c);
  ASSERT_TRUE(kb.AddAlias("x", id.value()).ok());
  ASSERT_TRUE(kb.AddAlias("x", id.value()).ok());
  EXPECT_EQ(kb.LookupAlias("x").size(), 1u);
}

TEST(KnowledgeBaseTest, AmbiguousAliasReturnsAllCandidates) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A", "B"}));
  Concept a, b;
  a.title = "Alpha";
  a.domain_indicator = {1, 0};
  b.title = "Beta";
  b.domain_indicator = {0, 1};
  auto ida = kb.AddConcept(a);
  auto idb = kb.AddConcept(b);
  ASSERT_TRUE(kb.AddAlias("shared", ida.value()).ok());
  ASSERT_TRUE(kb.AddAlias("shared", idb.value()).ok());
  EXPECT_EQ(kb.LookupAlias("shared").size(), 2u);
}

TEST(KnowledgeBaseTest, AliasToUnknownConceptRejected) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A"}));
  EXPECT_FALSE(kb.AddAlias("ghost", 7).ok());
}

TEST(KnowledgeBaseTest, IndicatorFromCategories) {
  auto taxonomy = DomainTaxonomy::FromNames({"A", "B", "C"});
  ASSERT_TRUE(taxonomy.AddCategory("/cat/a", 0).ok());
  ASSERT_TRUE(taxonomy.AddCategory("/cat/c", 2).ok());
  KnowledgeBase kb(std::move(taxonomy));
  auto indicator = kb.IndicatorFromCategories({"/cat/a", "/cat/c", "/unknown"});
  EXPECT_EQ(indicator, (std::vector<uint8_t>{1, 0, 1}));
}

TEST(KnowledgeBaseTest, MaxAliasWordsTracksLongest) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A"}));
  Concept c;
  c.title = "X";
  c.domain_indicator = {1};
  auto id = kb.AddConcept(c);
  ASSERT_TRUE(kb.AddAlias("one two three four", id.value()).ok());
  EXPECT_EQ(kb.max_alias_words(), 4u);
}

TEST(VocabularyTest, InternAssignsDenseStableIds) {
  Vocabulary vocabulary;
  EXPECT_EQ(vocabulary.Find("nba"), kUnknownWord);
  std::vector<std::string> words;
  for (int i = 0; i < 1000; ++i) words.push_back("w" + std::to_string(i));
  for (size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(vocabulary.Intern(words[i]), i);  // grows the table en route
  }
  EXPECT_EQ(vocabulary.Intern("w7"), 7u);
  EXPECT_EQ(vocabulary.size(), words.size());
  const Vocabulary copy = vocabulary;
  for (size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(vocabulary.Find(words[i]), i);
    EXPECT_EQ(copy.Find(words[i]), i);
    EXPECT_EQ(copy.word(static_cast<WordId>(i)), words[i]);
  }
  EXPECT_EQ(copy.Find("w1000"), kUnknownWord);
  EXPECT_EQ(copy.Find(""), kUnknownWord);
}

TEST(KnowledgeBaseTest, AliasLookupNeedsTheWholeAlias) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A"}));
  Concept c;
  c.title = "X";
  c.domain_indicator = {1};
  auto id = kb.AddConcept(c);
  ASSERT_TRUE(kb.AddAlias("one two three", id.value()).ok());
  EXPECT_TRUE(kb.HasAlias("One, two; THREE"));
  EXPECT_FALSE(kb.HasAlias("one two"));          // a prefix, not an alias
  EXPECT_FALSE(kb.HasAlias("one two three four"));
  EXPECT_FALSE(kb.HasAlias("one zzz three"));    // unknown word
  EXPECT_FALSE(kb.HasAlias(""));
  EXPECT_TRUE(kb.LookupAlias("two three").empty());
  EXPECT_FALSE(kb.AddAlias("?!", id.value()).ok());  // no words
  EXPECT_EQ(kb.num_aliases(), 1u);
}

TEST(KnowledgeBaseTest, ForEachAliasVisitsNormalizedAliasesInEntryOrder) {
  KnowledgeBase kb(DomainTaxonomy::FromNames({"A"}));
  std::vector<ConceptId> ids;
  for (const char* title : {"P", "Q", "R"}) {
    Concept c;
    c.title = title;
    c.domain_indicator = {1};
    ids.push_back(kb.AddConcept(c).value());
  }
  ASSERT_TRUE(kb.AddAlias("New York", ids[2], 0.5).ok());
  ASSERT_TRUE(kb.AddAlias("new york city", ids[1]).ok());
  ASSERT_TRUE(kb.AddAlias("NEW-YORK", ids[0], 0.25).ok());
  ASSERT_TRUE(kb.AddAlias("york", ids[1]).ok());
  ASSERT_TRUE(kb.AddAlias("new york", ids[2], 0.75).ok());  // keeps the max
  std::vector<std::pair<std::string, KnowledgeBase::AliasEntry>> visited;
  kb.ForEachAlias([&](const std::string& alias,
                      const KnowledgeBase::AliasEntry& entry) {
    visited.emplace_back(alias, entry);
  });
  ASSERT_EQ(visited.size(), 4u);
  std::vector<std::pair<std::string, ConceptId>> new_york;
  for (const auto& [alias, entry] : visited) {
    if (alias == "new york") new_york.emplace_back(alias, entry.id);
    if (alias == "new york" && entry.id == ids[2]) {
      EXPECT_EQ(entry.prior, 0.75);
    }
  }
  // Entries keep their registration order: the linker sums in it.
  EXPECT_EQ(new_york, (std::vector<std::pair<std::string, ConceptId>>{
                          {"new york", ids[2]}, {"new york", ids[0]}}));
  EXPECT_EQ(kb.num_aliases(), 3u);
  EXPECT_EQ(kb.max_alias_words(), 3u);
}

TEST(KnowledgeBaseTest, CopiedKbKeepsItsIndex) {
  KnowledgeBase original(DomainTaxonomy::FromNames({"A"}));
  Concept c;
  c.title = "X";
  c.domain_indicator = {1};
  c.context_keywords = {"beta", "alpha", "Not-A-Word", "alpha"};
  auto id = original.AddConcept(c);
  ASSERT_TRUE(original.AddAlias("golden state", id.value()).ok());
  const KnowledgeBase copy = original;
  ASSERT_EQ(copy.LookupAlias("Golden State").size(), 1u);
  std::vector<WordId> words;
  copy.TokenizeToIds("Golden State warriors", &words);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[2], kUnknownWord);
  const std::vector<KnowledgeBase::AliasEntry>* entries = nullptr;
  EXPECT_EQ(copy.MatchAlias(words, &entries), 2u);
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->front().id, id.value());
  // Keyword ids are sorted with repeats kept; "Not-A-Word" has none.
  const auto keywords = copy.KeywordIds(id.value());
  ASSERT_EQ(keywords.size(), 3u);
  EXPECT_TRUE(std::is_sorted(keywords.begin(), keywords.end()));
  EXPECT_EQ(copy.vocabulary().word(copy.vocabulary().Find("alpha")), "alpha");
}

// --- Synthetic KB -----------------------------------------------------------

class SyntheticKbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { kb_ = new SyntheticKb(BuildSyntheticKb()); }
  static void TearDownTestSuite() {
    delete kb_;
    kb_ = nullptr;
  }
  static SyntheticKb* kb_;
};

SyntheticKb* SyntheticKbTest::kb_ = nullptr;

TEST_F(SyntheticKbTest, HasThousandsOfConcepts) {
  EXPECT_GT(kb_->knowledge_base.num_concepts(), 1500u);
}

TEST_F(SyntheticKbTest, MichaelJordanIsAmbiguous) {
  const auto& candidates = kb_->knowledge_base.LookupAlias("Michael Jordan");
  // Player + computer scientist + actor + fanout distractors.
  ASSERT_GE(candidates.size(), 3u);
  bool has_player = false, has_scientist = false, has_actor = false;
  for (const auto& entry : candidates) {
    const auto& title = kb_->knowledge_base.GetConcept(entry.id).title;
    has_player |= (title == "Michael Jordan");
    has_scientist |= (title == "Michael I Jordan");
    has_actor |= (title == "Michael B Jordan");
  }
  EXPECT_TRUE(has_player);
  EXPECT_TRUE(has_scientist);
  EXPECT_TRUE(has_actor);
}

TEST_F(SyntheticKbTest, NbaAliasCoversBothAssociations) {
  const auto& candidates = kb_->knowledge_base.LookupAlias("NBA");
  bool has_basketball = false, has_bar = false;
  for (const auto& entry : candidates) {
    const auto& title = kb_->knowledge_base.GetConcept(entry.id).title;
    has_basketball |= (title == "National Basketball Association");
    has_bar |= (title == "National Bar Association");
  }
  EXPECT_TRUE(has_basketball);
  EXPECT_TRUE(has_bar);
}

TEST_F(SyntheticKbTest, PlayerMichaelJordanSpansSportsAndEntertain) {
  const auto& taxonomy = kb_->knowledge_base.taxonomy();
  const auto canon = CanonicalDomains::Resolve(taxonomy);
  for (ConceptId id = 0; id < kb_->knowledge_base.num_concepts(); ++id) {
    const auto& c = kb_->knowledge_base.GetConcept(id);
    if (c.title == "Michael Jordan") {
      EXPECT_EQ(c.domain_indicator[canon.sports], 1);
      EXPECT_EQ(c.domain_indicator[canon.entertain], 1);
      return;
    }
  }
  FAIL() << "player concept not found";
}

TEST_F(SyntheticKbTest, AliasFanoutReachesTwenty) {
  // Every curated alias is padded to ~20 candidates (the Wikifier top-20).
  const auto& candidates = kb_->knowledge_base.LookupAlias("Kobe Bryant");
  EXPECT_GE(candidates.size(), 15u);
  EXPECT_LE(candidates.size(), 20u);
}

TEST_F(SyntheticKbTest, PoolsNonEmptyAndResolvable) {
  const auto& pools = kb_->pools;
  for (const auto* pool :
       {&pools.nba_players, &pools.foods, &pools.cars, &pools.countries,
        &pools.films, &pools.mountains, &pools.actors, &pools.musicians,
        &pools.business_people, &pools.politicians, &pools.scientists}) {
    ASSERT_FALSE(pool->empty());
    for (const auto& name : *pool) {
      EXPECT_TRUE(kb_->knowledge_base.HasAlias(name)) << name;
    }
  }
}

TEST_F(SyntheticKbTest, DomainKeywordsCoverAllDomains) {
  ASSERT_EQ(kb_->domain_keywords.size(), 26u);
  for (const auto& keywords : kb_->domain_keywords) {
    EXPECT_FALSE(keywords.empty());
  }
}

TEST_F(SyntheticKbTest, DeterministicForSameSeed) {
  SyntheticKbOptions options;
  options.filler_concepts_per_domain = 5;
  auto a = BuildSyntheticKb(options);
  auto b = BuildSyntheticKb(options);
  ASSERT_EQ(a.knowledge_base.num_concepts(), b.knowledge_base.num_concepts());
  for (ConceptId id = 0; id < a.knowledge_base.num_concepts(); ++id) {
    EXPECT_EQ(a.knowledge_base.GetConcept(id).title,
              b.knowledge_base.GetConcept(id).title);
  }
}

TEST_F(SyntheticKbTest, IndicatorVectorsMatchTaxonomyArity) {
  for (ConceptId id = 0; id < kb_->knowledge_base.num_concepts(); ++id) {
    EXPECT_EQ(kb_->knowledge_base.GetConcept(id).domain_indicator.size(), 26u);
  }
}

}  // namespace
}  // namespace docs::kb
