#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/math_utils.h"
#include "common/rng.h"
#include "core/domain_vector.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"

namespace docs::core {
namespace {

// The exact instance of Table 2 of the paper, with D = {politics, sports,
// films} (m = 3): three entities, candidate probabilities and indicator
// vectors as printed.
std::vector<EntityObservation> Table2Instance() {
  std::vector<EntityObservation> entities(3);
  entities[0].link_probabilities = {0.7, 0.2, 0.1};
  entities[0].indicators = {{0, 1, 1}, {0, 0, 0}, {0, 0, 1}};
  entities[1].link_probabilities = {0.8, 0.2};
  entities[1].indicators = {{0, 1, 0}, {0, 0, 0}};
  entities[2].link_probabilities = {1.0};
  entities[2].indicators = {{0, 1, 0}};
  return entities;
}

TEST(DomainVectorTest, Table2ExampleMatchesPaper) {
  auto entities = Table2Instance();
  auto r = ComputeDomainVector(entities, 3);
  // The paper reports r^t = [0, 0.78, 0.22].
  EXPECT_NEAR(r[0], 0.0, 1e-12);
  EXPECT_NEAR(r[1], 0.78, 0.005);
  EXPECT_NEAR(r[2], 0.22, 0.005);
}

TEST(DomainVectorTest, Table2EnumerationAgrees) {
  auto entities = Table2Instance();
  auto fast = ComputeDomainVector(entities, 3);
  auto slow = ComputeDomainVectorByEnumeration(entities, 3);
  ASSERT_EQ(slow.size(), 3u);
  for (size_t k = 0; k < 3; ++k) EXPECT_NEAR(fast[k], slow[k], 1e-12);
}

TEST(DomainVectorTest, EmptyEntitiesYieldZeros) {
  auto r = ComputeDomainVector({}, 4);
  EXPECT_EQ(r, (std::vector<double>{0.0, 0.0, 0.0, 0.0}));
}

TEST(DomainVectorTest, SingleUnambiguousEntity) {
  std::vector<EntityObservation> entities(1);
  entities[0].link_probabilities = {1.0};
  entities[0].indicators = {{0, 1, 1}};
  auto r = ComputeDomainVector(entities, 3);
  EXPECT_NEAR(r[0], 0.0, 1e-12);
  EXPECT_NEAR(r[1], 0.5, 1e-12);
  EXPECT_NEAR(r[2], 0.5, 1e-12);
}

TEST(DomainVectorTest, AllZeroIndicatorLinkingsLoseMass) {
  // With probability 0.4 the only linking has an all-zero indicator, so the
  // result sums to 0.6 (the dm != 0 guard of Algorithm 1).
  std::vector<EntityObservation> entities(1);
  entities[0].link_probabilities = {0.6, 0.4};
  entities[0].indicators = {{1, 0}, {0, 0}};
  auto r = ComputeDomainVector(entities, 2);
  EXPECT_NEAR(Sum(r), 0.6, 1e-12);
}

TEST(DomainVectorTest, CountLinkingsMultiplies) {
  auto entities = Table2Instance();
  EXPECT_EQ(CountLinkings(entities), 6u);  // 3 * 2 * 1
  EXPECT_EQ(CountLinkings({}), 1u);
}

TEST(DomainVectorTest, EnumerationRespectsCap) {
  auto entities = Table2Instance();
  EXPECT_TRUE(ComputeDomainVectorByEnumeration(entities, 3, 5).empty());
  EXPECT_FALSE(ComputeDomainVectorByEnumeration(entities, 3, 6).empty());
}

// --- Property sweep: Algorithm 1 == Equation 1 on random instances. --------

class DveEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(DveEquivalenceTest, Algorithm1MatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const size_t m = 2 + rng.UniformInt(5);
  const size_t num_entities = 1 + rng.UniformInt(4);
  std::vector<EntityObservation> entities(num_entities);
  for (auto& entity : entities) {
    const size_t c = 1 + rng.UniformInt(4);
    entity.link_probabilities = rng.Dirichlet(c, 1.0);
    entity.indicators.resize(c);
    for (auto& h : entity.indicators) {
      h.resize(m);
      for (auto& bit : h) bit = rng.Bernoulli(0.5) ? 1 : 0;
    }
  }
  auto fast = ComputeDomainVector(entities, m);
  auto slow = ComputeDomainVectorByEnumeration(entities, m);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t k = 0; k < m; ++k) {
    EXPECT_NEAR(fast[k], slow[k], 1e-9) << "domain " << k;
  }
  // The domain vector mass never exceeds 1.
  EXPECT_LE(Sum(fast), 1.0 + 1e-9);
}

// Domains that no candidate touches: nm stays 0 there, so every line-16 term
// is (0 / dm) * value = +0.0 and the result must be exactly +0.0 — not a
// tiny residue, and not -0.0.
TEST_P(DveEquivalenceTest, UntouchedDomainsAreExactlyZero) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const size_t m = 3 + rng.UniformInt(6);
  std::vector<uint8_t> touchable(m, 0);
  for (auto& bit : touchable) bit = rng.Bernoulli(0.5) ? 1 : 0;
  const size_t never = rng.UniformInt(m);  // at least one untouched domain
  touchable[never] = 0;
  touchable[(never + 1) % m] = 1;
  const size_t num_entities = 1 + rng.UniformInt(4);
  std::vector<EntityObservation> entities(num_entities);
  for (auto& entity : entities) {
    const size_t c = 1 + rng.UniformInt(4);
    entity.link_probabilities = rng.Dirichlet(c, 1.0);
    entity.indicators.resize(c);
    for (auto& h : entity.indicators) {
      h.resize(m);
      for (size_t k = 0; k < m; ++k) {
        h[k] = touchable[k] && rng.Bernoulli(0.6) ? 1 : 0;
      }
    }
  }
  std::vector<uint8_t> touched(m, 0);
  for (const auto& entity : entities) {
    for (const auto& h : entity.indicators) {
      for (size_t k = 0; k < m; ++k) touched[k] |= h[k];
    }
  }
  const auto fast = ComputeDomainVector(entities, m);
  const auto slow = ComputeDomainVectorByEnumeration(entities, m);
  ASSERT_EQ(fast.size(), m);
  ASSERT_EQ(slow.size(), m);
  size_t untouched = 0;
  for (size_t k = 0; k < m; ++k) {
    if (touched[k]) {
      EXPECT_NEAR(fast[k], slow[k], 1e-9) << "domain " << k;
    } else {
      ++untouched;
      EXPECT_EQ(std::bit_cast<uint64_t>(fast[k]), 0u) << "domain " << k;
    }
  }
  EXPECT_GT(untouched, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DveEquivalenceTest,
                         ::testing::Range(0, 40));

// --- End-to-end estimator over the synthetic KB ----------------------------

class EstimatorTest : public ::testing::Test {
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

kb::SyntheticKb* EstimatorTest::kb_ = nullptr;

TEST_F(EstimatorTest, SportsTaskLandsOnSports) {
  DomainVectorEstimator estimator(&kb_->knowledge_base);
  auto r = estimator.Estimate(
      "Does Michael Jordan win more NBA championships than Kobe Bryant?");
  ASSERT_TRUE(IsDistribution(r, 1e-9));
  const auto canon =
      kb::CanonicalDomains::Resolve(kb_->knowledge_base.taxonomy());
  EXPECT_EQ(ArgMax(r), canon.sports);
  // As in the paper's example, the Entertain domain receives some mass via
  // the Space Jam connection of the player concept.
  EXPECT_GT(r[canon.entertain], 0.0);
}

TEST_F(EstimatorTest, MountainComparisonLandsOnScience) {
  DomainVectorEstimator estimator(&kb_->knowledge_base);
  auto r = estimator.Estimate("Compare the height of Mount Everest and K2.");
  const auto canon =
      kb::CanonicalDomains::Resolve(kb_->knowledge_base.taxonomy());
  EXPECT_EQ(ArgMax(r), canon.science);
}

TEST_F(EstimatorTest, PlayerHeightComparisonLandsOnSports) {
  // Same surface template as the mountain task — the KB separates them.
  DomainVectorEstimator estimator(&kb_->knowledge_base);
  auto r =
      estimator.Estimate("Compare the height of Stephen Curry and Kobe Bryant.");
  const auto canon =
      kb::CanonicalDomains::Resolve(kb_->knowledge_base.taxonomy());
  EXPECT_EQ(ArgMax(r), canon.sports);
}

TEST_F(EstimatorTest, NoEntityTextIsUniform) {
  DomainVectorEstimator estimator(&kb_->knowledge_base);
  auto r = estimator.Estimate("hmm nothing to see here at all");
  ASSERT_EQ(r.size(), 26u);
  for (double v : r) EXPECT_NEAR(v, 1.0 / 26.0, 1e-12);
}

TEST_F(EstimatorTest, EstimateWithEntitiesExposesMentions) {
  DomainVectorEstimator estimator(&kb_->knowledge_base);
  std::vector<nlp::LinkedEntity> entities;
  auto r = estimator.EstimateWithEntities(
      "Which food contains more calories, Chocolate or Honey?", &entities);
  EXPECT_TRUE(IsDistribution(r, 1e-9));
  EXPECT_GE(entities.size(), 2u);
}

// Pins DVE's output on the four datasets: an FNV-1a hash over the bits of
// every task's domain vector, in task order. The values were computed with
// the string-window linker, before linking moved to interned word ids, so
// they prove that change bit-identical. They depend on libstdc++'s
// unordered_map iteration order, which fixes the summation order of
// Algorithm 1's lines 15-17; another standard library (or a change to how
// ComputeDomainVector uses its maps) may change them without any change in
// meaning.
TEST_F(EstimatorTest, DomainVectorBitsArePinnedPerDataset) {
  struct Pin {
    const char* name;
    datasets::Dataset dataset;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"Item", datasets::MakeItemDataset(*kb_), 0x817c257f3d62e677ULL},
      {"4D", datasets::MakeFourDomainDataset(*kb_), 0x943fee4a0f1ff229ULL},
      {"QA-4000", datasets::MakeQaDataset(*kb_, 4000, 3),
       0x5c255e6274984956ULL},
      {"SFV", datasets::MakeSfvDataset(*kb_), 0x9df6b5afa79d632aULL},
  };
  DomainVectorEstimator estimator(&kb_->knowledge_base);
  for (const Pin& pin : pins) {
    uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis
    for (const auto& task : pin.dataset.tasks) {
      for (double value : estimator.Estimate(task.text)) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &value, sizeof(double));
        for (unsigned char byte : bytes) {
          hash ^= byte;
          hash *= 1099511628211ULL;  // FNV-1a prime
        }
      }
    }
    EXPECT_EQ(hash, pin.hash) << pin.name << ": 0x" << std::hex << hash;
  }
}

TEST_F(EstimatorTest, ResultAlwaysNormalized) {
  DomainVectorEstimator estimator(&kb_->knowledge_base);
  for (const char* text :
       {"Is the Toyota Prius an electric vehicle?",
        "Did Leonardo DiCaprio star in Titanic?",
        "Which country has a larger population, France or Germany?",
        "Who founded the larger company, Bill Gates or Elon Musk?"}) {
    auto r = estimator.Estimate(text);
    EXPECT_TRUE(IsDistribution(r, 1e-9)) << text;
  }
}

}  // namespace
}  // namespace docs::core
