#ifndef DOCS_NLP_ENTITY_LINKER_H_
#define DOCS_NLP_ENTITY_LINKER_H_

#include <string>
#include <string_view>
#include <vector>

#include "kb/knowledge_base.h"

namespace docs::nlp {

/// One candidate concept for a detected mention, with the probability that
/// the link is correct (the p_{i,j} of DVE's step 1).
struct CandidateLink {
  kb::ConceptId concept_id = kb::kInvalidConcept;
  double probability = 0.0;
};

/// A mention detected in a task's text together with its candidate
/// distribution p_i (sorted by decreasing probability, summing to 1).
struct LinkedEntity {
  std::string mention;
  size_t token_begin = 0;  // [token_begin, token_end) in the tokenized text
  size_t token_end = 0;
  std::vector<CandidateLink> candidates;
};

struct EntityLinkerOptions {
  /// Keep the top-c candidates per entity (Wikifier's top-20; Table 3 also
  /// evaluates 10 and 3).
  size_t max_candidates = 20;
  /// Relative weight of context-keyword overlap vs. the popularity prior.
  double context_weight = 4.0;
  /// Strength of the global coherence pass (0 disables it). Wikifier's
  /// "global" algorithms [36] and relational wikification [10] boost
  /// candidates whose domains agree with the other mentions' likely senses:
  /// in "Michael Jordan and Scottie Pippen", Pippen's unambiguous sports
  /// sense pulls the Jordan mention toward the basketball player.
  double coherence_weight = 0.0;
};

/// Dictionary-based entity linker standing in for Wikifier [36, 10]:
///  1. tokenize the text into the KB's word ids;
///  2. greedy longest-match mention detection over the KB alias trie;
///  3. for each mention, score every candidate concept by
///     popularity * (1 + context_weight * |text tokens  ∩ concept keywords|)
///     and normalize into a probability distribution;
///  4. truncate to the top-c candidates and re-normalize.
class EntityLinker {
 public:
  /// `knowledge_base` must outlive the linker.
  explicit EntityLinker(const kb::KnowledgeBase* knowledge_base,
                        EntityLinkerOptions options = {});

  /// Detects and disambiguates all entities in `text`.
  std::vector<LinkedEntity> Link(std::string_view text) const;

  const EntityLinkerOptions& options() const { return options_; }

  /// Second pass of Link, run when coherence_weight > 0 and there are at
  /// least two mentions: re-weights every mention's candidates by how well
  /// their domains agree with the other mentions' (probability-weighted)
  /// domains, then re-normalizes and re-sorts.
  void ApplyCoherence(std::vector<LinkedEntity>* entities) const;

 private:
  const kb::KnowledgeBase* kb_;
  EntityLinkerOptions options_;
};

}  // namespace docs::nlp

#endif  // DOCS_NLP_ENTITY_LINKER_H_
