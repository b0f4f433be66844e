#include "nlp/entity_linker.h"

#include <algorithm>
#include <span>

namespace docs::nlp {

namespace {

// Counts the entries of `keywords` (sorted, repeats kept) that occur in
// `words` (sorted, distinct): the two sorted lists are merged once.
size_t CountOverlap(std::span<const kb::WordId> keywords,
                    const std::vector<kb::WordId>& words) {
  size_t overlap = 0;
  auto word = words.begin();
  for (const kb::WordId keyword : keywords) {
    while (word != words.end() && *word < keyword) ++word;
    if (word == words.end()) break;
    if (*word == keyword) ++overlap;
  }
  return overlap;
}

}  // namespace

EntityLinker::EntityLinker(const kb::KnowledgeBase* knowledge_base,
                           EntityLinkerOptions options)
    : kb_(knowledge_base), options_(options) {}

std::vector<LinkedEntity> EntityLinker::Link(std::string_view text) const {
  std::vector<kb::WordId> words;
  kb_->TokenizeToIds(text, &words);
  // The text's distinct words, for the keyword overlap. kUnknownWord
  // matches no keyword id, since every one-word keyword is interned.
  std::vector<kb::WordId> distinct(words);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  std::vector<LinkedEntity> entities;
  const size_t max_words = std::max<size_t>(1, kb_->max_alias_words());
  const std::span<const kb::WordId> all_words(words);

  size_t i = 0;
  while (i < words.size()) {
    // Greedy longest match against the alias trie.
    const std::vector<kb::KnowledgeBase::AliasEntry>* candidate_entries =
        nullptr;
    const size_t matched_len = kb_->MatchAlias(
        all_words.subspan(i, std::min(max_words, words.size() - i)),
        &candidate_entries);
    if (matched_len == 0) {
      ++i;
      continue;
    }

    LinkedEntity entity;
    for (size_t j = i; j < i + matched_len; ++j) {
      if (j > i) entity.mention += ' ';
      entity.mention += kb_->vocabulary().word(words[j]);
    }
    entity.token_begin = i;
    entity.token_end = i + matched_len;
    entity.candidates.reserve(candidate_entries->size());

    double total = 0.0;
    for (const auto& entry : *candidate_entries) {
      const kb::ConceptId id = entry.id;
      // Context overlap: how many of the concept's keywords appear in the
      // task text (the mention's own tokens count, mirroring Wikifier's
      // string-similarity feature).
      const size_t overlap = CountOverlap(kb_->KeywordIds(id), distinct);
      double score = entry.prior * kb_->GetConcept(id).popularity *
                     (1.0 + options_.context_weight * static_cast<double>(overlap));
      entity.candidates.push_back({id, score});
      total += score;
    }
    if (total > 0.0) {
      for (auto& c : entity.candidates) c.probability /= total;
    }
    std::sort(entity.candidates.begin(), entity.candidates.end(),
              [](const CandidateLink& a, const CandidateLink& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.concept_id < b.concept_id;
              });
    if (entity.candidates.size() > options_.max_candidates) {
      entity.candidates.resize(options_.max_candidates);
      double kept = 0.0;
      for (const auto& c : entity.candidates) kept += c.probability;
      if (kept > 0.0) {
        for (auto& c : entity.candidates) c.probability /= kept;
      }
    }
    entities.push_back(std::move(entity));
    i += matched_len;
  }

  if (options_.coherence_weight > 0.0 && entities.size() > 1) {
    ApplyCoherence(&entities);
  }
  return entities;
}

void EntityLinker::ApplyCoherence(std::vector<LinkedEntity>* entities) const {
  const size_t m = kb_->num_domains();

  // Probability-weighted domain mass contributed by each mention's current
  // candidate distribution.
  std::vector<std::vector<double>> contribution(entities->size(),
                                                std::vector<double>(m, 0.0));
  std::vector<double> aggregate(m, 0.0);
  for (size_t e = 0; e < entities->size(); ++e) {
    for (const auto& candidate : (*entities)[e].candidates) {
      const auto& indicator =
          kb_->GetConcept(candidate.concept_id).domain_indicator;
      for (size_t k = 0; k < m; ++k) {
        if (indicator[k]) {
          contribution[e][k] += candidate.probability;
          aggregate[k] += candidate.probability;
        }
      }
    }
  }

  for (size_t e = 0; e < entities->size(); ++e) {
    LinkedEntity& entity = (*entities)[e];
    // Domain mass from the *other* mentions.
    std::vector<double> others(m, 0.0);
    double others_total = 0.0;
    for (size_t k = 0; k < m; ++k) {
      others[k] = aggregate[k] - contribution[e][k];
      others_total += others[k];
    }
    if (others_total <= 0.0) continue;
    double total = 0.0;
    for (auto& candidate : entity.candidates) {
      const auto& indicator =
          kb_->GetConcept(candidate.concept_id).domain_indicator;
      double agreement = 0.0;
      for (size_t k = 0; k < m; ++k) {
        if (indicator[k]) agreement += others[k];
      }
      candidate.probability *=
          1.0 + options_.coherence_weight * agreement / others_total;
      total += candidate.probability;
    }
    if (total > 0.0) {
      for (auto& candidate : entity.candidates) {
        candidate.probability /= total;
      }
    }
    std::sort(entity.candidates.begin(), entity.candidates.end(),
              [](const CandidateLink& a, const CandidateLink& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.concept_id < b.concept_id;
              });
  }
}

}  // namespace docs::nlp
