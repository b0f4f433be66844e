#include "reference_linker.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_utils.h"

namespace docs::testing {

ReferenceLinker::ReferenceLinker(const kb::KnowledgeBase* knowledge_base,
                                 nlp::EntityLinkerOptions options)
    : kb_(knowledge_base),
      coherence_(knowledge_base, options),
      options_(options) {
  kb_->ForEachAlias([this](const std::string& alias,
                           const kb::KnowledgeBase::AliasEntry& entry) {
    aliases_[alias].push_back(entry);
  });
}

std::vector<nlp::LinkedEntity> ReferenceLinker::Link(
    std::string_view text) const {
  std::vector<std::string> tokens = TokenizeWords(text);
  std::unordered_set<std::string> token_set(tokens.begin(), tokens.end());

  std::vector<nlp::LinkedEntity> entities;
  const size_t max_words = std::max<size_t>(1, kb_->max_alias_words());

  size_t i = 0;
  while (i < tokens.size()) {
    size_t matched_len = 0;
    std::string matched_alias;
    // Greedy longest match against the alias dictionary. Tokens are
    // lowercase words, so a window is already in normalized alias form.
    size_t limit = std::min(max_words, tokens.size() - i);
    for (size_t len = limit; len >= 1; --len) {
      std::string window = tokens[i];
      for (size_t j = 1; j < len; ++j) {
        window += ' ';
        window += tokens[i + j];
      }
      if (aliases_.count(window) > 0) {
        matched_len = len;
        matched_alias = std::move(window);
        break;
      }
    }
    if (matched_len == 0) {
      ++i;
      continue;
    }

    const auto& candidate_entries = aliases_.at(matched_alias);
    nlp::LinkedEntity entity;
    entity.mention = matched_alias;
    entity.token_begin = i;
    entity.token_end = i + matched_len;
    entity.candidates.reserve(candidate_entries.size());

    double total = 0.0;
    for (const auto& entry : candidate_entries) {
      const kb::ConceptId id = entry.id;
      const kb::Concept& candidate_concept = kb_->GetConcept(id);
      size_t overlap = 0;
      for (const auto& keyword : candidate_concept.context_keywords) {
        if (token_set.count(keyword) > 0) ++overlap;
      }
      double score = entry.prior * candidate_concept.popularity *
                     (1.0 + options_.context_weight * static_cast<double>(overlap));
      entity.candidates.push_back({id, score});
      total += score;
    }
    if (total > 0.0) {
      for (auto& c : entity.candidates) c.probability /= total;
    }
    std::sort(entity.candidates.begin(), entity.candidates.end(),
              [](const nlp::CandidateLink& a, const nlp::CandidateLink& b) {
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
    coherence_.ApplyCoherence(&entities);
  }
  return entities;
}

}  // namespace docs::testing
