#include "kb/knowledge_base.h"

#include <algorithm>
#include <cstddef>

#include "common/string_utils.h"

namespace docs::kb {
namespace {

// True iff `s` is exactly one word as ForEachWord reads it, i.e. it could
// equal a word of some text.
bool IsSingleWord(std::string_view s) {
  size_t words = 0;
  bool same = false;
  ForEachWord(s, [&](std::string_view word) {
    ++words;
    same = word == s;
  });
  return words == 1 && same;
}

}  // namespace

KnowledgeBase::KnowledgeBase(DomainTaxonomy taxonomy)
    : taxonomy_(std::move(taxonomy)) {}

StatusOr<ConceptId> KnowledgeBase::AddConcept(Concept concept_data) {
  if (concept_data.domain_indicator.size() != taxonomy_.size()) {
    return InvalidArgumentError("indicator vector size != number of domains");
  }
  if (concept_data.popularity <= 0.0) {
    return InvalidArgumentError("popularity must be positive");
  }
  ConceptId id = static_cast<ConceptId>(concepts_.size());
  concept_data.id = id;
  const size_t begin = keyword_ids_.size();
  for (const std::string& keyword : concept_data.context_keywords) {
    if (IsSingleWord(keyword)) {
      keyword_ids_.push_back(vocabulary_.Intern(keyword));
    }
  }
  std::sort(keyword_ids_.begin() + static_cast<std::ptrdiff_t>(begin),
            keyword_ids_.end());
  keyword_offsets_.push_back(static_cast<uint32_t>(keyword_ids_.size()));
  concepts_.push_back(std::move(concept_data));
  return id;
}

Status KnowledgeBase::AddAlias(std::string_view alias, ConceptId id,
                               double prior) {
  if (id >= concepts_.size()) {
    return InvalidArgumentError("alias refers to unknown concept");
  }
  if (prior <= 0.0) return InvalidArgumentError("prior must be positive");
  uint32_t node = kRoot;
  size_t words = 0;
  ForEachWord(alias, [&](std::string_view word) {
    const WordId word_id = vocabulary_.Intern(word);
    ++words;
    uint32_t child = AliasChild(node, word_id);
    if (child == kNoNode) {
      child = static_cast<uint32_t>(alias_nodes_.size());
      AliasNode& added = alias_nodes_.emplace_back();
      added.word = word_id;
      if (node == kRoot) {
        if (root_children_.size() <= word_id) {
          root_children_.resize(word_id + 1, kNoNode);
        }
        root_children_[word_id] = child;
      } else {
        added.next_sibling = alias_nodes_[node].first_child;
        alias_nodes_[node].first_child = child;
      }
    }
    node = child;
  });
  if (words == 0) return InvalidArgumentError("empty alias");
  if (alias_nodes_[node].terminal == kNoNode) {
    alias_nodes_[node].terminal = static_cast<uint32_t>(alias_entries_.size());
    alias_entries_.emplace_back();
  }
  std::vector<AliasEntry>& entries = alias_entries_[alias_nodes_[node].terminal];
  for (AliasEntry& existing : entries) {
    if (existing.id == id) {  // Idempotent; keep the stronger prior.
      existing.prior = std::max(existing.prior, prior);
      return OkStatus();
    }
  }
  entries.push_back({id, prior});
  max_alias_words_ = std::max(max_alias_words_, words);
  return OkStatus();
}

uint32_t KnowledgeBase::AliasChild(uint32_t node, WordId word) const {
  if (node == kRoot) {
    return word < root_children_.size() ? root_children_[word] : kNoNode;
  }
  for (uint32_t child = alias_nodes_[node].first_child; child != kNoNode;
       child = alias_nodes_[child].next_sibling) {
    if (alias_nodes_[child].word == word) return child;
  }
  return kNoNode;
}

void KnowledgeBase::TokenizeToIds(std::string_view text,
                                  std::vector<WordId>* ids) const {
  ForEachWord(text, [this, ids](std::string_view word) {
    ids->push_back(vocabulary_.Find(word));
  });
}

size_t KnowledgeBase::MatchAlias(std::span<const WordId> words,
                                 const std::vector<AliasEntry>** entries) const {
  size_t matched = 0;
  uint32_t node = kRoot;
  for (size_t len = 1; len <= words.size(); ++len) {
    node = AliasChild(node, words[len - 1]);
    if (node == kNoNode) break;
    const uint32_t terminal = alias_nodes_[node].terminal;
    if (terminal != kNoNode) {
      matched = len;
      *entries = &alias_entries_[terminal];
    }
  }
  return matched;
}

const std::vector<KnowledgeBase::AliasEntry>* KnowledgeBase::FindAlias(
    std::string_view alias) const {
  uint32_t node = kRoot;
  size_t words = 0;
  ForEachWord(alias, [&](std::string_view word) {
    ++words;
    if (node != kNoNode) node = AliasChild(node, vocabulary_.Find(word));
  });
  if (words == 0 || node == kNoNode) return nullptr;
  const uint32_t terminal = alias_nodes_[node].terminal;
  return terminal == kNoNode ? nullptr : &alias_entries_[terminal];
}

const std::vector<KnowledgeBase::AliasEntry>& KnowledgeBase::LookupAlias(
    std::string_view alias) const {
  const std::vector<AliasEntry>* entries = FindAlias(alias);
  return entries == nullptr ? empty_ : *entries;
}

bool KnowledgeBase::HasAlias(std::string_view alias) const {
  return FindAlias(alias) != nullptr;
}

void KnowledgeBase::ForEachAlias(
    const std::function<void(const std::string& alias,
                             const AliasEntry& entry)>& visit) const {
  std::string path;
  for (uint32_t child : root_children_) {
    if (child != kNoNode) VisitAliases(child, &path, visit);
  }
}

void KnowledgeBase::VisitAliases(
    uint32_t node, std::string* path,
    const std::function<void(const std::string& alias,
                             const AliasEntry& entry)>& visit) const {
  const size_t parent_length = path->size();
  if (parent_length > 0) *path += ' ';
  *path += vocabulary_.word(alias_nodes_[node].word);
  if (alias_nodes_[node].terminal != kNoNode) {
    for (const AliasEntry& entry : alias_entries_[alias_nodes_[node].terminal]) {
      visit(*path, entry);
    }
  }
  for (uint32_t child = alias_nodes_[node].first_child; child != kNoNode;
       child = alias_nodes_[child].next_sibling) {
    VisitAliases(child, path, visit);
  }
  path->resize(parent_length);
}

std::vector<uint8_t> KnowledgeBase::IndicatorFromCategories(
    const std::vector<std::string>& categories) const {
  std::vector<uint8_t> indicator(taxonomy_.size(), 0);
  for (const auto& category : categories) {
    auto domain = taxonomy_.DomainOfCategory(category);
    if (domain.ok()) indicator[domain.value()] = 1;
  }
  return indicator;
}

}  // namespace docs::kb
