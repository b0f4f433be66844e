#ifndef DOCS_KB_KNOWLEDGE_BASE_H_
#define DOCS_KB_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "kb/domain_taxonomy.h"
#include "kb/vocabulary.h"

namespace docs::kb {

using ConceptId = uint32_t;
inline constexpr ConceptId kInvalidConcept = static_cast<ConceptId>(-1);

/// A concept (Wikipedia page / Freebase topic analogue). Carries everything
/// DVE's step 1 reads: the per-domain indicator vector h, a popularity prior
/// (the "frequency of the linking" feature of Wikifier), and context
/// keywords used for disambiguation against a task's text.
struct Concept {
  ConceptId id = kInvalidConcept;
  std::string title;
  /// h in {0,1}^m: domain_indicator[k] == 1 iff the concept is related to
  /// domain d_k. A concept may belong to several domains (e.g. the basketball
  /// player Michael Jordan is related to Sports and to Entertain via the
  /// film Space Jam), or to none (Michael I. Jordan, the computer scientist,
  /// relative to a taxonomy without a matching domain).
  std::vector<uint8_t> domain_indicator;
  /// Link-frequency prior in (0, 1]; larger values make the concept a more
  /// likely referent for an ambiguous alias, all else equal.
  double popularity = 1.0;
  /// Bag of lowercase context words associated with the concept. Only an
  /// entry that is one word (ForEachWord) can match a word of a task text.
  std::vector<std::string> context_keywords;
};

/// An in-memory knowledge base: concepts plus an alias (surface-form) index.
/// Stands in for Freebase/Wikipedia in the paper's architecture; the entity
/// linker resolves task mentions against the alias index and the DVE module
/// reads indicator vectors from the referenced concepts.
///
/// Linking runs on interned words (DESIGN.md §4). The KB owns a vocabulary
/// of every alias word and every one-word context keyword; aliases live in a
/// trie over word ids, and each concept's keywords are a sorted id list in
/// one flat CSR array. AddConcept and AddAlias keep all three current, so a
/// linker never reads a stale index.
class KnowledgeBase {
 public:
  /// Creates a KB over the given taxonomy (copied).
  explicit KnowledgeBase(DomainTaxonomy taxonomy);

  const DomainTaxonomy& taxonomy() const { return taxonomy_; }
  size_t num_domains() const { return taxonomy_.size(); }
  size_t num_concepts() const { return concepts_.size(); }

  /// Adds a concept; assigns and returns its id. The indicator vector is
  /// validated against the taxonomy size; popularity must be positive.
  [[nodiscard]] StatusOr<ConceptId> AddConcept(Concept concept_data);

  /// One candidate sense of a surface form, with its link-frequency prior
  /// (how often this alias refers to this concept; Wikifier's frequency
  /// feature). Priors are relative weights, not normalized.
  struct AliasEntry {
    ConceptId id = kInvalidConcept;
    double prior = 1.0;
  };

  /// Registers `alias` as a surface form of `id` with the given link prior.
  /// An alias is its word sequence (ForEachWord), so case and punctuation do
  /// not matter: "Shaquille O'Neal" and "shaquille o neal" are one alias.
  /// The same alias may map to several concepts (ambiguity); re-adding an
  /// existing pair keeps the larger prior.
  [[nodiscard]] Status AddAlias(std::string_view alias, ConceptId id, double prior = 1.0);

  /// Concept lookup; dies in debug on bad id, returns a stable reference.
  const Concept& GetConcept(ConceptId id) const { return concepts_[id]; }

  /// All candidate senses for a surface form (empty when unknown), in
  /// registration order. The reference is valid until the next AddAlias.
  const std::vector<AliasEntry>& LookupAlias(std::string_view alias) const;

  /// True if `alias` (compared by its words) is registered.
  bool HasAlias(std::string_view alias) const;

  /// Visits every (normalized alias, entry) pair: the alias's words joined
  /// by single spaces. Aliases come in an unspecified order, and each
  /// alias's entries in registration order.
  void ForEachAlias(
      const std::function<void(const std::string& alias,
                               const AliasEntry& entry)>& visit) const;

  /// Number of distinct alias surface forms.
  size_t num_aliases() const { return alias_entries_.size(); }

  /// The words of every alias and of every one-word context keyword.
  const Vocabulary& vocabulary() const { return vocabulary_; }

  /// Appends the id of each word of `text` (ForEachWord) to `ids`;
  /// kUnknownWord for a word outside the vocabulary.
  void TokenizeToIds(std::string_view text, std::vector<WordId>* ids) const;

  /// Greedy longest match at the front of `words`: the length of the longest
  /// prefix of `words` that is a registered alias, or 0 if none is. On a
  /// match, `*entries` points at that alias's candidates (valid until the
  /// next AddAlias). A kUnknownWord ends every match, since no alias
  /// contains one.
  size_t MatchAlias(std::span<const WordId> words,
                    const std::vector<AliasEntry>** entries) const;

  /// The ids of concept `id`'s context keywords, sorted, with repeats kept.
  /// A keyword that is not a single word (ForEachWord) can never equal a
  /// text word, so it has no id and is left out.
  std::span<const WordId> KeywordIds(ConceptId id) const {
    return std::span<const WordId>(keyword_ids_)
        .subspan(keyword_offsets_[id],
                 keyword_offsets_[id + 1] - keyword_offsets_[id]);
  }

  /// Longest registered alias length in words; the mention detector uses it
  /// to bound its window.
  size_t max_alias_words() const { return max_alias_words_; }

  /// Computes the indicator vector for a concept from category tags:
  /// h[k] = 1 iff any tag maps to domain k in the taxonomy. Unknown tags are
  /// skipped (Freebase categories outside the 26 mapped domains).
  std::vector<uint8_t> IndicatorFromCategories(
      const std::vector<std::string>& categories) const;

 private:
  static constexpr uint32_t kRoot = 0;
  static constexpr uint32_t kNoNode = static_cast<uint32_t>(-1);

  /// A node of the alias trie; the path from kRoot spells the words of an
  /// alias. The root's children are indexed by word (root_children_); a
  /// deeper node's children form a sibling list, since few aliases share a
  /// word prefix.
  struct AliasNode {
    WordId word = kUnknownWord;
    uint32_t first_child = kNoNode;
    uint32_t next_sibling = kNoNode;
    /// Index into alias_entries_ when an alias ends here, else kNoNode.
    uint32_t terminal = kNoNode;
  };

  uint32_t AliasChild(uint32_t node, WordId word) const;
  /// The candidates of `alias`, or nullptr when it is not registered.
  const std::vector<AliasEntry>* FindAlias(std::string_view alias) const;
  void VisitAliases(
      uint32_t node, std::string* path,
      const std::function<void(const std::string& alias,
                               const AliasEntry& entry)>& visit) const;

  DomainTaxonomy taxonomy_;
  std::vector<Concept> concepts_;
  Vocabulary vocabulary_;
  std::vector<AliasNode> alias_nodes_{AliasNode{}};
  std::vector<uint32_t> root_children_;  // by WordId; kNoNode when absent
  /// One vector per registered alias, entries in registration order: the
  /// linker sums candidate scores in this order.
  std::vector<std::vector<AliasEntry>> alias_entries_;
  /// CSR keyword ids: concept c's are keyword_ids_[offsets[c], offsets[c+1]).
  std::vector<uint32_t> keyword_offsets_{0};
  std::vector<WordId> keyword_ids_;
  size_t max_alias_words_ = 0;
  std::vector<AliasEntry> empty_;
};

}  // namespace docs::kb

#endif  // DOCS_KB_KNOWLEDGE_BASE_H_
