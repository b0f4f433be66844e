#ifndef DOCS_TESTS_REFERENCE_LINKER_H_
#define DOCS_TESTS_REFERENCE_LINKER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kb/knowledge_base.h"
#include "nlp/entity_linker.h"

namespace docs::testing {

/// The string-window entity linker that nlp::EntityLinker replaced, kept
/// only as a test oracle. It builds a string for every window of up to
/// max_alias_words words, probes a string-keyed alias dictionary and counts
/// keyword overlap with string probes. The dictionary is a snapshot of
/// KnowledgeBase::ForEachAlias taken at construction, so the oracle does not
/// share the KB's trie or word ids; rebuild it after adding aliases. The
/// coherence pass is nlp::EntityLinker::ApplyCoherence, which both share.
class ReferenceLinker {
 public:
  /// `knowledge_base` must outlive the oracle.
  ReferenceLinker(const kb::KnowledgeBase* knowledge_base,
                  nlp::EntityLinkerOptions options = {});

  std::vector<nlp::LinkedEntity> Link(std::string_view text) const;

 private:
  const kb::KnowledgeBase* kb_;
  nlp::EntityLinker coherence_;
  nlp::EntityLinkerOptions options_;
  std::unordered_map<std::string, std::vector<kb::KnowledgeBase::AliasEntry>>
      aliases_;
};

}  // namespace docs::testing

#endif  // DOCS_TESTS_REFERENCE_LINKER_H_
