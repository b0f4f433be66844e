#ifndef DOCS_KB_VOCABULARY_H_
#define DOCS_KB_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace docs::kb {

/// Dense id of an interned word.
using WordId = uint32_t;
/// What Find returns for a word that was never interned.
inline constexpr WordId kUnknownWord = static_cast<WordId>(-1);

/// Interned words: each distinct word gets the next dense id, for good. The
/// words sit end to end in one character buffer, and the lookup table is
/// open addressing over ids that hashes the stored words, so every word is
/// held exactly once and copies of a Vocabulary stay valid.
class Vocabulary {
 public:
  /// Returns the id of `key`, interning it on first sight.
  WordId Intern(std::string_view key);

  /// Returns the id of `key`, or kUnknownWord if it was never interned.
  WordId Find(std::string_view key) const {
    return slots_.empty() ? kUnknownWord : slots_[SlotOf(key)];
  }

  std::string_view word(WordId id) const {
    return std::string_view(chars_.data() + ends_[id], ends_[id + 1] - ends_[id]);
  }
  size_t size() const { return ends_.size() - 1; }

 private:
  /// The slot holding `key`, or the empty slot where it would go.
  size_t SlotOf(std::string_view key) const;

  /// Word w is chars_[ends_[w], ends_[w + 1]).
  std::string chars_;
  std::vector<uint32_t> ends_{0};
  /// Power-of-two table of ids, at most half full; kUnknownWord marks empty.
  std::vector<WordId> slots_;
};

}  // namespace docs::kb

#endif  // DOCS_KB_VOCABULARY_H_
