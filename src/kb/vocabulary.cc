#include "kb/vocabulary.h"

#include <algorithm>
#include <functional>

namespace docs::kb {

size_t Vocabulary::SlotOf(std::string_view key) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = std::hash<std::string_view>{}(key) & mask;;
       slot = (slot + 1) & mask) {
    const WordId id = slots_[slot];
    if (id == kUnknownWord || word(id) == key) return slot;
  }
}

WordId Vocabulary::Intern(std::string_view key) {
  if (2 * (size() + 1) > slots_.size()) {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kUnknownWord);
    for (WordId id = 0; id < size(); ++id) slots_[SlotOf(word(id))] = id;
  }
  WordId& id = slots_[SlotOf(key)];
  if (id == kUnknownWord) {
    id = static_cast<WordId>(size());
    chars_ += key;
    ends_.push_back(static_cast<uint32_t>(chars_.size()));
  }
  return id;
}

}  // namespace docs::kb
