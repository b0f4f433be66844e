#ifndef DOCS_COMMON_STRING_UTILS_H_
#define DOCS_COMMON_STRING_UTILS_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace docs {

/// Returns `s` lowercased (ASCII only; the KB and datasets are ASCII).
std::string ToLower(std::string_view s);

/// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string> Split(std::string_view s, std::string_view delims);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// The one word scanner of the NLP path: calls fn(word) for every word of
/// `text`, in order. A word is a maximal run of alphanumeric bytes
/// (std::isalnum), lowercased (std::tolower); every other byte separates
/// words. `word` views a buffer that lives only for the call.
template <typename Fn>
void ForEachWord(std::string_view text, Fn&& fn) {
  std::string word;
  for (char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      word.push_back(static_cast<char>(std::tolower(c)));
    } else if (!word.empty()) {
      fn(std::string_view(word));
      word.clear();
    }
  }
  if (!word.empty()) fn(std::string_view(word));
}

/// Tokenizes text for NLP use: the words of ForEachWord, as strings.
std::vector<std::string> TokenizeWords(std::string_view text);

/// Thread-safe strerror: renders `errnum` into an owned string via
/// strerror_r. std::strerror returns a pointer into static storage and is
/// flagged by concurrency-mt-unsafe — every error-formatting site in the
/// multi-threaded serving path goes through this instead.
std::string ErrnoString(int errnum);

}  // namespace docs

#endif  // DOCS_COMMON_STRING_UTILS_H_
