#include "common/string_utils.h"

#include <string.h>

#include <cctype>

namespace docs {
namespace {

// strerror_r comes in two flavors; overload resolution on the actual return
// type picks the right unpacking without feature-macro guesswork.
inline std::string UnpackStrerror(int rc, const char* buf) {
  return rc == 0 ? std::string(buf) : std::string("unknown error");  // XSI
}
inline std::string UnpackStrerror(const char* msg, const char* /*buf*/) {
  return std::string(msg);  // GNU: may return a static string, not buf
}

}  // namespace

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::vector<std::string> Split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (delims.find(c) != std::string_view::npos) {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> TokenizeWords(std::string_view text) {
  std::vector<std::string> out;
  ForEachWord(text, [&out](std::string_view word) { out.emplace_back(word); });
  return out;
}

std::string ErrnoString(int errnum) {
  char buf[256] = {};
  return UnpackStrerror(::strerror_r(errnum, buf, sizeof(buf)), buf);
}

}  // namespace docs
