// Typed parse results for name-driven factories (policies, topologies).
// Instead of aborting deep inside a run with a bare std::invalid_argument,
// a factory returns Parsed<T>: either the value or a ParseError carrying
// the offending input, what kind of name it was, and the nearest known
// name as a suggestion — which CLIs surface as
// "error: unknown policy 'ospf' (did you mean 'drb'?)" with exit code 2.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace prdrb {

/// A rejected name plus enough context to phrase a one-line diagnostic.
struct ParseError {
  std::string input;       ///< the offending name, verbatim
  std::string kind;        ///< "policy", "topology", "scheduler", ...
  std::string message;     ///< short reason ("unknown policy", "bad extent")
  std::string suggestion;  ///< nearest known name; empty when none is close

  /// The full human-readable diagnostic.
  std::string what() const {
    std::string s = message + " '" + input + "'";
    if (!suggestion.empty()) s += " (did you mean '" + suggestion + "'?)";
    return s;
  }
};

/// Value-or-error result of parsing a name. Factories return it by value;
/// run-path callers that still want the old throwing behaviour use
/// value_or_throw().
template <typename T>
class Parsed {
 public:
  Parsed(T value) : v_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Parsed(ParseError error) : v_(std::move(error)) {} // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  T& value() {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const {
    assert(ok());
    return std::get<T>(v_);
  }

  const ParseError& error() const {
    assert(!ok());
    return std::get<ParseError>(v_);
  }

  /// Extract the value, throwing std::invalid_argument with the diagnostic
  /// on error — the pre-Parsed contract, kept for library-internal callers.
  T value_or_throw() {
    if (!ok()) throw std::invalid_argument(error().what());
    return std::move(std::get<T>(v_));
  }

 private:
  std::variant<T, ParseError> v_;
};

/// Levenshtein edit distance, the classic two-row DP. Inputs here are short
/// factory names, so the O(|a|*|b|) cost is irrelevant.
inline std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min(std::min(prev[j] + 1, cur[j - 1] + 1), subst);
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// The candidate closest to `input` by edit distance, or "" when even the
/// best candidate needs more than max(input.size()/2, 2) edits — a cutoff
/// that keeps wild typos from producing absurd suggestions.
inline std::string nearest_name(std::string_view input,
                                const std::vector<std::string_view>& candidates) {
  std::string_view best;
  std::size_t best_dist = static_cast<std::size_t>(-1);
  for (std::string_view c : candidates) {
    const std::size_t d = edit_distance(input, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  const std::size_t cutoff = std::max<std::size_t>(input.size() / 2, 2);
  return best_dist <= cutoff ? std::string(best) : std::string();
}

}  // namespace prdrb
