// Small string helpers shared by reporting code.
#pragma once

#include <string>
#include <type_traits>
#include <vector>

namespace remos {

/// Appends the pieces in order -- strings as they are, integers in
/// decimal: concat("h", 3, "-", 1) == "h3-1".  Names and labels are
/// built this way rather than as "literal" + <temporary std::string>,
/// which GCC 12 rejects with -Wrestrict at -O2 and above.
template <typename... Pieces>
std::string concat(const Pieces&... pieces) {
  std::string out;
  const auto append = [&out](const auto& piece) {
    using T = std::decay_t<decltype(piece)>;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>)
      out += std::to_string(piece);
    else
      out += piece;
  };
  (append(pieces), ...);
  return out;
}

/// Joins items with a separator: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& items,
                 const std::string& sep);

/// Splits on a single-character separator; keeps empty fields.
std::vector<std::string> split(const std::string& s, char sep);

/// Fixed-precision decimal formatting ("%.*f").
std::string fixed(double value, int decimals);

/// Left-pads to the given width with spaces.
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pads to the given width with spaces.
std::string pad_right(const std::string& s, std::size_t width);

}  // namespace remos
