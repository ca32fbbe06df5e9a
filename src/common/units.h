// Byte-size and FLOP helpers plus pretty-printing for bench output.

#pragma once

#include <cstdint>
#include <string>

namespace distme {

inline constexpr int64_t kKiB = int64_t{1} << 10;
inline constexpr int64_t kMiB = int64_t{1} << 20;
inline constexpr int64_t kGiB = int64_t{1} << 30;
inline constexpr int64_t kTiB = int64_t{1} << 40;

/// \brief Bytes per matrix element (double precision, as in the paper's
/// cuBLAS Dgemm / cusparseDcsrmm kernels).
inline constexpr int64_t kElementBytes = 8;

/// \brief Stores a × b in `*product` and returns true when a and b are
/// non-negative and the product fits in int64; returns false otherwise,
/// leaving `*product` as it was. The bound is checked by division, so the
/// product is never formed when it would overflow — for sizes read from
/// outside the program (file headers, wire formats).
[[nodiscard]] constexpr bool CheckedProduct(int64_t a, int64_t b,
                                            int64_t* product) {
  if (a < 0 || b < 0) return false;
  if (b != 0 && a > INT64_MAX / b) return false;
  *product = a * b;
  return true;
}

/// \brief Formats a byte count as a short human string, e.g. "1.50 GB".
std::string FormatBytes(double bytes);

/// \brief Formats seconds as "123.4s" / "12.3m" / "1.2h".
std::string FormatSeconds(double seconds);

/// \brief Formats an element count as "70K", "1.5M", "2B".
std::string FormatCount(double count);

}  // namespace distme
