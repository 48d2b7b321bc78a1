/**
 * @file
 * Checked parsing of numeric command-line and environment values: the
 * whole text must be one number in the documented range, or the run
 * stops with a fatal() naming the flag or variable.
 */

#ifndef NEUPIMS_COMMON_PARSE_FLAG_H_
#define NEUPIMS_COMMON_PARSE_FLAG_H_

#include <charconv>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/log.h"

namespace neupims {

/**
 * Parse @p text, the value of @p flag, as a T in [@p lo, @p hi]. The
 * whole text must be one number in range; anything else is a fatal()
 * naming the flag.
 */
template <typename T>
T
parseFlag(const std::string &flag, const char *text, T lo,
          T hi = std::numeric_limits<T>::max())
{
    T v{};
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec == std::errc() && ptr == end && v >= lo && v <= hi)
        return v;
    const char *kind = std::is_integral_v<T> ? "an integer" : "a number";
    if (hi == std::numeric_limits<T>::max())
        fatal(flag, " expects ", kind, " >= ", lo, ", got '", text, "'");
    fatal(flag, " expects ", kind, " in [", lo, ", ", hi, "], got '",
          text, "'");
}

} // namespace neupims

#endif // NEUPIMS_COMMON_PARSE_FLAG_H_
