/**
 * @file
 * Checked parsing for command-line flags, sweep specs and fault
 * rules. A number's whole text must be one number of the target type:
 * garbage, trailing characters, any sign on an unsigned value, a
 * leading '+', overflow and non-finite floats are all rejected, where
 * std::stoul and friends would abort, wrap, or stop at the first bad
 * character.
 */

#ifndef SVR_COMMON_PARSE_HH
#define SVR_COMMON_PARSE_HH

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hh"

namespace svr
{

/** Parse all of @p text into @p out; false (out untouched) if invalid. */
template <typename T>
bool
tryParseNumber(std::string_view text, T &out)
{
    static_assert(std::is_arithmetic_v<T>);
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    out = v;
    return true;
}

/**
 * tryParseNumber(), throwing SimError(ConfigInvalid) that names
 * @p what (e.g. "--window") when @p text is not a valid number.
 */
template <typename T>
T
parseNumber(std::string_view text, const char *what)
{
    T v{};
    if (!tryParseNumber(text, v)) {
        throw simErrorf(ErrCode::ConfigInvalid, {},
                        "%s: '%.*s' is not a valid %s", what,
                        static_cast<int>(text.size()), text.data(),
                        std::is_floating_point_v<T> ? "number"
                        : std::is_signed_v<T>       ? "integer"
                                                    : "unsigned integer");
    }
    return v;
}

/** The non-empty @p sep-separated items of @p text, in order. */
inline std::vector<std::string>
splitList(std::string_view text, char sep)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(sep, start);
        if (end == std::string_view::npos)
            end = text.size();
        if (end > start)
            items.emplace_back(text.substr(start, end - start));
        start = end + 1;
    }
    return items;
}

} // namespace svr

#endif // SVR_COMMON_PARSE_HH
