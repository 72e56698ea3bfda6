/**
 * @file
 * Checked parsing of command-line values: numbers and comma lists.
 */

#ifndef PROTEUS_SIM_PARSE_NUMBER_HH
#define PROTEUS_SIM_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "logging.hh"

namespace proteus {

/**
 * Parse all of @p text as a decimal unsigned integer of type @p T.
 * Rejects empty or non-numeric text, a sign, leading whitespace,
 * trailing characters ("5x") and values that do not fit @p T, with
 * fatal("<flag>: ...").
 */
template <typename T>
T
parseUnsigned(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        fatal(flag, ": ", text, " is out of range");
    if (ec != std::errc() || ptr != end)
        fatal(flag, ": expected an unsigned integer, got '", text, "'");
    return value;
}

/**
 * Parse all of @p text as a finite decimal number (std::from_chars:
 * "0.01", "1e-4"). Rejects empty text, leading whitespace, trailing
 * characters ("0.01x"), infinities and NaN with fatal("<flag>: ...").
 */
inline double
parseDouble(const std::string &flag, const std::string &text)
{
    double value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        fatal(flag, ": ", text, " is out of range");
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
        fatal(flag, ": expected a number, got '", text, "'");
    return value;
}

/** Split a comma list, dropping empty items ("a,,b" -> {a, b}). */
inline std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

} // namespace proteus

#endif // PROTEUS_SIM_PARSE_NUMBER_HH
