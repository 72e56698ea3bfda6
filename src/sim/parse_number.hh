/**
 * @file
 * Checked numeric parsing for command-line values.
 */

#ifndef PROTEUS_SIM_PARSE_NUMBER_HH
#define PROTEUS_SIM_PARSE_NUMBER_HH

#include <charconv>
#include <string>
#include <system_error>

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

} // namespace proteus

#endif // PROTEUS_SIM_PARSE_NUMBER_HH
