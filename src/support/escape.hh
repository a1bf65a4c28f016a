/**
 * @file
 * The two text-escaping rules every JSON and XML/HTML emitter shares,
 * defined once so the emitters cannot drift apart.
 */

#ifndef RFL_SUPPORT_ESCAPE_HH
#define RFL_SUPPORT_ESCAPE_HH

#include <string>
#include <string_view>

namespace rfl
{

/**
 * Append @p s escaped for the inside of a double-quoted JSON string:
 * quote, backslash, \n, \t and \r get their short escapes, every
 * other byte below 0x20 becomes \u00XX, and all other bytes (UTF-8
 * included) pass through. JsonWriter is its one caller.
 */
void appendEscapedJson(std::string &out, std::string_view s);

/**
 * Escape @p text for XML/HTML element content and double-quoted
 * attributes (&, <, >, ").
 */
std::string escapeXml(const std::string &text);

} // namespace rfl

#endif // RFL_SUPPORT_ESCAPE_HH
