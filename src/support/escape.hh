/**
 * @file
 * The two text-escaping rules every JSON and XML/HTML emitter shares,
 * defined once so the emitters cannot drift apart.
 */

#ifndef RFL_SUPPORT_ESCAPE_HH
#define RFL_SUPPORT_ESCAPE_HH

#include <string>

namespace rfl
{

/**
 * Escape @p s for the inside of a double-quoted JSON string: quote,
 * backslash, \n, \t and \r get their short escapes, every other byte
 * below 0x20 becomes \u00XX, and all other bytes (UTF-8 included)
 * pass through.
 */
std::string escapeJson(const std::string &s);

/** escapeJson(@p s) appended to @p out. */
void appendEscapedJson(std::string &out, const std::string &s);

/**
 * Escape @p text for XML/HTML element content and double-quoted
 * attributes (&, <, >, ").
 */
std::string escapeXml(const std::string &text);

} // namespace rfl

#endif // RFL_SUPPORT_ESCAPE_HH
