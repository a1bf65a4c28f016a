#include "support/escape.hh"

namespace rfl
{

void
appendEscapedJson(std::string &out, std::string_view s)
{
    static const char kHex[] = "0123456789abcdef";
    // Copy runs of bytes that need no escape in one append each.
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            out += "\\u00";
            out += kHex[c >> 4];
            out += kHex[c & 0xf];
        }
    }
    out.append(s, run, s.size() - run);
}

std::string
escapeXml(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace rfl
