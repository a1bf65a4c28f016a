#include "support/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/escape.hh"
#include "support/logging.hh"

namespace rfl
{

namespace
{

std::string
numberToText(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Nesting bound of the parser. Every document this program writes nests
 * a few levels deep; the bound keeps a hostile body (e.g. an HTTP POST of
 * nested brackets) from recursing off the end of the stack.
 */
constexpr int kMaxJsonDepth = 256;

/** Recursive-descent parser over @p text; pos advances past the value. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json parseValue()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (++depth_ > kMaxJsonDepth)
                fail("nesting too deep");
            Json v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"')
            return Json::makeString(parseString());
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return Json::makeBool(true);
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return Json::makeBool(false);
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return Json();
        }
        return parseNumber();
    }

    void expectEnd()
    {
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
    }

  private:
    [[noreturn]] void fail(const char *what)
    {
        throw JsonError(std::string(what) + " at offset " +
                        std::to_string(pos_));
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    void expect(char c)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail("unexpected character");
        ++pos_;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("bad escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'u': {
                    // escapeJson() writes control bytes as \u00XX; the
                    // ASCII range decodes to that one byte.
                    const std::string hex = text_.substr(pos_, 4);
                    if (hex.size() != 4 ||
                        hex.find_first_not_of("0123456789abcdefABCDEF") !=
                            std::string::npos)
                        fail("bad escape");
                    const unsigned long cp = std::stoul(hex, nullptr, 16);
                    if (cp >= 0x80)
                        fail("unsupported escape");
                    pos_ += 4;
                    c = static_cast<char>(cp);
                    break;
                  }
                  default: fail("unsupported escape");
                }
            }
            out += c;
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return out;
    }

    Json parseNumber()
    {
        // Accept the nan/inf extension (see file comment of the header).
        if (text_.compare(pos_, 3, "nan") == 0) {
            pos_ += 3;
            return Json::makeNumber(std::nan(""));
        }
        if (text_.compare(pos_, 3, "inf") == 0) {
            pos_ += 3;
            return Json::makeNumber(HUGE_VAL);
        }
        if (text_.compare(pos_, 4, "-inf") == 0) {
            pos_ += 4;
            return Json::makeNumber(-HUGE_VAL);
        }
        char *end = nullptr;
        const double v = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_)
            fail("bad number");
        pos_ = static_cast<size_t>(end - text_.c_str());
        return Json::makeNumber(v);
    }

    Json parseArray()
    {
        expect('[');
        Json arr = Json::makeArray();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.push(parseValue());
            skipWs();
            if (pos_ >= text_.size())
                fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return arr;
            }
            fail("expected , or ]");
        }
    }

    Json parseObject()
    {
        expect('{');
        Json obj = Json::makeObject();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skipWs();
            const std::string key = parseString();
            expect(':');
            obj.set(key, parseValue());
            skipWs();
            if (pos_ >= text_.size())
                fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return obj;
            }
            fail("expected , or }");
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

void
Json::expectKind(Kind want) const
{
    static const char *const kNames[] = {"null",   "bool",  "number",
                                         "string", "array", "object"};
    if (kind_ != want)
        throw JsonError(std::string("expected ") +
                        kNames[static_cast<int>(want)] + ", got " +
                        kNames[static_cast<int>(kind_)]);
}

Json
Json::makeBool(bool v)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

Json
Json::makeNumber(double v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = v;
    return j;
}

Json
Json::makeString(std::string v)
{
    Json j;
    j.kind_ = Kind::String;
    j.str_ = std::move(v);
    return j;
}

Json
Json::makeArray()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::makeObject()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    expectKind(Kind::Bool);
    return bool_;
}

double
Json::asNumber() const
{
    expectKind(Kind::Number);
    return num_;
}

const std::string &
Json::asString() const
{
    expectKind(Kind::String);
    return str_;
}

const std::vector<Json> &
Json::asArray() const
{
    expectKind(Kind::Array);
    return arr_;
}

void
Json::push(Json v)
{
    RFL_ASSERT(kind_ == Kind::Array);
    arr_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    RFL_ASSERT(kind_ == Kind::Object);
    for (auto &member : obj_) {
        if (member.first == key) {
            member.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

const Json &
Json::at(const std::string &key) const
{
    expectKind(Kind::Object);
    for (const auto &member : obj_)
        if (member.first == key)
            return member.second;
    throw JsonError("missing member '" + key + "'");
}

bool
Json::has(const std::string &key) const
{
    expectKind(Kind::Object);
    for (const auto &member : obj_)
        if (member.first == key)
            return true;
    return false;
}

std::string
Json::dump() const
{
    std::ostringstream out;
    switch (kind_) {
      case Kind::Null:
        out << "null";
        break;
      case Kind::Bool:
        out << (bool_ ? "true" : "false");
        break;
      case Kind::Number:
        out << numberToText(num_);
        break;
      case Kind::String:
        out << '"' << escapeJson(str_) << '"';
        break;
      case Kind::Array:
        out << '[';
        for (size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out << ',';
            out << arr_[i].dump();
        }
        out << ']';
        break;
      case Kind::Object:
        out << '{';
        for (size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out << ',';
            out << '"' << escapeJson(obj_[i].first)
                << "\":" << obj_[i].second.dump();
        }
        out << '}';
        break;
    }
    return out.str();
}

Json
Json::parse(const std::string &text)
{
    Parser p(text);
    Json v = p.parseValue();
    p.expectEnd();
    return v;
}

bool
Json::tryParse(const std::string &text, Json *out)
{
    RFL_ASSERT(out != nullptr);
    try {
        *out = parse(text);
        return true;
    } catch (const JsonError &) {
        return false;
    }
}

} // namespace rfl
