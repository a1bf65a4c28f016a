/**
 * @file
 * The one JSON value type, writer and parser: the result-cache spill,
 * analysis.json, the service's bodies and the telemetry files.
 *
 * A deliberately small JSON subset — objects, arrays, strings, numbers,
 * booleans, null. JsonWriter writes every document the program emits
 * (Json::dump included): it alone places separators, escapes strings
 * and renders numbers. number() writes "%.17g", which round-trips, and
 * the bare nan/inf/-inf tokens the parser accepts back, since cached
 * measurements may carry NaN analytic traffic. strictNumber() writes
 * null for those instead; its digits argument gives the series' "%.9g".
 *
 * Every document may come from outside the program, so reading never
 * aborts: bad syntax, a missing member or a wrong-kind value throws
 * JsonError. The parser bounds nesting, not size: the program's own
 * documents grow with the spec (a phase trajectory has one point per
 * sampling period, analysis.json one row per job), so no fixed length
 * holds them all; a text from the network is bounded by the HTTP
 * server's request limit. Building a value wrongly (push/set) is a bug
 * and panics.
 */

#ifndef RFL_SUPPORT_JSON_HH
#define RFL_SUPPORT_JSON_HH

#include <algorithm>
#include <cassert>
#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/escape.hh"
#include "support/number_format.hh"

namespace rfl
{

/** Malformed JSON text, a missing member or a wrong-kind value. */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Appends JSON to a caller's string; calls chain, and a member is key()
 * then one value: w.beginObject().key("n").integer(3).endObject().
 * Nesting is the caller's to get right.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out) : out_(out) {}

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }
    /** Member key; the next call writes its value. */
    JsonWriter &
    key(std::string_view k)
    {
        string(k);
        out_ += ':';
        comma_ = false;
        return *this;
    }
    /** A string-literal key, written unescaped: the program's literal
     *  keys are plain names, and most documents are mostly keys. */
    template <size_t N>
    JsonWriter &
    key(const char (&k)[N])
    {
        assert(std::none_of(k, k + N - 1, [](char c) {
            return c == '"' || c == '\\' ||
                   static_cast<unsigned char>(c) < 0x20;
        }));
        separate();
        out_ += '"';
        out_.append(k, N - 1);
        out_ += "\":";
        comma_ = false;
        return *this;
    }
    JsonWriter &
    string(std::string_view v)
    {
        separate();
        out_ += '"';
        appendEscapedJson(out_, v);
        out_ += '"';
        return *this;
    }
    JsonWriter &boolean(bool v) { return raw(v ? "true" : "false"); }
    JsonWriter &null() { return raw("null"); }
    /** Exact decimal integer. */
    template <typename Int>
        requires std::is_integral_v<Int>
    JsonWriter &
    integer(Int v)
    {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        return raw({buf, static_cast<size_t>(res.ptr - buf)});
    }
    /** "%.17g"; bare nan, inf and -inf when not finite. */
    JsonWriter &number(double v);
    /** "%.<digits>g"; null when not finite. */
    JsonWriter &strictNumber(double v, int digits = kRoundTripDigits);
    /** A value that is JSON text already, appended as is. */
    JsonWriter &
    raw(std::string_view json)
    {
        separate();
        out_ += json;
        return *this;
    }

  private:
    /** Write the comma a value owes; the value after it owes one. */
    void
    separate()
    {
        if (comma_)
            out_ += ',';
        comma_ = true;
    }

    JsonWriter &
    open(char c)
    {
        separate();
        out_ += c;
        comma_ = false;
        return *this;
    }

    JsonWriter &
    close(char c)
    {
        out_ += c;
        comma_ = true;
        return *this;
    }

    std::string &out_;
    bool comma_ = false;
};

/** Minimal JSON value (see file comment). */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;

    static Json makeBool(bool v);
    static Json makeNumber(double v);
    static Json makeString(std::string v);
    static Json makeArray();
    static Json makeObject();

    Kind kind() const { return kind_; }

    /** @name Typed accessors; throw JsonError on a kind mismatch. */
    ///@{
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<Json> &asArray() const;
    ///@}

    /** Append to an array value. */
    void push(Json v);

    /** Set an object member. */
    void set(const std::string &key, Json v);

    /** @return object member; JsonError when absent or not an object. */
    const Json &at(const std::string &key) const;

    /** @return whether the object has member @p key; JsonError when
     *  this is not an object. */
    bool has(const std::string &key) const;

    /** Render compactly (stable member order: insertion order). */
    std::string dump() const;

    /** Parse one JSON document; JsonError on malformed input. */
    static Json parse(const std::string &text);

    /**
     * Non-throwing parse: @return whether @p text parsed, filling
     * @p out. Used where a bad document is an expected outcome (a
     * crash-truncated spill line, a bad POST body).
     */
    static bool tryParse(const std::string &text, Json *out);

  private:
    /** Write this value through @p w (see dump()). */
    void write(JsonWriter &w) const;

    /** Throw JsonError unless this value is of kind @p want. */
    void expectKind(Kind want) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    /** Insertion-ordered members (keys + parallel values). */
    std::vector<std::pair<std::string, Json>> obj_;
};

} // namespace rfl

#endif // RFL_SUPPORT_JSON_HH
