/**
 * @file
 * The one JSON value type, writer and parser: the result-cache spill,
 * analysis.json and the service's bodies.
 *
 * A deliberately small JSON subset — objects, arrays, strings, numbers,
 * booleans, null. Numbers round-trip bit-exactly ("%.17g"); NaN and
 * infinity are emitted as bare nan/inf tokens (accepted back by the
 * parser), since cached measurements may carry NaN analytic traffic.
 *
 * Every document may come from outside the program, so reading never
 * aborts: bad syntax, a missing member or a wrong-kind value throws
 * JsonError. Building a value wrongly (push/set) is a bug and panics.
 */

#ifndef RFL_SUPPORT_JSON_HH
#define RFL_SUPPORT_JSON_HH

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rfl
{

/** Malformed JSON text, a missing member or a wrong-kind value. */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
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
