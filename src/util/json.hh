/**
 * @file
 * Minimal JSON support shared by the report writer/parser
 * (src/runner/report.cc) and the sweep journal (src/runner/journal.cc):
 * a recursive-descent reader covering exactly the subset we emit
 * (objects, arrays, strings, numbers, booleans, null) plus the escape
 * and number-formatting helpers for the writers. Parse failures throw
 * BvcError{Io} naming the byte offset — truncated or corrupt input is
 * rejected, never partially parsed (docs/robustness.md).
 */

#ifndef BVC_UTIL_JSON_HH_
#define BVC_UTIL_JSON_HH_

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/error.hh"

namespace bvc
{

/** %.17g preserves every double bit-exactly across a round-trip. */
inline std::string
jsonRawNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * JSON number. Non-finite metrics (e.g. the IPC of a zero-cycle
 * window) become null: bare nan/inf tokens are not valid JSON and
 * break every standard parser, including our own reader.
 */
inline std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    return jsonRawNum(v);
}

inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Recursive-descent reader for the schemas this project writes. Every
 * malformed construct — including input that simply ends early —
 * throws BvcError{Io} with the byte offset, so callers either get a
 * fully valid document or a structured error; there is no partial
 * result to act on. Call expectEnd() after the top-level value to also
 * reject trailing garbage (a truncated-then-overwritten file).
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : text_(text) {}
    /** The reader keeps a reference: a temporary would dangle. */
    JsonReader(std::string &&) = delete;

    /** Skip whitespace and peek the next character (0 at end). */
    char peek()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    /** Reject anything but trailing whitespace after the document. */
    void expectEnd()
    {
        if (peek() != '\0')
            fail("trailing garbage after document");
    }

    std::size_t offset() const { return pos_; }

    [[nodiscard]] std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("truncated escape");
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("truncated \\u escape");
                    // Validate each digit explicitly: strtoul would
                    // accept leading whitespace or a sign and decode
                    // "\u +12" or "\uZZZZ" to garbage instead of
                    // failing the parse.
                    for (std::size_t i = 0; i < 4; ++i)
                        if (!std::isxdigit(static_cast<unsigned char>(
                                text_[pos_ + i])))
                            fail("bad \\u escape");
                    const unsigned code = static_cast<unsigned>(
                        std::strtoul(text_.substr(pos_, 4).c_str(),
                                     nullptr, 16));
                    pos_ += 4;
                    // Schema strings are ASCII; encode low codepoints
                    // directly and replace anything else with '?'.
                    out += code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                  }
                  default: fail("unsupported escape");
                }
            } else {
                out += c;
            }
        }
        expect('"');
        return out;
    }

    [[nodiscard]] double parseNumber()
    {
        peek();
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            fail("expected number");
        pos_ += static_cast<std::size_t>(end - start);
        return v;
    }

    /**
     * Double-valued metric field: accepts null (the writer's encoding
     * of non-finite values) as quiet NaN.
     */
    [[nodiscard]] double parseNumberOrNull()
    {
        if (peek() == 'n') {
            if (text_.compare(pos_, 4, "null") != 0)
                fail("expected number or null");
            pos_ += 4;
            return std::numeric_limits<double>::quiet_NaN();
        }
        return parseNumber();
    }

    /**
     * 64-bit counter field, parsed as an integer directly: routing it
     * through parseNumber()'s double would corrupt every value above
     * 2^53 (doubles have 53 bits of mantissa).
     */
    [[nodiscard]] std::uint64_t parseU64()
    {
        peek();
        if (pos_ < text_.size() && text_[pos_] == '-') {
            // Counters are unsigned; a negative value is a corrupt
            // report, not something to wrap around.
            fail("expected unsigned integer");
        }
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(start, &end, 10);
        if (end == start)
            fail("expected unsigned integer");
        pos_ += static_cast<std::size_t>(end - start);
        return v;
    }

    [[nodiscard]] bool parseBool()
    {
        peek(); // position past whitespace
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return false;
        }
        fail("expected boolean");
    }

    /** Skip any JSON value (for unknown keys). */
    void skipValue()
    {
        const char c = peek();
        if (c == '"') {
            (void)parseString();
        } else if (c == '{') {
            ++pos_;
            if (!consume('}')) {
                do {
                    (void)parseString();
                    expect(':');
                    skipValue();
                } while (consume(','));
                expect('}');
            }
        } else if (c == '[') {
            ++pos_;
            if (!consume(']')) {
                do
                    skipValue();
                while (consume(','));
                expect(']');
            }
        } else if (c == 't' || c == 'f') {
            (void)parseBool();
        } else if (c == 'n') {
            if (text_.compare(pos_, 4, "null") != 0)
                fail("expected null");
            pos_ += 4;
        } else {
            (void)parseNumber();
        }
    }

    /**
     * Iterate an object's keys: calls handler(key) positioned at the
     * value; the handler must consume exactly that value.
     */
    template <typename Handler>
    void parseObject(Handler &&handler)
    {
        expect('{');
        if (consume('}'))
            return;
        do {
            const std::string key = parseString();
            expect(':');
            handler(key);
        } while (consume(','));
        expect('}');
    }

    template <typename Element>
    void parseArray(Element &&element)
    {
        expect('[');
        if (consume(']'))
            return;
        do
            element();
        while (consume(','));
        expect(']');
    }

    [[noreturn]] void fail(const std::string &why) const
    {
        throw BvcError(ErrorCategory::Io,
                       "JSON parse error at byte " +
                           std::to_string(pos_) + ": " + why);
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace bvc

#endif // BVC_UTIL_JSON_HH_
