#include "json_reader.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace proteus {
namespace obs {

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = get(key);
    if (!v)
        fatal("JSON: missing object key \"", key, "\"");
    return *v;
}

std::uint64_t
JsonValue::asU64() const
{
    return static_cast<std::uint64_t>(asNumber());
}

double
JsonValue::asNumber() const
{
    if (type != Type::Number)
        fatal("JSON: expected a number");
    return number;
}

const std::string &
JsonValue::asString() const
{
    if (type != Type::String)
        fatal("JSON: expected a string");
    return str;
}

namespace {

/** Recursive-descent parser over an in-memory buffer. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : _text(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (_pos != _text.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < _pos && i < _text.size(); ++i) {
            if (_text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("JSON parse error at line ", line, ", column ", col, ": ",
              what);
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos]))) {
            ++_pos;
        }
    }

    char
    peek()
    {
        if (_pos >= _text.size())
            fail("unexpected end of input");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (_text.compare(_pos, n, word) == 0) {
            _pos += n;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return objectValue();
          case '[': return arrayValue();
          case '"': return stringValue();
          case 't':
          case 'f': return boolValue();
          case 'n': return nullValue();
          default:  return numberValue();
        }
    }

    JsonValue
    objectValue()
    {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        for (;;) {
            skipWs();
            JsonValue key = stringValue();
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key.str), value());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    arrayValue()
    {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    stringValue()
    {
        expect('"');
        JsonValue v;
        v.type = JsonValue::Type::String;
        for (;;) {
            const char c = peek();
            ++_pos;
            if (c == '"')
                return v;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                v.str.push_back(c);
                continue;
            }
            const char esc = peek();
            ++_pos;
            switch (esc) {
              case '"':  v.str.push_back('"'); break;
              case '\\': v.str.push_back('\\'); break;
              case '/':  v.str.push_back('/'); break;
              case 'b':  v.str.push_back('\b'); break;
              case 'f':  v.str.push_back('\f'); break;
              case 'n':  v.str.push_back('\n'); break;
              case 'r':  v.str.push_back('\r'); break;
              case 't':  v.str.push_back('\t'); break;
              case 'u': {
                if (_pos + 4 > _text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = _text[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= h - '0';
                    else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                    else fail("bad hex digit in \\u escape");
                }
                // UTF-8 encode (surrogate pairs unsupported; this
                // repo's writers only escape control characters).
                if (code < 0x80) {
                    v.str.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    v.str.push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    v.str.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    v.str.push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    v.str.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    v.str.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
              }
              default: fail("unknown escape sequence");
            }
        }
    }

    JsonValue
    boolValue()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (consumeWord("true"))
            v.boolean = true;
        else if (consumeWord("false"))
            v.boolean = false;
        else
            fail("bad literal");
        return v;
    }

    JsonValue
    nullValue()
    {
        if (!consumeWord("null"))
            fail("bad literal");
        return JsonValue{};
    }

    JsonValue
    numberValue()
    {
        const std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        auto digits = [&]() {
            bool any = false;
            while (_pos < _text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(_text[_pos]))) {
                ++_pos;
                any = true;
            }
            return any;
        };
        if (!digits())
            fail("expected a number");
        if (_pos < _text.size() && _text[_pos] == '.') {
            ++_pos;
            if (!digits())
                fail("expected digits after decimal point");
        }
        if (_pos < _text.size() &&
            (_text[_pos] == 'e' || _text[_pos] == 'E')) {
            ++_pos;
            if (_pos < _text.size() &&
                (_text[_pos] == '+' || _text[_pos] == '-')) {
                ++_pos;
            }
            if (!digits())
                fail("expected exponent digits");
        }
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = std::strtod(_text.c_str() + start, nullptr);
        return v;
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

JsonValue
parseJsonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open JSON file: ", path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseJson(buf.str());
}

} // namespace obs
} // namespace proteus
