#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/atomic_file.hh"
#include "base/logging.hh"

namespace cosim {
namespace obs {
namespace json {

std::string
quote(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
number(double v)
{
    // JSON has no NaN/Inf; our exporters clamp them to null-ish zero.
    if (!std::isfinite(v))
        return "0";
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
statsDump(const std::vector<stats::Group>& groups)
{
    std::string out = "{";
    for (std::size_t i = 0; i < groups.size(); ++i) {
        out += (i ? ",\n  " : "\n  ") + quote(groups[i].name) + ": {";
        const auto& values = groups[i].values;
        for (std::size_t j = 0; j < values.size(); ++j) {
            out += (j ? ",\n    " : "\n    ") + quote(values[j].first) +
                   ": " + number(values[j].second);
        }
        out += "\n  }";
    }
    return out + "\n}\n";
}

void
writeStatsDump(const std::string& path,
               const std::vector<stats::Group>& groups)
{
    // Atomic, so a crash or full disk never leaves a truncated dump
    // that looks complete.
    try {
        writeFileAtomic(path, statsDump(groups));
    } catch (const IoError& e) {
        fatal("stats: %s", e.what());
    }
}

const Value*
Value::find(const std::string& key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto& [k, v] : obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

/** Recursive-descent parser over a borrowed string. */
class Parser
{
  public:
    Parser(const std::string& text, std::string* error)
        : text_(text), error_(error) {}

    bool parseDocument(Value& out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool fail(const std::string& what)
    {
        if (error_) {
            *error_ = what + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool literal(const char* word, Value& out, Value::Type type, bool b)
    {
        std::size_t n = 0;
        while (word[n])
            ++n;
        if (text_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        out.type = type;
        out.boolean = b;
        return true;
    }

    bool parseString(std::string& out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("dangling escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // Encode as UTF-8 (surrogate pairs not needed by our
                // exporters; lone surrogates pass through as-is).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(Value& out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
            digits = true;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (!digits)
            return fail("bad number");
        out.type = Value::Type::Number;
        out.num = std::strtod(text_.substr(start, pos_ - start).c_str(),
                              nullptr);
        return true;
    }

    bool parseValue(Value& out)
    {
        if (++depth_ > maxDepth_)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        bool ok;
        switch (text_[pos_]) {
          case '{': ok = parseObject(out); break;
          case '[': ok = parseArray(out); break;
          case '"':
            out.type = Value::Type::String;
            ok = parseString(out.str);
            break;
          case 't': ok = literal("true", out, Value::Type::Bool, true); break;
          case 'f':
            ok = literal("false", out, Value::Type::Bool, false);
            break;
          case 'n': ok = literal("null", out, Value::Type::Null, false); break;
          default: ok = parseNumber(out); break;
        }
        --depth_;
        return ok;
    }

    bool parseArray(Value& out)
    {
        out.type = Value::Type::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            Value elem;
            if (!parseValue(elem))
                return false;
            out.arr.push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parseObject(Value& out)
    {
        out.type = Value::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            Value val;
            if (!parseValue(val))
                return false;
            out.obj.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string& text_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    static constexpr int maxDepth_ = 64;
};

} // namespace

bool
parse(const std::string& text, Value& out, std::string* error)
{
    out = Value();
    return Parser(text, error).parseDocument(out);
}

} // namespace json
} // namespace obs
} // namespace cosim
