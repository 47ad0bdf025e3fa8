/**
 * @file
 * Minimal JSON support for the observability layer: an escaping writer
 * used by the stats/trace/manifest exporters, the stats dump itself,
 * and a small recursive-descent parser used by `cosim-inspect`, the
 * cell artifact and the round-trip tests.
 *
 * Deliberately tiny (no external dependency): the only producers are our
 * own exporters, so the parser handles standard JSON and nothing more.
 */

#ifndef COSIM_OBS_JSON_HH
#define COSIM_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.hh"

namespace cosim {
namespace obs {
namespace json {

/** Quote and escape @p text as a JSON string literal (with quotes). */
std::string quote(const std::string& text);

/** Format a double the way our exporters do (shortest round-trip-safe). */
std::string number(double v);

/**
 * The stats dump of @p groups: {"group": {"stat": value, ...}, ...},
 * one member per line, groups and stats in the order given.
 */
std::string statsDump(const std::vector<stats::Group>& groups);

/** Write statsDump(@p groups) to @p path atomically; fatal() naming
 * the path when the write fails. */
void writeStatsDump(const std::string& path,
                    const std::vector<stats::Group>& groups);

/** A parsed JSON value (tagged union, object keys kept in file order). */
struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Value> arr;
    std::vector<std::pair<std::string, Value>> obj;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value* find(const std::string& key) const;

    /** Number of array elements / object members. */
    std::size_t size() const
    {
        return type == Type::Array ? arr.size() : obj.size();
    }
};

/**
 * Parse @p text into @p out.
 * @return true on success; on failure @p error (if non-null) describes
 *         what went wrong and where.
 */
bool parse(const std::string& text, Value& out,
           std::string* error = nullptr);

} // namespace json
} // namespace obs
} // namespace cosim

#endif // COSIM_OBS_JSON_HH
