/**
 * @file
 * Sweep columns for the bench binaries: one list of columns prints
 * both a stdout table row and a JSON object, so a sweep declares each
 * value once. A column is a table cell (a header over a printf
 * format), a JSON field, or both; the header line takes each cell's
 * printed width and alignment.
 */

#ifndef NEUPIMS_BENCH_COLUMNS_H_
#define NEUPIMS_BENCH_COLUMNS_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "runtime/latency_stats.h"

namespace neupims::bench {

/** A column's value: a number, a string, or (JSON only) raw JSON. */
struct Value
{
    Value(double v) : num(v) {}
    Value(std::string v, bool raw_json = false)
        : str(std::move(v)), isStr(true), raw(raw_json)
    {}
    Value(const char *v) : Value(std::string(v)) {}

    double num = 0.0;
    std::string str;
    bool isStr = false;
    bool raw = false;
};

/**
 * One column of a sweep: a table cell (@p head over the value printed
 * with the printf format @p cell; a head starting with '|' opens a
 * new group of cells), a JSON field (@p key, a number printed with
 * @p jfmt), or both.
 */
struct Col
{
    const char *head; ///< table header ("" = JSON only)
    const char *cell; ///< printf format of the table cell
    const char *key;  ///< JSON key ("" = table only)
    const char *jfmt; ///< printf format of a JSON number
    Value value;
};
using Cols = std::vector<Col>;

inline Col
tab(const char *head, const char *cell, Value v)
{
    return {head, cell, "", "", std::move(v)};
}

/** A JSON field; a number without @p jfmt is a count. */
inline Col
json(const char *key, Value v, const char *jfmt = "%.0f")
{
    return {"", "", key, jfmt, std::move(v)};
}

inline std::string
format(const char *fmt, const Value &v)
{
    char buf[128];
    if (v.isStr)
        std::snprintf(buf, sizeof buf, fmt, v.str.c_str());
    else
        std::snprintf(buf, sizeof buf, fmt, v.num);
    return buf;
}

/** The JSON fields of @p cols, joined by @p sep. */
inline std::string
fields(const Cols &cols, const std::string &sep)
{
    std::string out;
    for (const Col &c : cols) {
        const Value &v = c.value;
        if (*c.key)
            out += (out.empty() ? "\"" : sep + "\"") + c.key + "\": " +
                   (v.raw     ? v.str
                    : v.isStr ? "\"" + v.str + "\""
                              : format(c.jfmt, v));
    }
    return out;
}

/** A one-line JSON object of @p cols. */
inline Value
jsonObject(const Cols &cols)
{
    return Value("{" + fields(cols, ", ") + "}", true);
}

/** @p cols as one object of a sweep's JSON array. */
inline std::string
block(const Cols &cols)
{
    return "    {\n      " + fields(cols, ",\n      ") + "\n    }";
}

/** @p items as a JSON array, one per line, closed at @p indent. */
inline Value
list(const std::vector<std::string> &items, const std::string &indent)
{
    std::string text = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        text += (i ? ",\n  " : "\n  ") + indent + items[i];
    return Value(text + "\n" + indent + "]", true);
}

/** A JSON list of numbers printed with %g. */
inline Value
numbers(const std::vector<double> &values)
{
    std::string text;
    for (double v : values)
        text += (text.empty() ? "" : ", ") + format("%g", v);
    return Value("[" + text + "]", true);
}

/** @p s's percentiles in ms (@p scale maps one sample to ms). */
inline Col
lat(const char *key, const runtime::LatencyStats &s, double scale = 1e-3)
{
    return json(key, jsonObject({json("p50", s.p50() * scale, "%.3f"),
                             json("p95", s.p95() * scale, "%.3f"),
                             json("p99", s.p99() * scale, "%.3f"),
                             json("mean", s.mean() * scale, "%.3f"),
                             json("max", s.maxValue() * scale, "%.3f")}));
}

/** The table header (@p head true: each head takes its cells' width
 * and alignment) or one table line of @p cols. */
inline std::string
line(const Cols &cols, bool head)
{
    std::string out;
    for (const Col &c : cols) {
        if (!*c.head)
            continue;
        bool bar = c.head[0] == '|';
        std::string cell = format(c.cell, c.value);
        if (head) {
            Value blank = c.value.isStr ? Value("") : Value(0.0);
            int width = static_cast<int>(format(c.cell, blank).size());
            char buf[64];
            std::snprintf(buf, sizeof buf,
                          std::strncmp(c.cell, "%-", 2) ? "%*s" : "%-*s",
                          width, c.head + bar);
            cell = buf;
        }
        out += (out.empty() ? "" : bar ? " | " : " ") + cell;
    }
    return out + "\n";
}

/** What one spec of a sweep prints: the sweep's table header, the
 * spec's table lines and its JSON objects. */
struct Output
{
    std::string header;
    std::string rows;
    std::vector<std::string> objects;

    /** Add @p cols as a table line (the first also sets the header). */
    void
    row(const Cols &cols)
    {
        if (header.empty())
            header = line(cols, true);
        rows += line(cols, false);
    }

    /** Add @p cols as a table line and a JSON object. */
    void
    add(const Cols &cols)
    {
        row(cols);
        objects.push_back(block(cols));
    }
};

} // namespace neupims::bench

#endif // NEUPIMS_BENCH_COLUMNS_H_
