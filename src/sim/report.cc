#include "sim/report.hh"

#include <sstream>
#include <string_view>
#include <utility>

#include "sim/result_fields.hh"

namespace svr
{

namespace
{

/** Minimal JSON string escaping (names are ASCII identifiers here). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
            break;
        }
    }
    return out;
}

/** A row's JSON group ("" at top level) and its key inside it. */
std::pair<std::string_view, std::string_view>
splitPath(std::string_view path)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string_view::npos)
        return {{}, path};
    return {path.substr(0, dot), path.substr(dot + 1)};
}

/** A row's value, in the stream's default format. */
void
putValue(std::ostream &os, const ResultField &f, const SimResult &r)
{
    if (f.isU64())
        os << f.u64(r);
    else
        os << f.f64(r);
}

/** The CSV columns of the @p show rows: their names, or r's values. */
void
csvColumns(std::ostream &os, Show show, const SimResult *r)
{
    for (const ResultField &f : resultFields()) {
        if (!f.csv || f.show != show)
            continue;
        os << ',';
        if (r)
            putValue(os, f, *r);
        else
            os << f.csv;
    }
}

void
emitResult(std::ostringstream &os, const SimResult &r,
           const std::string &indent)
{
    const std::string in2 = indent + "  ";
    const std::string in4 = in2 + "  ";
    os << indent << "{\n";
    os << in2 << "\"workload\": \"" << jsonEscape(r.workload) << "\",\n";
    os << in2 << "\"config\": \"" << jsonEscape(r.config) << "\",\n";
    os << in2 << "\"status\": \"" << (r.failed ? "failed" : "ok")
       << "\",\n";
    os << in2 << "\"attempts\": " << r.attempts << ",\n";
    if (r.failed) {
        os << in2 << "\"error\": {\n";
        os << in2 << "  \"code\": \"" << jsonEscape(r.errCode) << "\",\n";
        os << in2 << "  \"message\": \"" << jsonEscape(r.errMessage)
           << "\"\n";
        os << in2 << "},\n";
    }
    // The table's rows, shown for this result, opening and closing
    // each group's object around its rows.
    std::vector<const ResultField *> rows;
    for (const ResultField &f : resultFields()) {
        if (f.show == Show::Always || (f.show == Show::Sampled && r.sampled))
            rows.push_back(&f);
    }
    std::string_view open;
    for (std::size_t i = 0; i < rows.size(); i++) {
        const auto [group, key] = splitPath(rows[i]->path);
        if (group != open) {
            if (!open.empty())
                os << in2 << "},\n";
            if (!group.empty())
                os << in2 << '"' << group << "\": {\n";
            open = group;
        }
        os << (group.empty() ? in2 : in4) << '"' << key << "\": ";
        putValue(os, *rows[i], r);
        const bool comma =
            i + 1 < rows.size() &&
            (group.empty() || splitPath(rows[i + 1]->path).first == group);
        os << (comma ? ",\n" : "\n");
    }
    if (!open.empty())
        os << in2 << "}\n";
    os << indent << "}";
}

} // namespace

std::string
toJson(const SimResult &r)
{
    std::ostringstream os;
    emitResult(os, r, "");
    os << "\n";
    return os.str();
}

std::string
toJson(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); i++) {
        emitResult(os, results[i], "  ");
        if (i + 1 < results.size())
            os << ",";
        os << "\n";
    }
    os << "]\n";
    return os.str();
}

std::string
csvHeader(bool sampled)
{
    std::ostringstream os;
    os << "workload,config";
    csvColumns(os, Show::Always, nullptr);
    os << ",status,attempts,error_code";
    if (sampled)
        csvColumns(os, Show::Sampled, nullptr);
    return os.str();
}

std::string
csvRow(const SimResult &r, bool sampled)
{
    std::ostringstream os;
    os << r.workload << ',' << r.config;
    csvColumns(os, Show::Always, &r);
    os << ',' << (r.failed ? "failed" : "ok") << ',' << r.attempts << ','
       << r.errCode;
    if (sampled)
        csvColumns(os, Show::Sampled, &r);
    return os.str();
}

} // namespace svr
