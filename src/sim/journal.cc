#include "sim/journal.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "common/error.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/result_fields.hh"

namespace svr
{

namespace
{

/** Exact double round-trip: %.17g out, correctly-rounded strtod in. */
void
putDouble(std::ostringstream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << ' ' << buf;
}

/** Stored rows, the sampling ones only in a sampled ("R2") record. */
bool
journaled(const ResultField &f, bool sampled)
{
    return f.stored() && (f.show != Show::Sampled || sampled);
}

[[noreturn]] void
ioError(const char *op, const std::string &path, int err)
{
    throw simErrorf(ErrCode::IoError, {}, "journal: %s '%s' failed: %s",
                    op, path.c_str(), std::strerror(err));
}

std::string
headerLine(const SweepKey &key)
{
    std::ostringstream os;
    os << "J2 " << escapeField(key.suite) << ' '
       << escapeField(key.configs) << ' ' << key.window << ' '
       << key.seed;
    // Appended only when sampling is on.
    if (!key.sampling.empty())
        os << ' ' << escapeField(key.sampling);
    return os.str();
}

} // namespace

std::string
escapeField(const std::string &s)
{
    if (s.empty())
        return "-";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
            char buf[4];
            std::snprintf(buf, sizeof(buf), "%%%02X",
                          static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
unescapeField(const std::string &s)
{
    if (s == "-")
        return "";
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); i++) {
        if (s[i] == '%' && i + 2 < s.size()) {
            const char hex[3] = {s[i + 1], s[i + 2], '\0'};
            out += static_cast<char>(std::strtoul(hex, nullptr, 16));
            i += 2;
        } else {
            out += s[i];
        }
    }
    return out;
}

std::string
journalLine(const SimResult &r)
{
    std::ostringstream os;
    os << (r.sampled ? "R2 " : "R1 ") << escapeField(r.workload) << ' '
       << escapeField(r.config) << ' ' << (r.failed ? 1 : 0) << ' '
       << r.attempts << ' ' << escapeField(r.errCode);
    for (const ResultField &f : resultFields()) {
        if (!journaled(f, r.sampled))
            continue;
        if (f.isU64())
            os << ' ' << f.u64(r);
        else
            putDouble(os, f.f64(r));
    }
    os << ' ' << escapeField(r.errMessage);
    return os.str();
}

bool
parseJournalLine(const std::string &line, SimResult &out)
{
    TokenReader rd(line);
    const std::string tag = rd.raw();
    if (tag != "R1" && tag != "R2")
        return false;

    SimResult r;
    r.sampled = tag == "R2";
    r.workload = rd.str();
    r.config = rd.str();
    r.failed = rd.u64() != 0;
    r.attempts = static_cast<unsigned>(rd.u64());
    r.errCode = rd.str();
    for (const ResultField &f : resultFields()) {
        if (!journaled(f, r.sampled))
            continue;
        if (f.isU64())
            f.u64Ref(r) = rd.u64();
        else
            f.f64Ref(r) = rd.f64();
    }
    r.errMessage = rd.str();
    if (!rd.ok || r.workload.empty() || r.config.empty())
        return false;
    out = std::move(r);
    return true;
}

SweepJournal::SweepJournal(const std::string &path, const SweepKey &key,
                           bool fsync_each)
    : journalPath(path), fsyncEach(fsync_each)
{
    // Append mode keeps existing records when resuming; the header is
    // only written when the file is new or empty.
    file.reset(std::fopen(path.c_str(), "a+b"));
    if (!file)
        ioError("open", path, errno);
    // Whether 'a' mode positions at 0 or EOF before the first write is
    // implementation-defined; seek explicitly before the empty check.
    std::fseek(file.get(), 0, SEEK_END);
    const bool empty = std::ftell(file.get()) == 0;
    // A crash mid-append can leave a torn final line: end it, so the
    // next record starts a line of its own instead of extending (and
    // so corrupting) the torn one, which the loader skips.
    const bool torn = !empty &&
                      std::fseek(file.get(), -1, SEEK_END) == 0 &&
                      std::fgetc(file.get()) != '\n';
    std::fseek(file.get(), 0, SEEK_END); // reading -> writing
    if (empty)
        write(headerLine(key) + "\n");
    else if (torn)
        write("\n");
}

void
SweepJournal::append(const SimResult &r)
{
    write(journalLine(r) + "\n");
}

void
SweepJournal::write(const std::string &text)
{
    if (std::fwrite(text.data(), 1, text.size(), file.get()) !=
            text.size() ||
        std::fflush(file.get()) != 0) {
        // A short write here is ENOSPC (or a dying disk) surfacing
        // through stdio — either way the record cannot be trusted.
        ioError("append", journalPath, errno);
    }
    if (fsyncEach && ::fsync(::fileno(file.get())) != 0)
        ioError("fsync", journalPath, errno);
}

JournalCells
loadJournal(const std::string &path, const SweepKey &expect)
{
    const std::string content = readFile(path);

    // A record line is only trusted when newline-terminated: a crash
    // mid-append leaves a torn final line, which we drop.
    std::vector<std::string> lines = splitList(content, '\n');
    if (!content.empty() && content.back() != '\n') {
        warn("journal '%s': dropping torn final line", path.c_str());
        lines.pop_back();
    }

    const std::string tag = lines.empty() ? "" : TokenReader(lines[0]).raw();
    if (tag.size() > 1 && tag[0] == 'J' && tag != "J2") {
        throw simErrorf(
            ErrCode::ConfigInvalid, {},
            "journal '%s' was written in an older format (%s; this build "
            "reads J2): delete it, or rerun the sweep without --resume",
            path.c_str(), tag.c_str());
    }
    if (lines.empty() || lines[0] != headerLine(expect)) {
        throw simErrorf(
            ErrCode::ConfigInvalid, {},
            "journal '%s' belongs to a different sweep (its header "
            "does not match suite/configs/window/seed); delete it or "
            "rerun with the original arguments",
            path.c_str());
    }

    JournalCells cells;
    for (std::size_t i = 1; i < lines.size(); i++) {
        SimResult r;
        if (!parseJournalLine(lines[i], r)) {
            warn("journal '%s': skipping corrupt record %zu",
                 path.c_str(), i);
            continue;
        }
        cells[{r.workload, r.config}] = std::move(r);
    }
    return cells;
}

} // namespace svr
