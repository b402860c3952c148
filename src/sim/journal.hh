/**
 * @file
 * Crash-safe sweep journal. A sweep appends one record per completed
 * cell to "<out>.journal" (flushed immediately), so a killed run can
 * be resumed with --resume: already-journaled cells are restored
 * instead of re-simulated, and the final artifact is byte-identical
 * to an uninterrupted run because every stored SimResult field
 * round-trips exactly (integers verbatim, doubles as %.17g).
 *
 * Format (plain text, one record per line):
 *   line 1:  "J2 <suite> <configs> <window> <seed>[ <sampling>]" —
 *            sweep identity; --resume refuses a journal whose identity
 *            differs. The sampling token (every/window/warmup) only
 *            appears for sampled sweeps. A journal of an older format
 *            (a "J1" header) is refused with its own message: its
 *            records would parse into the wrong fields.
 *   others:  "R1 <workload> <config> <failed> <attempts> <errCode>
 *            <fields...> <errMessage...>" — one completed cell.
 *            <fields> are the stored rows of the result field table
 *            (sim/result_fields.hh), in table order; strings are
 *            %-escaped and errMessage is the rest-of-line. Sampled
 *            cells are "R2" records, which add the sampling rows
 *            (sample windows, measured instructions, CPI stderr).
 * A torn final line (crash mid-append) is ignored on load.
 */

#ifndef SVR_SIM_JOURNAL_HH
#define SVR_SIM_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace svr
{

/** Identity of one sweep, for journal/resume compatibility checks. */
struct SweepKey
{
    std::string suite;   //!< workload suite name
    std::string configs; //!< comma-joined config list as given
    std::uint64_t window = 0;
    std::uint64_t seed = 0;
    /**
     * Sampling identity, "every/window/warmup" (e.g. "1000000/40000/
     * 20000"); empty for full-detail sweeps. Part of the resume
     * compatibility check: a journal written with different sampling
     * parameters holds incomparable numbers and is rejected.
     */
    std::string sampling;

    bool
    operator==(const SweepKey &o) const
    {
        return suite == o.suite && configs == o.configs &&
               window == o.window && seed == o.seed &&
               sampling == o.sampling;
    }
};

/** Completed cells keyed by (workload, config). */
using JournalCells =
    std::map<std::pair<std::string, std::string>, SimResult>;

/** Serialize one cell as an "R1"/"R2" line (no trailing newline). */
std::string journalLine(const SimResult &r);

/**
 * %-escape a value so it travels as one whitespace-free token ("-"
 * encodes the empty string) — the token format shared by journal
 * records and the fabric wire messages (sim/fabric.hh).
 */
std::string escapeField(const std::string &s);

/** Invert escapeField(). */
std::string unescapeField(const std::string &s);

/**
 * Reader over the whitespace-separated tokens of one journal record
 * or wire message. A failed read sets ok = false instead of throwing,
 * so a parser reads every field and checks once at the end.
 */
struct TokenReader
{
    std::istringstream is;
    bool ok = true;

    explicit TokenReader(const std::string &text) : is(text) {}

    /** The next token, verbatim. */
    std::string
    raw()
    {
        std::string tok;
        if (!(is >> tok))
            ok = false;
        return tok;
    }

    /** The next token, unescaped (see escapeField()). */
    std::string str() { return unescapeField(raw()); }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        if (!(is >> v))
            ok = false;
        return v;
    }

    /** A %.17g double; strict, so a torn token is an error. */
    double
    f64()
    {
        const std::string tok = raw();
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0')
            ok = false;
        return v;
    }

    /** Everything after the current position (leading spaces trimmed). */
    std::string
    rest()
    {
        std::string r;
        std::getline(is, r);
        const std::size_t pos = r.find_first_not_of(' ');
        return pos == std::string::npos ? std::string{} : r.substr(pos);
    }
};

/**
 * Parse one "R1"/"R2" line. Returns false on a torn/corrupt line
 * (callers skip it) — never throws.
 */
bool parseJournalLine(const std::string &line, SimResult &out);

/**
 * Append-only journal writer: opens @p path (creating it with a "J2"
 * header when new or empty), then append() writes one record and
 * flushes so a SIGKILL loses at most the in-flight line. With
 * @p fsync_each the record is also fsync()ed to the device before
 * append() returns, extending the guarantee from "survives process
 * death" to "survives power loss" at a per-record latency cost
 * (--journal-fsync in the sweep tool). All IO failures — short
 * writes, ENOSPC, a failed fsync — throw SimError(IoError).
 */
class SweepJournal
{
  public:
    SweepJournal(const std::string &path, const SweepKey &key,
                 bool fsync_each = false);

    void append(const SimResult &r);

  private:
    /** Write, flush (and with fsyncEach, fsync) @p text. */
    void write(const std::string &text);

    std::string journalPath;
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> file{nullptr,
                                                          std::fclose};
    bool fsyncEach = false;
};

/**
 * Load the completed cells of an existing journal at @p path. Throws
 * SimError(IoError) when the file cannot be read and
 * SimError(ConfigInvalid) when it has an older format's header or its
 * header does not match @p expect (resuming a different sweep would
 * silently mix results). Torn or
 * corrupt record lines are skipped with a warn().
 */
JournalCells loadJournal(const std::string &path, const SweepKey &expect);

} // namespace svr

#endif // SVR_SIM_JOURNAL_HH
