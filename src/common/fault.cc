#include "common/fault.hh"

#include <cstdlib>

#include "common/error.hh"
#include "common/parse.hh"
#include "common/rng.hh"

namespace svr
{

namespace
{

bool
patternMatches(std::string_view pattern, std::string_view value)
{
    return pattern == "*" || pattern == value;
}

[[noreturn]] void
badSpec(std::string_view spec, const char *why)
{
    throw simErrorf(ErrCode::ConfigInvalid, {},
                    "bad fault rule '%.*s': %s (see common/fault.hh)",
                    static_cast<int>(spec.size()), spec.data(), why);
}

double
parseProbability(std::string_view item, std::string_view text)
{
    double p = 0.0;
    if (!tryParseNumber(text, p) || p < 0.0 || p > 1.0)
        badSpec(item, "probability must be 0..1");
    return p;
}

} // namespace

void
FaultPlan::parseNetItem(std::string_view item)
{
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
        badSpec(item, "want KIND@TARGET or KEY=VALUE");
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (value.empty())
        badSpec(item, "empty value");

    if (key == "seed") {
        if (!tryParseNumber(value, netPlan.seed))
            badSpec(item, "seed must be an unsigned integer");
    } else if (key == "drop") {
        netPlan.dropP = parseProbability(item, value);
    } else if (key == "corrupt") {
        netPlan.corruptP = parseProbability(item, value);
    } else if (key == "trunc") {
        netPlan.truncP = parseProbability(item, value);
    } else if (key == "delay") {
        const std::size_t slash = value.find('/');
        if (slash == std::string_view::npos)
            badSpec(item, "want delay=P/MS");
        netPlan.delayP = parseProbability(item, value.substr(0, slash));
        if (!tryParseNumber(value.substr(slash + 1), netPlan.delayMs) ||
            netPlan.delayMs < 0)
            badSpec(item, "delay ms must be >= 0");
    } else if (key == "part") {
        for (const std::string &win_str : splitList(value, ',')) {
            const std::string_view win = win_str;
            const std::size_t plus = win.find('+');
            if (plus == std::string_view::npos)
                badSpec(item, "want part=START+DUR[,..]");
            NetFaultPlan::Window w;
            if (!tryParseNumber(win.substr(0, plus), w.startMs))
                badSpec(item, "bad partition start");
            if (!tryParseNumber(win.substr(plus + 1), w.durMs) ||
                w.durMs == 0)
                badSpec(item, "bad partition duration");
            netPlan.partitions.push_back(w);
        }
    } else if (key == "after") {
        if (!tryParseNumber(value, netPlan.skipFirst))
            badSpec(item, "after must be an unsigned integer");
    } else {
        badSpec(item, "unknown network key (want seed, drop, corrupt, "
                      "trunc, delay, part, after)");
    }
}

FaultPlan
FaultPlan::parse(std::string_view spec)
{
    FaultPlan plan;
    for (const std::string &item_str : splitList(spec, ';')) {
        const std::string_view item = item_str;
        const std::size_t at = item.find('@');
        if (at == std::string_view::npos) {
            plan.parseNetItem(item);
            continue;
        }
        const std::string_view kind = item.substr(0, at);
        std::string_view target = item.substr(at + 1);

        Rule rule;
        if (kind == "throw") {
            rule.kind = Kind::Throw;
        } else if (kind == "hang") {
            rule.kind = Kind::Hang;
        } else if (kind == "kill") {
            rule.kind = Kind::Kill;
        } else if (kind == "ckill") {
            rule.kind = Kind::CoordKill;
        } else if (kind == "io") {
            rule.kind = Kind::Io;
        } else {
            badSpec(item, "unknown kind (want throw, hang, kill, "
                          "ckill, io)");
        }

        if (rule.kind == Kind::Io) {
            // The whole remainder is a path substring ('*' = any).
            if (target.empty())
                badSpec(item, "empty path substring");
            rule.a = std::string(target);
            plan.rules.push_back(std::move(rule));
            continue;
        }

        // Cell rules: WORKLOAD/CONFIG then optional ':' modifiers.
        std::size_t mod = target.find(':');
        std::string_view cell = target.substr(0, mod);
        const std::size_t slash = cell.find('/');
        if (slash == std::string_view::npos)
            badSpec(item, "cell target must be WORKLOAD/CONFIG");
        rule.a = std::string(cell.substr(0, slash));
        rule.b = std::string(cell.substr(slash + 1));
        if (rule.a.empty() || rule.b.empty())
            badSpec(item, "empty workload or config pattern");

        while (mod != std::string_view::npos) {
            target = target.substr(mod + 1);
            mod = target.find(':');
            const std::string_view m = target.substr(0, mod);
            if (m.empty())
                badSpec(item, "empty modifier");
            if (m[0] == 'p') {
                rule.probability = parseProbability(item, m.substr(1));
            } else if (!tryParseNumber(m, rule.attempts) ||
                       rule.attempts == 0) {
                badSpec(item, "attempt bound must be a positive integer");
            }
        }
        if (rule.kind != Kind::Throw && rule.attempts != 0)
            badSpec(item, "attempt bound only applies to throw rules");
        plan.rules.push_back(std::move(rule));
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *env = std::getenv("SVRSIM_FAULT");
    return env ? parse(env) : FaultPlan();
}

bool
FaultPlan::matchCell(Kind kind, std::string_view workload,
                     std::string_view config, unsigned attempt,
                     std::uint64_t base_seed) const
{
    for (const Rule &r : rules) {
        if (r.kind != kind || !patternMatches(r.a, workload) ||
            !patternMatches(r.b, config) ||
            (r.attempts != 0 && attempt > r.attempts)) {
            continue;
        }
        if (r.probability < 0.0)
            return true;
        // One deterministic draw per cell from a named substream of
        // the cell's RNG, so the decision is identical for any job
        // count and never perturbs the simulation stream itself.
        Rng rng = Rng::forCell(base_seed, workload, config).split("fault");
        if (rng.nextDouble() < r.probability)
            return true;
    }
    return false;
}

bool
FaultPlan::shouldThrow(std::string_view workload, std::string_view config,
                       unsigned attempt, std::uint64_t base_seed) const
{
    return matchCell(Kind::Throw, workload, config, attempt, base_seed);
}

bool
FaultPlan::shouldHang(std::string_view workload,
                      std::string_view config) const
{
    return matchCell(Kind::Hang, workload, config, 1, 0);
}

bool
FaultPlan::shouldKill(std::string_view workload,
                      std::string_view config) const
{
    return matchCell(Kind::Kill, workload, config, 1, 0);
}

bool
FaultPlan::shouldCoordKill(std::string_view workload,
                           std::string_view config) const
{
    return matchCell(Kind::CoordKill, workload, config, 1, 0);
}

bool
FaultPlan::shouldFailIo(std::string_view path) const
{
    for (const Rule &r : rules) {
        if (r.kind == Kind::Io &&
            (r.a == "*" || path.find(r.a) != std::string_view::npos)) {
            return true;
        }
    }
    return false;
}

} // namespace svr
