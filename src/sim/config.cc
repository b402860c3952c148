#include "sim/config.hh"

#include <cstdlib>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"

namespace svr
{

namespace
{

/** Error context naming the offending config cell. */
ErrContext
configContext(const SimConfig &config)
{
    ErrContext ctx;
    ctx.config = config.label;
    return ctx;
}

/** One cache level's geometry sanity checks. */
void
validateCache(const SimConfig &config, const CacheParams &c)
{
    if (c.sizeBytes == 0 || c.assoc == 0 || c.numMshrs == 0) {
        throw simErrorf(ErrCode::ConfigInvalid, configContext(config),
                        "config '%s': cache '%s' needs nonzero size/"
                        "assoc/MSHRs (got %llu/%u/%u)",
                        config.label.c_str(), c.name.c_str(),
                        static_cast<unsigned long long>(c.sizeBytes),
                        c.assoc, c.numMshrs);
    }
}

[[noreturn]] void
invalid(const SimConfig &config, const char *what)
{
    throw simErrorf(ErrCode::ConfigInvalid, configContext(config),
                    "config '%s': %s", config.label.c_str(), what);
}

} // namespace

void
validateConfig(const SimConfig &config)
{
    if (config.maxInstructions == 0)
        invalid(config, "maxInstructions must be nonzero");
    if (config.inorder.width == 0)
        invalid(config, "in-order width must be nonzero");
    if (config.ooo.width == 0 || config.ooo.robSize == 0 ||
        config.ooo.rsSize == 0 || config.ooo.lsqSize == 0) {
        invalid(config, "OoO width/ROB/RS/LSQ must all be nonzero");
    }
    validateCache(config, config.mem.l1i);
    validateCache(config, config.mem.l1d);
    validateCache(config, config.mem.l2);
    if (config.mem.dram.bandwidthGiBps <= 0.0 ||
        config.mem.dram.coreFreqGHz <= 0.0 ||
        config.mem.dram.latencyNs < 0.0) {
        invalid(config, "DRAM bandwidth/frequency must be positive");
    }
    if (config.mem.translation.numWalkers == 0 ||
        config.mem.translation.dtlbEntries == 0 ||
        config.mem.translation.stlbEntries == 0 ||
        config.mem.translation.stlbAssoc == 0) {
        invalid(config, "translation walkers/TLB geometry must be "
                        "nonzero");
    }
    if (config.core == CoreType::Svr &&
        (config.svr.vectorLength == 0 || config.svr.numSrfRegs == 0 ||
         config.svr.svuWidth == 0 || config.svr.prmTimeout == 0)) {
        invalid(config, "SVR vector length/SRF regs/SVU width/PRM "
                        "timeout must be nonzero");
    }
    if (config.sampling.enabled()) {
        if (config.sampling.sampleWindow == 0)
            invalid(config, "sampling needs a nonzero sample window");
        if (config.sampling.sampleWindow + config.sampling.warmup >
            config.sampling.sampleEvery) {
            invalid(config, "sampling warmup + window must fit inside "
                            "the sampling period");
        }
    }
}

const char *
coreTypeName(CoreType t)
{
    switch (t) {
      case CoreType::InOrder: return "in-order";
      case CoreType::InOrderImp: return "IMP";
      case CoreType::OutOfOrder: return "out-of-order";
      case CoreType::Svr: return "SVR";
      default: return "<bad>";
    }
}

namespace presets
{

std::uint64_t
simWindow()
{
    const char *env = std::getenv("SVR_WINDOW");
    if (!env)
        return 400000;
    const auto v = parseNumber<std::uint64_t>(env, "SVR_WINDOW");
    if (v == 0) {
        throw simErrorf(ErrCode::ConfigInvalid, {},
                        "SVR_WINDOW: '0' is not a valid window (want a "
                        "positive instruction count)");
    }
    return v;
}

SimConfig
inorder()
{
    SimConfig c;
    c.label = "InO";
    c.core = CoreType::InOrder;
    c.maxInstructions = simWindow();
    return c;
}

SimConfig
impCore()
{
    SimConfig c = inorder();
    c.label = "IMP";
    c.core = CoreType::InOrderImp;
    return c;
}

SimConfig
outOfOrder()
{
    SimConfig c = inorder();
    c.label = "OoO";
    c.core = CoreType::OutOfOrder;
    return c;
}

SimConfig
svrCore(unsigned n)
{
    SimConfig c = inorder();
    c.label = "SVR" + std::to_string(n);
    c.core = CoreType::Svr;
    c.svr.vectorLength = n;
    return c;
}

SimConfig
byName(const std::string &name)
{
    if (name == "ino")
        return inorder();
    if (name == "imp")
        return impCore();
    if (name == "ooo")
        return outOfOrder();
    if (name.rfind("svr", 0) == 0) {
        unsigned n = 0;
        if (!tryParseNumber(std::string_view(name).substr(3), n)) {
            fatal("bad config '%s': svr needs a numeric vector length "
                  "(e.g. svr16)",
                  name.c_str());
        }
        if (n == 0 || n > 65536)
            fatal("bad config '%s': vector length must be in [1, 65536]",
                  name.c_str());
        return svrCore(n);
    }
    fatal("unknown config '%s' (want ino, imp, ooo, or svrN)",
          name.c_str());
}

} // namespace presets

} // namespace svr
