/**
 * @file
 * Byte identity of the result reports: toJson() and csvRow(r, true)
 * of every quick-suite cell under InO/IMP/OoO/SVR16, in full detail
 * (20k instructions) and sampled (several periods with a detailed
 * warmup), compared with tests/golden/results/.
 *
 * The reports round most doubles and leave out some counters, so each
 * cell also pins, in a hand-written line, the counters no report shows
 * (prefIssued by origin) and every accuracy and energy component at
 * full precision. After an intentional change to a timing model or to
 * the stitching of sampled results, regenerate with
 *
 *     UPDATE_GOLDEN=1 ./build/tests/svrsim_tests \
 *         --gtest_filter='ResultGolden.*'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

namespace svr
{
namespace
{

std::string
full17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The counters and full-precision doubles the reports leave out. */
std::string
unreported(const SimResult &r)
{
    std::ostringstream os;
    os << "pref_issued";
    for (unsigned i = 0; i < numPrefetchOrigins; i++)
        os << ' ' << r.prefIssued[i];
    os << "\naccuracy " << full17(r.svrAccuracyLlc) << ' '
       << full17(r.impAccuracyLlc) << ' ' << full17(r.strideAccuracyLlc)
       << "\nenergy " << full17(r.energy.coreStatic) << ' '
       << full17(r.energy.coreDynamic) << ' '
       << full17(r.energy.svrDynamic) << ' '
       << full17(r.energy.svrStatic) << ' '
       << full17(r.energy.cacheDynamic) << ' '
       << full17(r.energy.dramStatic) << ' '
       << full17(r.energy.dramDynamic) << '\n';
    return os.str();
}

/** Every cell's report bytes, workload-major, as one text. */
std::string
reportBytes(const SamplingParams &sampling, std::uint64_t window)
{
    std::vector<SimConfig> configs = {presets::inorder(), presets::impCore(),
                                      presets::outOfOrder(),
                                      presets::svrCore(16)};
    for (SimConfig &c : configs) {
        c.maxInstructions = window;
        c.sampling = sampling;
    }
    MatrixOptions opts;
    opts.progress = false;
    opts.summary = false;
    opts.jobs = 2;
    std::ostringstream os;
    os << csvHeader(true) << '\n';
    for (const SimResult &r :
         flattenMatrix(runMatrix(quickSuite(), configs, opts))) {
        os << "== " << r.workload << '/' << r.config << '\n'
           << toJson(r) << csvRow(r, true) << '\n'
           << unreported(r);
    }
    return os.str();
}

void
compareWithGolden(const std::string &name, const std::string &now)
{
    const std::string path =
        std::string(SVR_GOLDEN_DIR) + "/results/" + name;
    if (std::getenv("UPDATE_GOLDEN")) {
        std::ofstream(path, std::ios::binary) << now;
        GTEST_SKIP() << "UPDATE_GOLDEN set: rewrote " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "cannot read " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    if (golden.str() == now)
        return;
    // Report the first differing line with its cell, not 100 KB.
    std::istringstream a(golden.str()), b(now);
    std::string la, lb, cell;
    for (unsigned line = 1;; line++) {
        const bool more_a = static_cast<bool>(std::getline(a, la));
        const bool more_b = static_cast<bool>(std::getline(b, lb));
        if (!more_a && !more_b)
            break;
        if (la.rfind("== ", 0) == 0)
            cell = la;
        if (!more_a || !more_b || la != lb) {
            ADD_FAILURE() << path << ":" << line << " (" << cell
                          << ")\n  golden: " << la << "\n  now:    "
                          << lb;
            return;
        }
    }
}

TEST(ResultGolden, FullDetailQuickSuite)
{
    compareWithGolden("quick_full_20k.txt", reportBytes({}, 20000));
}

TEST(ResultGolden, SampledQuickSuite)
{
    // Four periods of 25k: 19k fast-forward, 2k detailed warmup, 4k
    // measured, so every reported counter is a scaled estimate.
    SamplingParams sp;
    sp.sampleEvery = 25000;
    sp.sampleWindow = 4000;
    sp.warmup = 2000;
    compareWithGolden("quick_sampled_100k.txt", reportBytes(sp, 100000));
}

} // namespace
} // namespace svr
