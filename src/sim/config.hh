/**
 * @file
 * Top-level simulation configurations and the Table III presets.
 */

#ifndef SVR_SIM_CONFIG_HH
#define SVR_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "core/watchdog.hh"
#include "energy/energy_model.hh"
#include "imp/imp_prefetcher.hh"
#include "mem/memory_system.hh"
#include "svr/svr_engine.hh"

namespace svr
{

/** Which machine to simulate. */
enum class CoreType : std::uint8_t
{
    InOrder,    //!< baseline 3-wide stall-on-use in-order (A510-like)
    InOrderImp, //!< in-order + IMP prefetcher at the L1D
    OutOfOrder, //!< matched 3-wide OoO (ROB 32 / RS 32 / LSQ 16)
    Svr,        //!< in-order + Scalar Vector Runahead
};

/** Printable core-type name. */
const char *coreTypeName(CoreType t);

/**
 * Sampled-simulation knobs (SimPoint-style systematic sampling).
 * Disabled by default (sampleEvery == 0): the whole region runs in
 * detailed timing. When enabled, each period of sampleEvery committed
 * instructions runs (period - warmup - window) instructions on the
 * fast functional executor, then warmup instructions of detailed
 * timing that are excluded from the stats (warming caches, branch
 * predictors, TLBs, and the SVR engine), then a measured timing
 * window; per-window CPIs are stitched into a whole-region estimate
 * with a standard error (see sim/sampled_sim.hh).
 */
struct SamplingParams
{
    std::uint64_t sampleEvery = 0;  //!< sampling period; 0 = off
    std::uint64_t sampleWindow = 0; //!< measured instructions per period
    std::uint64_t warmup = 0;       //!< detailed-warmup instructions

    bool enabled() const { return sampleEvery != 0; }
    bool operator==(const SamplingParams &) const = default;
};

/** A complete machine configuration. */
struct SimConfig
{
    std::string label;          //!< display name (e.g. "SVR16")
    CoreType core = CoreType::InOrder;
    InOrderParams inorder;
    OoOParams ooo;
    MemParams mem;
    SvrParams svr;
    ImpParams imp;
    EnergyParams energy;
    std::uint64_t maxInstructions = 400000;
    SamplingParams sampling;

    /**
     * Watchdog budgets. At this level 0 means "auto": simulate()
     * derives a generous cycle budget from maxInstructions and a
     * fixed stall budget. Use watchdogOff to disable a check
     * entirely (e.g. single-run debugging of a pathological config).
     */
    WatchdogParams watchdog;
};

/**
 * Reject degenerate configurations (zero-instruction windows, zero
 * cache geometry, zero SVR resources, zero DRAM bandwidth, ...) with
 * SimError(ConfigInvalid) before a run starts. simulate() calls this
 * on every config; tools may call it early for fail-fast CLI checks.
 */
void validateConfig(const SimConfig &config);

namespace presets
{

/** Baseline in-order core (Table III, column 1). */
SimConfig inorder();

/** In-order core with the IMP prefetcher. */
SimConfig impCore();

/** Out-of-order core (Table III, column 3). */
SimConfig outOfOrder();

/** SVR with vector length @p n (Table III, column 2; default N=16). */
SimConfig svrCore(unsigned n = 16);

/**
 * Parse a preset name as used by the sweep tools: "ino", "imp",
 * "ooo", or "svrN" with numeric N >= 1 (e.g. "svr16"). Calls fatal()
 * on anything else — including malformed svr widths like "svr",
 * "svrx", or "svr0" — instead of leaking std::invalid_argument.
 */
SimConfig byName(const std::string &name);

/**
 * Simulation window length, overridable with the SVR_WINDOW
 * environment variable (instructions per run; default 400000). A set
 * SVR_WINDOW that is not a positive integer throws
 * SimError(ConfigInvalid) naming it.
 */
std::uint64_t simWindow();

} // namespace presets

} // namespace svr

#endif // SVR_SIM_CONFIG_HH
