/**
 * @file
 * Restorable simulation checkpoints. A Checkpoint captures everything
 * the functional machine needs to resume a workload mid-region: the
 * full architectural state (registers, flags, PC, halt flag, sequence
 * number), the frozen copy-on-write functional-memory image (every
 * materialized page plus the bump-allocator cursor), and optionally
 * the SVR engine's persistent predictor state (stride-detector SRAM +
 * governor ban). Capture freezes the live memory into the image and
 * re-forks it; restore forks the image. Checkpoints serialize to a
 * versioned little-endian byte format; deserialization validates the
 * magic, version, and exact length,
 * throwing SimError(IoError) on any corruption, so a truncated or
 * bit-flipped artifact can never silently restore into a wrong
 * machine state.
 *
 * Restoring reconstructs the machine bit-identically: a run that is
 * checkpointed at instruction N and resumed produces exactly the same
 * architectural trajectory as an uninterrupted run (the checkpoint
 * round-trip property, enforced by tests/test_checkpoint.cc).
 */

#ifndef SVR_SIM_CHECKPOINT_HH
#define SVR_SIM_CHECKPOINT_HH

#include <memory>
#include <string>
#include <string_view>

#include "common/types.hh"
#include "core/executor.hh"
#include "mem/functional_memory.hh"
#include "svr/svr_engine.hh"

namespace svr
{

/**
 * A restorable snapshot of the functional machine. Plain data:
 * capture/restore/serialize are free functions below. Copies share
 * the frozen memory image.
 */
struct Checkpoint
{
    /** Workload instance name, as a restore-time sanity tag. */
    std::string workload;

    /** arch.seq is the committed instruction count at capture. */
    ExecArchState arch;
    /** Every page and the allocation cursor, frozen (never written). */
    std::shared_ptr<const FunctionalMemory::Image> mem;

    bool hasSvr = false;
    SvrEngineSnapshot svr; //!< meaningful only when hasSvr
};

/**
 * Capture the current machine state. @p mem is frozen into the
 * checkpoint's image and becomes a copy-on-write fork of it, so the
 * capture moves page directories and copies no page. @p engine, when
 * non-null, adds the SVR predictor snapshot (engine must not be
 * mid-round).
 */
Checkpoint captureCheckpoint(const Executor &exec, FunctionalMemory &mem,
                             std::string workload_name,
                             const SvrEngine *engine = nullptr);

/**
 * Restore @p ck into @p exec / @p mem: the architectural state is
 * reinstated and @p mem becomes a fork of the image. The executor must
 * have been built over the same program the checkpoint was captured
 * from (PC bounds are validated).
 */
void restoreCheckpoint(const Checkpoint &ck, Executor &exec,
                       FunctionalMemory &mem);

/** Serialize to the versioned byte format (deterministic). */
std::string serializeCheckpoint(const Checkpoint &ck);

/**
 * Parse serializeCheckpoint() output. Throws SimError(IoError) on bad
 * magic/version, truncation, trailing garbage, or a machine state no
 * capture can produce.
 */
Checkpoint deserializeCheckpoint(std::string_view bytes);

/** Atomically write the serialized checkpoint to @p path. */
void saveCheckpoint(const Checkpoint &ck, const std::string &path);

/** Read and deserialize a checkpoint file (SimError(IoError) on failure). */
Checkpoint loadCheckpoint(const std::string &path);

} // namespace svr

#endif // SVR_SIM_CHECKPOINT_HH
