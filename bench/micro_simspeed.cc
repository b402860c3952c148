/**
 * @file
 * google-benchmark microbenchmarks: simulator throughput (simulated
 * instructions per second) for each core model, the costs of the
 * hottest primitives (functional step, functional memory, cache
 * lookup, MSHR bookkeeping, SVR rounds), the setup before a sweep
 * (graph input generation, workload builds), and one sampled sweep
 * row.
 *
 * The timing-model benchmarks need fresh simulator state per
 * iteration but must not time its construction. PauseTiming/
 * ResumeTiming is the wrong tool for that at millisecond scale (each
 * pair costs microseconds and skews short iterations), so they use
 * UseManualTime(): construction runs on the wall clock, and only the
 * run() call is timed with a steady_clock and reported via
 * SetIterationTime().
 *
 * tools/bench_report regenerates BENCH_simspeed.json from the same
 * measurements for tracking sim-speed over time.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "common/logging.hh"
#include "core/executor.hh"
#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "svr/svr_engine.hh"
#include "workloads/graph.hh"
#include "workloads/hpcdb_kernels.hh"
#include "workloads/suites.hh"
#include "workloads/workload.hh"

namespace
{

using namespace svr;

/**
 * The camel kernel (striding index + two dependent gathers) touches
 * every hot path: functional stepping, page translation over several
 * MiB-scale arrays, cache/MSHR pressure, and SVR triggers. It never
 * stores to simulated memory, so one instance can be shared across
 * benchmark iterations.
 */
const WorkloadInstance &
benchWorkload()
{
    static const WorkloadInstance w = [] {
        HpcDbSizes s;
        s.camelIndex = 1 << 18;
        s.camelTable = 1 << 19;
        return makeCamel(s);
    }();
    return w;
}

double
timedRun(InOrderCore &core, Executor &exec, std::uint64_t window)
{
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(core.run(exec, window));
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - t0;
    return d.count();
}

double
timedRun(OoOCore &core, Executor &exec, std::uint64_t window)
{
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(core.run(exec, window));
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - t0;
    return d.count();
}

constexpr std::uint64_t timingWindow = 100000;

// -- Core-model throughput (simulated instructions per second) ------------

void
BM_InOrderTiming(benchmark::State &state)
{
    setInformEnabled(false);
    const WorkloadInstance &w = benchWorkload();
    for (auto _ : state) {
        MemorySystem mem(MemParams{});
        Executor exec(*w.program, *w.mem);
        InOrderCore core(InOrderParams{}, mem);
        state.SetIterationTime(timedRun(core, exec, timingWindow));
    }
    state.SetItemsProcessed(state.iterations() * timingWindow);
}
BENCHMARK(BM_InOrderTiming)->UseManualTime()->Unit(benchmark::kMillisecond);

void
BM_OoOTiming(benchmark::State &state)
{
    setInformEnabled(false);
    const WorkloadInstance &w = benchWorkload();
    for (auto _ : state) {
        MemorySystem mem(MemParams{});
        Executor exec(*w.program, *w.mem);
        OoOCore core(OoOParams{}, mem);
        state.SetIterationTime(timedRun(core, exec, timingWindow));
    }
    state.SetItemsProcessed(state.iterations() * timingWindow);
}
BENCHMARK(BM_OoOTiming)->UseManualTime()->Unit(benchmark::kMillisecond);

void
BM_SvrTiming(benchmark::State &state)
{
    setInformEnabled(false);
    const WorkloadInstance &w = benchWorkload();
    const unsigned n = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        MemorySystem mem(MemParams{});
        Executor exec(*w.program, *w.mem);
        SvrParams sp;
        sp.vectorLength = n;
        SvrEngine engine(sp, mem, exec);
        InOrderCore core(InOrderParams{}, mem);
        core.setRunaheadEngine(&engine);
        state.SetIterationTime(timedRun(core, exec, timingWindow));
    }
    state.SetItemsProcessed(state.iterations() * timingWindow);
}
BENCHMARK(BM_SvrTiming)
    ->Arg(16)
    ->Arg(64)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/** SVR rounds completed per second of host time. */
void
BM_SvrRound(benchmark::State &state)
{
    setInformEnabled(false);
    const WorkloadInstance &w = benchWorkload();
    std::uint64_t rounds = 0;
    for (auto _ : state) {
        MemorySystem mem(MemParams{});
        Executor exec(*w.program, *w.mem);
        SvrParams sp;
        sp.vectorLength = 16;
        SvrEngine engine(sp, mem, exec);
        InOrderCore core(InOrderParams{}, mem);
        core.setRunaheadEngine(&engine);
        const auto t0 = std::chrono::steady_clock::now();
        const CoreStats cs = core.run(exec, timingWindow);
        const std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - t0;
        state.SetIterationTime(d.count());
        rounds += cs.svrRounds;
    }
    state.SetItemsProcessed(rounds);
}
BENCHMARK(BM_SvrRound)->UseManualTime()->Unit(benchmark::kMillisecond);

// -- Primitive costs ------------------------------------------------------

// Batch interpreter throughput (Executor::run, the threaded-dispatch
// loop used by checkpoint fast-forward); per-instruction cost.
void
BM_FunctionalExecutor(benchmark::State &state)
{
    setInformEnabled(false);
    const WorkloadInstance &w = benchWorkload();
    Executor exec(*w.program, *w.mem);
    constexpr std::uint64_t kBatch = 4096;
    for (auto _ : state) {
        std::uint64_t left = kBatch;
        while (left > 0) {
            if (exec.halted())
                exec.restart();
            left -= exec.run(left);
        }
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FunctionalExecutor);

// The per-DynInst entry point the timing cores drive (adds the step()
// call + full dynamic-record materialization per instruction).
void
BM_FunctionalStep(benchmark::State &state)
{
    setInformEnabled(false);
    const WorkloadInstance &w = benchWorkload();
    Executor exec(*w.program, *w.mem);
    for (auto _ : state) {
        if (exec.halted())
            exec.restart();
        benchmark::DoNotOptimize(exec.step());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalStep);

void
BM_FunctionalMemoryRead(benchmark::State &state)
{
    FunctionalMemory mem;
    constexpr std::uint64_t tableBytes = 8 << 20;
    const Addr base = mem.alloc(tableBytes);
    for (Addr off = 0; off < tableBytes; off += 8)
        mem.write(base + off, off, 8);
    // Gather pattern over the whole table (LCG so the benchmark has no
    // state beyond one integer).
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Addr a = base + ((x >> 24) & (tableBytes - 1) & ~Addr(7));
        benchmark::DoNotOptimize(mem.read(a, 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalMemoryRead);

/**
 * Random stores over the same 8 MiB footprint as the read benchmark.
 * Invariant worth asserting when reading results: write64 must track
 * read64 to within host store overhead (RFO traffic on a randomly
 * dirtied table), NOT trail a whole functional step. It once did —
 * every write paid an out-of-line translateOrCreate() call even for
 * already-materialized pages — which made a raw 8-byte store cost
 * more than executing a complete instruction. The write path now
 * rides the same inline translation-cache/walk fast path as reads
 * (mem/functional_memory.hh), and only a genuinely absent page takes
 * the materializing call.
 */
void
BM_FunctionalMemoryWrite(benchmark::State &state)
{
    FunctionalMemory mem;
    constexpr std::uint64_t tableBytes = 8 << 20;
    const Addr base = mem.alloc(tableBytes);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Addr a = base + ((x >> 24) & (tableBytes - 1) & ~Addr(7));
        mem.write(a, x, 8);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalMemoryWrite);

/**
 * Lookups over a small hot set — the representative case the MRU-first
 * way order optimizes for (timing models mostly re-touch recent lines).
 */
void
BM_CacheLookupHot(benchmark::State &state)
{
    Cache cache(CacheParams{"bench", 64 * 1024, 4, 3, 16});
    for (Addr a = 0; a < 64 * 1024; a += 64)
        cache.insert(a, PrefetchOrigin::None, false);
    Addr a = 0;
    for (auto _ : state) {
        bool first = false;
        PrefetchOrigin origin;
        benchmark::DoNotOptimize(cache.lookup(a, true, first, origin));
        a = (a + 64) & (8 * 64 - 1); // 8-line working set
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupHot);

/**
 * Cyclic scan over every resident line — the adversarial case for
 * MRU-first ordering (each hit lands on the least-recent way and is
 * swapped forward). Tracked so the worst-case cost stays visible.
 */
void
BM_CacheLookupCyclic(benchmark::State &state)
{
    Cache cache(CacheParams{"bench", 64 * 1024, 4, 3, 16});
    for (Addr a = 0; a < 64 * 1024; a += 64)
        cache.insert(a, PrefetchOrigin::None, false);
    Addr a = 0;
    for (auto _ : state) {
        bool first = false;
        PrefetchOrigin origin;
        benchmark::DoNotOptimize(cache.lookup(a, true, first, origin));
        a = (a + 64) & (64 * 1024 - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupCyclic);

/** One MSHR allocation plus one drain pass per iteration. */
void
BM_MshrAllocDrain(benchmark::State &state)
{
    Cache cache(CacheParams{"bench", 64 * 1024, 4, 3, 16});
    Cycle now = 0;
    Addr line = 0;
    for (auto _ : state) {
        const Cycle start = cache.mshrAvailable(now);
        cache.allocateMshr(line, start, start + 40);
        cache.drainCompletedMisses(now, [](const EvictResult &) {});
        now += 10;
        line = (line + 64) & ((1 << 20) - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrAllocDrain);

// -- Setup: input generation and workload builds --------------------------

/** RMAT edge generation plus CSR build, at the KR input's shape. */
void
BM_KroneckerGenerate(benchmark::State &state)
{
    const auto scale = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        HostGraph g = makeKronecker(scale, 16, 0x4b01);
        benchmark::DoNotOptimize(g);
    }
    state.SetItemsProcessed(state.iterations() *
                            (std::int64_t{16} << scale)); // edges
}
BENCHMARK(BM_KroneckerGenerate)->Arg(17)->Unit(benchmark::kMillisecond);

/**
 * One make() of a suite workload: its layout and host-side init in
 * fresh functional memory. A graph input is generated (and cached)
 * before timing starts, so only the build is measured.
 */
void
BM_WorkloadMake(benchmark::State &state, const char *name)
{
    setInformEnabled(false);
    const WorkloadSpec spec = findWorkload(name);
    spec.make();
    for (auto _ : state) {
        WorkloadInstance w = spec.make();
        benchmark::DoNotOptimize(w);
    }
}
BENCHMARK_CAPTURE(BM_WorkloadMake, graph, "BFS_KR")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkloadMake, hpcdb, "NAS-CG")
    ->Unit(benchmark::kMillisecond);

// -- Sampled sweep row -------------------------------------------------------

/**
 * One sampled sweep row at perfbench's graph-sampled-sharded shape
 * (4M-instruction region, a 1M period, 10k warmup, 20k window) under
 * InO and SVR16, as runMatrix runs it with one job: the build, the
 * InO cell fast-forwarding and recording its row's ladder, and the
 * SVR16 cell restoring it.
 */
void
BM_SampledRow(benchmark::State &state, const char *name)
{
    setInformEnabled(false);
    const WorkloadSpec spec = findWorkload(name);
    std::vector<SimConfig> configs = {presets::inorder(),
                                      presets::svrCore(16)};
    for (SimConfig &c : configs) {
        c.maxInstructions = 4000000;
        c.sampling.sampleEvery = 1000000;
        c.sampling.sampleWindow = 20000;
        c.sampling.warmup = 10000;
    }
    MatrixOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.summary = false;
    spec.make(); // generate (and cache) the graph input untimed
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        MatrixTiming timing;
        benchmark::DoNotOptimize(runMatrix({spec}, configs, opts, &timing));
        instructions += timing.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK_CAPTURE(BM_SampledRow, graph, "BFS_KR")
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
