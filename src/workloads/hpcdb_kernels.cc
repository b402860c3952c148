#include "workloads/hpcdb_kernels.hh"

#include <bit>

#include "common/logging.hh"
#include "common/rng.hh"

namespace svr
{

namespace
{

/**
 * Emit the standard "wrap or halt" epilogue: x20 holds the iteration
 * bound (0 = forever), x21 the iteration counter; jumps to @p top.
 */
void
emitWrap(ProgramBuilder &b, const std::string &top)
{
    b.addi(21, 21, 1);
    b.cmpi(20, 0);
    b.beq(top);
    b.cmp(21, 20);
    b.blt(top);
    b.halt();
}

constexpr std::uint64_t hashConst = 0x9e3779b97f4a7c15ULL;

} // namespace

WorkloadInstance
makeCamel(const HpcDbSizes &sizes, unsigned iters)
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(0xca31e1);
    const std::uint32_t ni = sizes.camelIndex;
    const std::uint32_t nt = sizes.camelTable;
    std::vector<std::uint32_t> a(ni);
    for (auto &x : a)
        x = static_cast<std::uint32_t>(rng.nextBounded(nt));
    std::vector<std::uint64_t> btab(nt);
    for (auto &x : btab)
        x = rng.next();
    const Addr a_base = layoutArray32(*mem, a);
    const Addr b_base = layoutArray64(*mem, btab);
    const Addr c_base = layoutZeros(*mem, nt, 8);
    const std::uint64_t c_mask = nt - 1;

    ProgramBuilder b("camel");
    b.li(4, b_base);
    b.li(5, c_base);
    b.li(20, iters);
    b.li(21, 0);
    b.li(12, 0); // sum
    b.label("top");
    b.li(1, a_base);
    b.li(2, a_base + static_cast<Addr>(ni) * 4);
    b.label("loop");
    b.lw(6, 1, 0);       // idx = A[i] (striding; SVR trigger)
    b.slli(7, 6, 3);
    b.add(7, 4, 7);
    b.ld(8, 7, 0);       // y = B[idx] (indirect)
    b.andi(9, 8, static_cast<std::int64_t>(c_mask));
    b.slli(9, 9, 3);
    b.add(9, 5, 9);
    b.ld(10, 9, 0);      // z = C[y & mask] (second-level indirect)
    b.add(12, 12, 10);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    emitWrap(b, "top");

    return {"camel", mem, std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeGraph500(std::shared_ptr<const HostGraph> g, unsigned iters)
{
    auto mem = std::make_shared<FunctionalMemory>();
    const GraphLayout gl = layoutGraph(*g, *mem);
    const std::uint32_t n = g->numNodes;
    // seq-csr style: byte-wide visited flags plus a parent/level array
    // (distinct data layout from the GAP BFS kernel).
    const Addr visited_base = layoutZeros(*mem, n, 1);
    const Addr level_base = layoutZeros(*mem, n, 4);
    const Addr q_base = layoutZeros(*mem, static_cast<std::uint64_t>(n) + 8,
                                    4);

    ProgramBuilder b("g500");
    b.li(4, gl.neighbors);
    b.li(8, gl.offsets);
    b.li(5, visited_base);
    b.li(24, level_base);
    b.li(23, n);
    b.li(20, iters);
    b.li(21, 0);
    b.li(22, 0); // source
    b.jmp("seed"); // first traversal: host-initialized arrays
    b.label("restart");
    // Clear the visited bytes (streaming stores, 8 at a time).
    b.li(16, visited_base);
    b.li(17, visited_base + n);
    b.label("rinit");
    b.sd(0, 16, 0);
    b.addi(16, 16, 8);
    b.cmp(16, 17);
    b.blt("rinit");
    b.label("seed");
    // Seed queue with the source and mark it visited.
    b.li(1, q_base);
    b.li(2, q_base);
    b.sw(22, 2, 0);
    b.addi(2, 2, 4);
    b.add(19, 5, 22);
    b.li(17, 1);
    b.sb(17, 19, 0);     // visited[src] = 1
    b.label("outer");
    b.cmp(1, 2);
    b.bge("bfs_done");
    b.lw(6, 1, 0);       // u (striding)
    b.addi(1, 1, 4);
    b.slli(7, 6, 3);
    b.add(7, 8, 7);
    b.ld(9, 7, 0);
    b.ld(10, 7, 8);
    b.slli(11, 9, 2);
    b.add(11, 4, 11);
    b.slli(12, 10, 2);
    b.add(12, 4, 12);
    b.cmp(11, 12);
    b.bge("outer");
    b.label("inner");
    b.lw(13, 11, 0);     // v (striding)
    b.add(14, 5, 13);
    b.lb(15, 14, 0);     // visited[v] (indirect byte load)
    b.cmpi(15, 0);
    b.bne("skip");
    b.li(17, 1);
    b.sb(17, 14, 0);     // visited[v] = 1
    b.slli(17, 13, 2);
    b.add(17, 24, 17);
    b.sw(6, 17, 0);      // level[v] = parent u (indirect store)
    b.sw(13, 2, 0);
    b.addi(2, 2, 4);
    b.label("skip");
    b.addi(11, 11, 4);
    b.cmp(11, 12);
    b.blt("inner");
    b.jmp("outer");
    b.label("bfs_done");
    b.addi(22, 22, 1);
    b.cmp(22, 23);
    b.blt("next_ok");
    b.li(22, 0);
    b.label("next_ok");
    emitWrap(b, "restart");

    return {"g500", mem, std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeHashJoin(unsigned bucket_size, const HpcDbSizes &sizes, unsigned iters)
{
    if (bucket_size == 0 || bucket_size > 64)
        fatal("makeHashJoin: bad bucket size %u", bucket_size);
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(0x4a5b1 + bucket_size);
    const std::uint32_t nbuckets = 1u << sizes.hashBucketsLog2;
    const std::uint64_t bucket_mask = nbuckets - 1;
    const unsigned hash_shift = 64 - sizes.hashBucketsLog2;

    // Build table: each bucket holds `bucket_size` interleaved
    // (key, value) pairs. Keys are drawn at random and placed in the
    // bucket their hash selects; unfilled slots keep key 0. The table
    // is built on the host, laid out in one copy and freed at once.
    const std::uint64_t entry_bytes = 16;
    const std::uint64_t slots =
        static_cast<std::uint64_t>(nbuckets) * bucket_size;
    std::vector<std::uint64_t> placed_keys;
    placed_keys.reserve(static_cast<std::size_t>(slots / 2));
    Addr table_base = 0;
    {
        std::vector<std::uint64_t> table(slots * 2, 0);
        std::vector<std::uint8_t> fill(nbuckets, 0);
        for (std::uint64_t i = 0; i < slots * 2; i++) {
            const std::uint64_t key = rng.next() | 1;
            const std::uint64_t h = (key * hashConst) >> hash_shift &
                                    bucket_mask;
            if (fill[h] < bucket_size) {
                const std::uint64_t slot = h * bucket_size + fill[h];
                table[2 * slot] = key;
                table[2 * slot + 1] = key ^ 0xfeedULL;
                fill[h]++;
                placed_keys.push_back(key);
            }
        }
        table_base = layoutArray64(*mem, table);
    }

    // Probe stream: ~70% hits drawn from placed keys, 30% misses.
    std::vector<std::uint64_t> probes(sizes.hashProbes);
    for (auto &k : probes) {
        if (!placed_keys.empty() && rng.nextDouble() < 0.7)
            k = placed_keys[rng.nextBounded(placed_keys.size())];
        else
            k = rng.next() | 1;
    }
    const Addr probe_base = layoutArray64(*mem, probes);

    const std::string name = "hj" + std::to_string(bucket_size);
    ProgramBuilder b(name);
    b.li(4, table_base);
    b.li(25, hashConst);
    b.li(20, iters);
    b.li(21, 0);
    b.li(12, 0); // sum of matched values
    const unsigned bucket_bytes_log2 =
        std::countr_zero(static_cast<unsigned>(bucket_size * entry_bytes));
    b.label("top");
    b.li(1, probe_base);
    b.li(2, probe_base + static_cast<Addr>(sizes.hashProbes) * 8);
    b.label("loop");
    b.ld(6, 1, 0);        // probe key (striding; SVR trigger)
    b.mul(7, 6, 25);      // multiplicative hash (non-affine: IMP-proof)
    b.srli(7, 7, hash_shift);
    b.andi(7, 7, static_cast<std::int64_t>(bucket_mask));
    b.slli(8, 7, bucket_bytes_log2);
    b.add(8, 4, 8);       // bucket base
    b.li(9, 0);           // slot counter
    b.label("scan");
    b.ld(10, 8, 0);       // entry key (indirect chain load)
    b.cmp(10, 6);
    b.beq("found");
    b.addi(8, 8, static_cast<std::int64_t>(entry_bytes));
    b.addi(9, 9, 1);
    b.cmpi(9, bucket_size);
    b.blt("scan");
    b.jmp("advance");
    b.label("found");
    b.ld(11, 8, 8);       // matched value
    b.add(12, 12, 11);
    b.label("advance");
    b.addi(1, 1, 8);
    b.cmp(1, 2);
    b.blt("loop");
    emitWrap(b, "top");

    return {name, mem, std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeKangaroo(const HpcDbSizes &sizes, unsigned iters)
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(0x6a9600);
    std::vector<std::uint32_t> keys(sizes.kangarooKeys);
    for (auto &k : keys)
        k = static_cast<std::uint32_t>(rng.nextBounded(sizes.kangarooTable));
    std::vector<std::uint32_t> perm(sizes.kangarooTable);
    for (auto &x : perm)
        x = static_cast<std::uint32_t>(rng.nextBounded(sizes.kangarooTable));
    const Addr key_base = layoutArray32(*mem, keys);
    const Addr perm_base = layoutArray32(*mem, perm);
    const Addr cnt_base = layoutZeros(*mem, sizes.kangarooTable, 4);

    ProgramBuilder b("kangaroo");
    b.li(4, perm_base);
    b.li(5, cnt_base);
    b.li(20, iters);
    b.li(21, 0);
    b.label("top");
    b.li(1, key_base);
    b.li(2, key_base + static_cast<Addr>(sizes.kangarooKeys) * 4);
    b.label("loop");
    b.lw(6, 1, 0);       // key (striding)
    b.slli(7, 6, 2);
    b.add(7, 4, 7);
    b.lw(8, 7, 0);       // perm[key] (indirect)
    b.slli(9, 8, 2);
    b.add(9, 5, 9);
    b.lw(10, 9, 0);      // cnt[perm[key]] (second indirect)
    b.addi(10, 10, 1);
    b.sw(10, 9, 0);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    emitWrap(b, "top");

    return {"kangaroo", mem, std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeNasCg(const HpcDbSizes &sizes, unsigned iters)
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(0xc6c6);
    const std::uint32_t rows = sizes.cgRows;
    const std::uint32_t nnz_per_row = sizes.cgNnzPerRow;
    const std::uint64_t nnz =
        static_cast<std::uint64_t>(rows) * nnz_per_row;

    std::vector<std::uint64_t> rowptr(rows + 1);
    for (std::uint32_t r = 0; r <= rows; r++)
        rowptr[r] = static_cast<std::uint64_t>(r) * nnz_per_row;
    std::vector<std::uint32_t> col(nnz);
    for (auto &c : col)
        c = static_cast<std::uint32_t>(rng.nextBounded(sizes.cgCols));
    std::vector<double> a(nnz);
    for (auto &v : a)
        v = rng.nextDouble() + 0.5;
    std::vector<double> x(sizes.cgCols);
    for (auto &v : x)
        v = rng.nextDouble();

    const Addr rowptr_base = layoutArray64(*mem, rowptr);
    const Addr col_base = layoutArray32(*mem, col);
    const Addr a_base = layoutDoubles(*mem, a);
    const Addr x_base = layoutDoubles(*mem, x);
    const Addr y_base = layoutZeros(*mem, rows, 8);

    ProgramBuilder b("nas-cg");
    b.li(4, col_base);
    b.li(5, x_base);
    b.li(24, a_base);
    b.li(2, rows);
    b.li(20, iters);
    b.li(21, 0);
    b.label("top");
    b.li(1, 0);          // row
    b.li(3, rowptr_base);
    b.li(6, y_base);
    b.label("outer");
    b.ld(7, 3, 0);       // rs (striding)
    b.ld(8, 3, 8);       // re (striding)
    b.slli(9, 7, 2);
    b.add(9, 4, 9);      // pcol
    b.slli(11, 8, 2);
    b.add(11, 4, 11);    // pcol end
    b.slli(13, 7, 3);
    b.add(13, 24, 13);   // pa
    b.li(12, 0);         // sum = 0.0
    b.cmp(9, 11);
    b.bge("row_done");
    b.label("inner");
    b.lw(14, 9, 0);      // c = col[j] (striding; SVR trigger)
    b.slli(15, 14, 3);
    b.add(15, 5, 15);
    b.ld(16, 15, 0);     // x[c] (indirect)
    b.ld(17, 13, 0);     // a[j] (striding, second chain)
    b.fmul(16, 16, 17);
    b.fadd(12, 12, 16);
    b.addi(9, 9, 4);
    b.addi(13, 13, 8);
    b.cmp(9, 11);
    b.blt("inner");
    b.label("row_done");
    b.sd(12, 6, 0);
    b.addi(6, 6, 8);
    b.addi(3, 3, 8);
    b.addi(1, 1, 1);
    b.cmp(1, 2);
    b.blt("outer");
    emitWrap(b, "top");

    return {"nas-cg", mem, std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeNasIs(const HpcDbSizes &sizes, unsigned iters)
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(0x1515);
    std::vector<std::uint32_t> keys(sizes.isKeys);
    for (auto &k : keys)
        k = static_cast<std::uint32_t>(rng.nextBounded(sizes.isBuckets));
    const Addr key_base = layoutArray32(*mem, keys);
    const Addr cnt_base = layoutZeros(*mem, sizes.isBuckets, 4);

    ProgramBuilder b("nas-is");
    b.li(5, cnt_base);
    b.li(20, iters);
    b.li(21, 0);
    b.label("top");
    b.li(1, key_base);
    b.li(2, key_base + static_cast<Addr>(sizes.isKeys) * 4);
    b.label("loop");
    b.lw(6, 1, 0);       // key (striding)
    b.slli(7, 6, 2);
    b.add(7, 5, 7);
    b.lw(8, 7, 0);       // cnt[key] (indirect; affine: IMP-friendly)
    b.addi(8, 8, 1);
    b.sw(8, 7, 0);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    emitWrap(b, "top");

    return {"nas-is", mem, std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeRandacc(const HpcDbSizes &sizes, unsigned iters)
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(0x4a2dacc);
    std::vector<std::uint64_t> stream(sizes.randaccUpdates);
    for (auto &r : stream)
        r = rng.next();
    const Addr stream_base = layoutArray64(*mem, stream);
    const std::uint64_t table_entries = 1ULL << sizes.randaccTableLog2;
    const Addr table_base = layoutZeros(*mem, table_entries, 8);
    const std::uint64_t mask = table_entries - 1;

    ProgramBuilder b("randacc");
    b.li(5, table_base);
    b.li(20, iters);
    b.li(21, 0);
    b.label("top");
    b.li(1, stream_base);
    b.li(2, stream_base + static_cast<Addr>(sizes.randaccUpdates) * 8);
    b.label("loop");
    b.ld(6, 1, 0);       // r (striding, 64-bit random values)
    b.andi(7, 6, static_cast<std::int64_t>(mask));
    b.slli(7, 7, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);       // T[r & mask] (masked indirect: IMP-proof)
    b.xor_(8, 8, 6);
    b.sd(8, 7, 0);
    b.addi(1, 1, 8);
    b.cmp(1, 2);
    b.blt("loop");
    emitWrap(b, "top");

    return {"randacc", mem, std::make_shared<Program>(b.build())};
}

} // namespace svr
