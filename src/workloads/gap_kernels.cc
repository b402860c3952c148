#include "workloads/gap_kernels.hh"

#include <bit>

#include "common/logging.hh"
#include "common/rng.hh"

namespace svr
{

namespace
{
constexpr std::uint64_t unvisited32 = 0xffffffffULL;
constexpr std::uint64_t infDist32 = 0x7ffffff0ULL;
} // namespace

WorkloadInstance
makePageRank(std::shared_ptr<const HostGraph> g, const std::string &name,
             unsigned passes)
{
    auto mem = std::make_shared<FunctionalMemory>();
    const GraphLayout gl = layoutGraph(*g, *mem);
    const std::uint32_t n = g->numNodes;

    // Contributions: outgoing_contrib[v] = 1 / (deg(v) + 1).
    std::vector<double> contrib(n);
    for (std::uint32_t v = 0; v < n; v++)
        contrib[v] = 1.0 / (static_cast<double>(g->degree(v)) + 1.0);
    const Addr contrib_base = layoutDoubles(*mem, contrib);
    const Addr score_base = layoutZeros(*mem, n, 8);

    ProgramBuilder b("pr/" + name);
    b.li(2, n);
    b.li(4, gl.neighbors);
    b.li(5, contrib_base);
    b.li(20, passes);
    b.li(21, 0);
    b.label("pass");
    b.li(1, 0);
    b.li(3, gl.offsets);
    b.li(6, score_base);
    b.label("outer");
    b.ld(7, 3, 0);   // start = offsets[u]
    b.ld(8, 3, 8);   // end = offsets[u+1]
    b.slli(9, 7, 2);
    b.add(9, 4, 9);  // p = &neighbors[start]
    b.slli(11, 8, 2);
    b.add(11, 4, 11); // pend
    b.li(12, 0);      // sum = 0.0
    b.cmp(9, 11);
    b.bge("inner_done");
    b.label("inner");
    b.lw(13, 9, 0);   // v = *p (striding; SVR trigger)
    b.slli(14, 13, 3);
    b.add(14, 5, 14);
    b.ld(15, 14, 0);  // contrib[v] (indirect)
    b.fadd(12, 12, 15);
    b.addi(9, 9, 4);
    b.cmp(9, 11);
    b.blt("inner");
    b.label("inner_done");
    b.sd(12, 6, 0);   // score[u] = sum
    b.addi(6, 6, 8);
    b.addi(3, 3, 8);
    b.addi(1, 1, 1);
    b.cmp(1, 2);
    b.blt("outer");
    b.addi(21, 21, 1);
    b.cmpi(20, 0);
    b.beq("pass");
    b.cmp(21, 20);
    b.blt("pass");
    b.halt();

    return {"pr/" + name, mem,
            std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeBfs(std::shared_ptr<const HostGraph> g, const std::string &name,
        bool single_source)
{
    auto mem = std::make_shared<FunctionalMemory>();
    const GraphLayout gl = layoutGraph(*g, *mem);
    const std::uint32_t n = g->numNodes;
    // The paper's methodology skips initialization: the first BFS's
    // parent[] = -1 sweep is done host-side, and the program enters at
    // the seeding code. Wrapped restarts re-initialize in-program.
    const Addr parent_base = layoutFill32(*mem, n, unvisited32);
    const Addr q_base = layoutZeros(*mem, static_cast<std::uint64_t>(n) + 8,
                                    4);

    ProgramBuilder b("bfs/" + name);
    b.li(4, gl.neighbors);
    b.li(8, gl.offsets);
    b.li(5, parent_base);
    b.li(23, n);
    b.li(22, 0); // source
    b.jmp("seed");
    b.label("restart");
    // parent[] = -1 (part of the real BFS setup cost).
    b.li(16, parent_base);
    b.li(17, parent_base + static_cast<Addr>(n) * 4);
    b.li(18, unvisited32);
    b.label("rinit");
    b.sw(18, 16, 0);
    b.addi(16, 16, 4);
    b.cmp(16, 17);
    b.blt("rinit");
    b.label("seed");
    // Seed the queue with the source.
    b.li(1, q_base);     // head
    b.li(2, q_base);     // tail
    b.sw(22, 2, 0);
    b.addi(2, 2, 4);
    b.slli(19, 22, 2);
    b.add(19, 5, 19);
    b.sw(22, 19, 0);     // parent[src] = src
    b.label("outer");
    b.cmp(1, 2);
    b.bge("bfs_done");
    b.lw(6, 1, 0);       // u = q[head] (striding; SVR trigger)
    b.addi(1, 1, 4);
    b.slli(7, 6, 3);
    b.add(7, 8, 7);
    b.ld(9, 7, 0);       // start (indirect)
    b.ld(10, 7, 8);      // end (indirect)
    b.slli(11, 9, 2);
    b.add(11, 4, 11);
    b.slli(12, 10, 2);
    b.add(12, 4, 12);
    b.cmp(11, 12);
    b.bge("outer");
    b.label("inner");
    b.lw(13, 11, 0);     // v (striding)
    b.slli(14, 13, 2);
    b.add(14, 5, 14);
    b.lw(15, 14, 0);     // parent[v] (indirect)
    b.cmpi(15, static_cast<std::int64_t>(unvisited32));
    b.bne("skip");
    b.sw(6, 14, 0);      // parent[v] = u
    b.sw(13, 2, 0);      // enqueue v
    b.addi(2, 2, 4);
    b.label("skip");
    b.addi(11, 11, 4);
    b.cmp(11, 12);
    b.blt("inner");
    b.jmp("outer");
    b.label("bfs_done");
    if (single_source) {
        b.halt();
    } else {
        b.addi(22, 22, 1);
        b.cmp(22, 23);
        b.blt("restart");
        b.li(22, 0);
        b.jmp("restart");
    }

    return {"bfs/" + name, mem,
            std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeCc(std::shared_ptr<const HostGraph> g, const std::string &name,
       unsigned passes)
{
    auto mem = std::make_shared<FunctionalMemory>();
    const GraphLayout gl = layoutGraph(*g, *mem);
    const std::uint32_t n = g->numNodes;
    std::vector<std::uint32_t> comp(n);
    for (std::uint32_t u = 0; u < n; u++)
        comp[u] = u;
    const Addr comp_base = layoutArray32(*mem, comp);

    ProgramBuilder b("cc/" + name);
    b.li(2, n);
    b.li(4, gl.neighbors);
    b.li(6, comp_base);
    b.li(20, passes);
    b.li(21, 0);
    b.label("pass");
    b.li(1, 0);
    b.li(3, gl.offsets);
    b.label("outer");
    b.ld(7, 3, 0);
    b.ld(8, 3, 8);
    b.slli(9, 7, 2);
    b.add(9, 4, 9);
    b.slli(11, 8, 2);
    b.add(11, 4, 11);
    b.slli(13, 1, 2);
    b.add(13, 6, 13);   // &comp[u]
    b.lw(14, 13, 0);    // cu
    b.cmp(9, 11);
    b.bge("next");
    b.label("inner");
    b.lw(15, 9, 0);     // v (striding; SVR trigger)
    b.slli(16, 15, 2);
    b.add(16, 6, 16);
    b.lw(17, 16, 0);    // comp[v] (indirect)
    b.cmp(17, 14);
    b.bge("noupd");
    b.mov(14, 17);      // cu = min(cu, cv)
    b.label("noupd");
    b.addi(9, 9, 4);
    b.cmp(9, 11);
    b.blt("inner");
    b.sw(14, 13, 0);    // comp[u] = cu
    b.label("next");
    b.addi(3, 3, 8);
    b.addi(1, 1, 1);
    b.cmp(1, 2);
    b.blt("outer");
    b.addi(21, 21, 1);
    b.cmpi(20, 0);
    b.beq("pass");
    b.cmp(21, 20);
    b.blt("pass");
    b.halt();

    return {"cc/" + name, mem,
            std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeBc(std::shared_ptr<const HostGraph> g, const std::string &name,
       bool single_source)
{
    auto mem = std::make_shared<FunctionalMemory>();
    const GraphLayout gl = layoutGraph(*g, *mem);
    const std::uint32_t n = g->numNodes;
    // Host-side init of the first source's arrays (paper methodology
    // skips initialization): depth[] = -1; sigma/delta are zero.
    const Addr depth_base = layoutFill32(*mem, n, unvisited32);
    const Addr sigma_base = layoutZeros(*mem, n, 8);  // doubles
    const Addr delta_base = layoutZeros(*mem, n, 8);  // doubles
    const Addr order_base = layoutZeros(*mem,
                                        static_cast<std::uint64_t>(n) + 8,
                                        4);
    const Addr cent_base = layoutZeros(*mem, n, 8);   // doubles

    const std::uint64_t one_bits = std::bit_cast<std::uint64_t>(1.0);

    ProgramBuilder b("bc/" + name);
    b.li(4, gl.neighbors);
    b.li(8, gl.offsets);
    b.li(5, depth_base);
    b.li(24, sigma_base);
    b.li(25, delta_base);
    b.li(23, n);
    b.li(22, 0); // source
    b.jmp("seed");
    b.label("restart");
    // depth[] = -1; sigma[] = 0.0; delta[] = 0.0.
    b.li(16, depth_base);
    b.li(17, depth_base + static_cast<Addr>(n) * 4);
    b.li(18, unvisited32);
    b.label("rinit_d");
    b.sw(18, 16, 0);
    b.addi(16, 16, 4);
    b.cmp(16, 17);
    b.blt("rinit_d");
    b.li(16, sigma_base);
    b.li(17, sigma_base + static_cast<Addr>(n) * 8);
    b.label("rinit_s");
    b.sd(0, 16, 0);
    b.sd(0, 16, static_cast<std::int64_t>(delta_base - sigma_base));
    b.addi(16, 16, 8);
    b.cmp(16, 17);
    b.blt("rinit_s");
    b.label("seed");
    // Seed: order/queue = [src]; depth[src]=0; sigma[src]=1.0.
    b.li(1, order_base);  // head
    b.li(2, order_base);  // tail
    b.sw(22, 2, 0);
    b.addi(2, 2, 4);
    b.slli(19, 22, 2);
    b.add(19, 5, 19);
    b.sw(0, 19, 0);       // depth[src] = 0
    b.slli(19, 22, 3);
    b.add(19, 24, 19);
    b.li(18, one_bits);
    b.sd(18, 19, 0);      // sigma[src] = 1.0
    // ---- Phase 1: BFS accumulating sigma. ----
    b.label("outer");
    b.cmp(1, 2);
    b.bge("phase2");
    b.lw(6, 1, 0);        // u = order[head] (striding)
    b.addi(1, 1, 4);
    b.slli(7, 6, 2);
    b.add(7, 5, 7);
    b.lw(26, 7, 0);       // du = depth[u]
    b.slli(7, 6, 3);
    b.add(7, 8, 7);
    b.ld(9, 7, 0);
    b.ld(10, 7, 8);
    b.slli(11, 9, 2);
    b.add(11, 4, 11);
    b.slli(12, 10, 2);
    b.add(12, 4, 12);
    b.slli(27, 6, 3);
    b.add(27, 24, 27);
    b.ld(27, 27, 0);      // su = sigma[u]
    b.cmp(11, 12);
    b.bge("outer");
    b.label("inner");
    b.lw(13, 11, 0);      // v (striding)
    b.slli(14, 13, 2);
    b.add(14, 5, 14);
    b.lw(15, 14, 0);      // depth[v] (indirect)
    b.cmpi(15, static_cast<std::int64_t>(unvisited32));
    b.bne("maybe_sib");
    // Newly discovered: depth[v]=du+1; sigma[v]+=su; enqueue.
    b.addi(16, 26, 1);
    b.sw(16, 14, 0);
    b.slli(17, 13, 3);
    b.add(17, 24, 17);
    b.ld(18, 17, 0);
    b.fadd(18, 18, 27);
    b.sd(18, 17, 0);
    b.sw(13, 2, 0);
    b.addi(2, 2, 4);
    b.jmp("adv");
    b.label("maybe_sib");
    // Already seen: another shortest path if depth[v] == du+1.
    b.addi(16, 26, 1);
    b.cmp(15, 16);
    b.bne("adv");
    b.slli(17, 13, 3);
    b.add(17, 24, 17);
    b.ld(18, 17, 0);
    b.fadd(18, 18, 27);
    b.sd(18, 17, 0);
    b.label("adv");
    b.addi(11, 11, 4);
    b.cmp(11, 12);
    b.blt("inner");
    b.jmp("outer");
    // ---- Phase 2: backward dependency accumulation. ----
    b.label("phase2");
    // x2 = tail; walk w = order[t] for t = tail-4 down to order_base.
    b.li(1, order_base);
    b.addi(2, 2, -4);
    b.label("bouter");
    b.cmp(2, 1);
    b.blt("source_done");
    b.lw(6, 2, 0);        // w (negative-stride striding load)
    b.addi(2, 2, -4);
    b.slli(7, 6, 2);
    b.add(7, 5, 7);
    b.lw(26, 7, 0);       // dw = depth[w]
    b.slli(27, 6, 3);
    b.add(27, 25, 27);
    b.ld(15, 27, 0);      // delta[w]
    b.slli(27, 6, 3);
    b.add(27, 24, 27);
    b.ld(16, 27, 0);      // sigma[w]
    b.li(17, one_bits);
    b.fadd(15, 15, 17);   // 1 + delta[w]
    b.fdiv(15, 15, 16);   // coef = (1+delta[w]) / sigma[w]
    b.slli(7, 6, 3);
    b.add(7, 8, 7);
    b.ld(9, 7, 0);
    b.ld(10, 7, 8);
    b.slli(11, 9, 2);
    b.add(11, 4, 11);
    b.slli(12, 10, 2);
    b.add(12, 4, 12);
    b.cmp(11, 12);
    b.bge("bouter");
    b.label("binner");
    b.lw(13, 11, 0);      // v (striding)
    b.slli(14, 13, 2);
    b.add(14, 5, 14);
    b.lw(16, 14, 0);      // depth[v]
    b.addi(17, 16, 1);
    b.cmp(17, 26);        // depth[v] + 1 == depth[w]?
    b.bne("badv");
    b.slli(17, 13, 3);
    b.add(17, 24, 17);
    b.ld(18, 17, 0);      // sigma[v]
    b.fmul(18, 18, 15);   // sigma[v] * coef
    b.slli(17, 13, 3);
    b.add(17, 25, 17);
    b.ld(19, 17, 0);
    b.fadd(19, 19, 18);
    b.sd(19, 17, 0);      // delta[v] +=
    b.label("badv");
    b.addi(11, 11, 4);
    b.cmp(11, 12);
    b.blt("binner");
    b.jmp("bouter");
    b.label("source_done");
    // centrality[w] += delta[w] is folded into delta for simplicity.
    if (single_source) {
        b.halt();
    } else {
        b.addi(22, 22, 1);
        b.cmp(22, 23);
        b.blt("restart");
        b.li(22, 0);
        b.jmp("restart");
    }
    (void)cent_base;

    return {"bc/" + name, mem,
            std::make_shared<Program>(b.build())};
}

WorkloadInstance
makeSssp(std::shared_ptr<const HostGraph> g, const std::string &name,
         bool single_source)
{
    auto mem = std::make_shared<FunctionalMemory>();
    const GraphLayout gl = layoutGraph(*g, *mem);
    const std::uint32_t n = g->numNodes;
    const std::uint64_t m = g->numEdges();

    // Edge weights parallel to the neighbor array: 1..15.
    Rng rng(0x55511);
    std::vector<std::uint32_t> weights(std::max<std::uint64_t>(m, 1));
    for (auto &w : weights)
        w = 1 + static_cast<std::uint32_t>(rng.nextBounded(15));
    const Addr wt_base = layoutArray32(*mem, weights);
    // Host-side init of the first source's distances (the paper's
    // methodology skips initialization).
    const Addr dist_base = layoutFill32(*mem, n, infDist32);
    const Addr qa_base = layoutZeros(*mem,
                                     static_cast<std::uint64_t>(n) + 8, 4);
    const Addr qb_base = layoutZeros(*mem,
                                     static_cast<std::uint64_t>(n) + 8, 4);
    // Bin-membership flags (as in delta-stepping's bucket bookkeeping):
    // a node is pushed to the next bin at most once per round.
    const Addr flag_base = layoutZeros(*mem, n, 1);
    (void)m;

    ProgramBuilder b("sssp/" + name);
    b.li(4, gl.neighbors);
    b.li(8, gl.offsets);
    b.li(5, dist_base);
    b.li(24, wt_base);
    b.li(23, n);
    b.li(22, 0);             // source
    b.jmp("seed");
    b.label("restart");
    b.li(16, dist_base);
    b.li(17, dist_base + static_cast<Addr>(n) * 4);
    b.li(18, infDist32);
    b.label("rinit");
    b.sw(18, 16, 0);
    b.addi(16, 16, 4);
    b.cmp(16, 17);
    b.blt("rinit");
    b.label("seed");
    b.li(25, qa_base);       // current queue base
    b.li(26, qb_base);       // next queue base
    b.sw(22, 25, 0);         // cur = [src]
    b.li(1, 0);              // head index (bytes)
    b.li(2, 4);              // tail index (bytes)
    b.slli(19, 22, 2);
    b.add(19, 5, 19);
    b.sw(0, 19, 0);          // dist[src] = 0
    b.label("round");
    b.li(3, 0);              // next-queue tail (bytes)
    b.li(28, flag_base);
    b.label("outer");
    b.cmp(1, 2);
    b.bge("round_done");
    b.add(16, 25, 1);
    b.lw(6, 16, 0);          // u = cur[head] (striding via index)
    b.addi(1, 1, 4);
    b.add(16, 28, 6);
    b.sb(0, 16, 0);          // leave the bin: clear flag[u]
    b.slli(7, 6, 2);
    b.add(7, 5, 7);
    b.lw(27, 7, 0);          // du = dist[u]
    b.slli(7, 6, 3);
    b.add(7, 8, 7);
    b.ld(9, 7, 0);
    b.ld(10, 7, 8);
    b.slli(11, 9, 2);
    b.add(11, 4, 11);        // pn
    b.slli(12, 10, 2);
    b.add(12, 4, 12);        // pn end
    b.slli(13, 9, 2);
    b.add(13, 24, 13);       // pw (weights walk in lockstep)
    b.cmp(11, 12);
    b.bge("outer");
    b.label("inner");
    b.lw(14, 11, 0);         // v (striding; SVR trigger)
    b.lw(15, 13, 0);         // w (striding)
    b.add(15, 27, 15);       // nd = du + w
    b.slli(16, 14, 2);
    b.add(16, 5, 16);
    b.lw(17, 16, 0);         // dist[v] (indirect)
    b.cmp(15, 17);
    b.bge("skip");
    b.sw(15, 16, 0);         // dist[v] = nd
    b.add(18, 28, 14);
    b.lb(19, 18, 0);         // already binned? (flag[v])
    b.cmpi(19, 0);
    b.bne("skip");
    b.li(19, 1);
    b.sb(19, 18, 0);         // flag[v] = 1
    b.add(18, 26, 3);
    b.sw(14, 18, 0);         // next[tail++] = v
    b.addi(3, 3, 4);
    b.label("skip");
    b.addi(11, 11, 4);
    b.addi(13, 13, 4);
    b.cmp(11, 12);
    b.blt("inner");
    b.jmp("outer");
    b.label("round_done");
    // Swap queues; done when the next round is empty.
    b.mov(16, 25);
    b.mov(25, 26);
    b.mov(26, 16);
    b.li(1, 0);
    b.mov(2, 3);
    b.cmpi(2, 0);
    b.bne("round");
    if (single_source) {
        b.halt();
    } else {
        b.addi(22, 22, 1);
        b.cmp(22, 23);
        b.blt("restart");
        b.li(22, 0);
        b.jmp("restart");
    }

    return {"sssp/" + name, mem,
            std::make_shared<Program>(b.build())};
}

} // namespace svr
