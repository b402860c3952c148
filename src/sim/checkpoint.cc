#include "sim/checkpoint.hh"

#include <cstring>

#include "common/error.hh"
#include "common/io.hh"

namespace svr
{

namespace
{

/** Format tag: bump the trailing digits on any layout change. */
constexpr char magic[8] = {'S', 'V', 'R', 'C', 'K', 'P', '0', '1'};

/** Little-endian byte writer over a growing string. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::string &sink) : out(sink) {}

    void
    u8(std::uint8_t v)
    {
        out.push_back(static_cast<char>(v));
    }

    void
    u16(std::uint16_t v)
    {
        for (unsigned i = 0; i < 2; i++)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; i++)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; i++)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    bytes(const void *data, std::size_t n)
    {
        out.append(static_cast<const char *>(data), n);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

  private:
    std::string &out;
};

[[noreturn]] void
corrupt(const char *what)
{
    throw SimError(ErrCode::IoError,
                   std::string("checkpoint: ") + what);
}

/** Bounds-checked little-endian reader; throws IoError on truncation. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : in(bytes) {}

    std::uint8_t
    u8()
    {
        if (pos >= in.size())
            corrupt("truncated");
        return static_cast<std::uint8_t>(in[pos++]);
    }

    std::uint16_t
    u16()
    {
        std::uint16_t v = 0;
        for (unsigned i = 0; i < 2; i++)
            v |= static_cast<std::uint16_t>(u8()) << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; i++)
            v |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; i++)
            v |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return v;
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    bool
    flag()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            corrupt("bad boolean field");
        return v != 0;
    }

    /** The next @p n bytes, in place. */
    const char *
    view(std::size_t n)
    {
        if (n > in.size() - pos)
            corrupt("truncated");
        const char *p = in.data() + pos;
        pos += n;
        return p;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        return std::string(view(n), n);
    }

    bool done() const { return pos == in.size(); }

  private:
    std::string_view in;
    std::size_t pos = 0;
};

void
putStrideEntry(ByteWriter &w, const StrideEntry &e)
{
    w.u64(e.pc);
    w.u8(e.valid);
    w.u64(e.prevAddress);
    w.i64(e.stride);
    w.u32(e.satCounter);
    w.u64(e.lastPrefetch);
    w.u8(e.hasLastPrefetch);
    w.u8(e.seen);
    w.u16(e.lil);
    w.u32(e.lilConfidence);
    w.u8(e.hasLil);
    w.u32(e.uselessRounds);
    w.u64(e.lastUse);
}

StrideEntry
getStrideEntry(ByteReader &r)
{
    StrideEntry e;
    e.pc = r.u64();
    e.valid = r.flag();
    e.prevAddress = r.u64();
    e.stride = r.i64();
    e.satCounter = r.u32();
    e.lastPrefetch = r.u64();
    e.hasLastPrefetch = r.flag();
    e.seen = r.flag();
    e.lil = r.u16();
    e.lilConfidence = r.u32();
    e.hasLil = r.flag();
    e.uselessRounds = r.u32();
    e.lastUse = r.u64();
    return e;
}

} // namespace

Checkpoint
captureCheckpoint(const Executor &exec, FunctionalMemory &mem,
                  std::string workload_name, const SvrEngine *engine)
{
    Checkpoint ck;
    ck.workload = std::move(workload_name);
    ck.arch = exec.exportArchState();
    // Freeze the memory and go on on a fork of it: the image is never
    // written again.
    ck.mem = std::make_shared<const FunctionalMemory::Image>(std::move(mem));
    mem = FunctionalMemory(ck.mem);
    if (engine) {
        ck.hasSvr = true;
        ck.svr = engine->exportState();
    }
    return ck;
}

void
restoreCheckpoint(const Checkpoint &ck, Executor &exec,
                  FunctionalMemory &mem)
{
    exec.importArchState(ck.arch);
    mem = FunctionalMemory(ck.mem);
}

std::string
serializeCheckpoint(const Checkpoint &ck)
{
    const FunctionalMemory mem(ck.mem);
    const auto pages = mem.snapshotPages();
    std::string out;
    // Header + arch state is ~300 bytes; pages dominate.
    out.reserve(sizeof(magic) + 320 + pages.size() * (pageBytes + 8));
    ByteWriter w(out);
    w.bytes(magic, sizeof(magic));
    w.str(ck.workload);
    w.u64(ck.arch.seq); // the instruction count
    for (RegVal reg : ck.arch.regs)
        w.u64(reg);
    w.u8(ck.arch.flags.eq);
    w.u8(ck.arch.flags.lt);
    w.u8(ck.arch.flags.ltu);
    w.u64(ck.arch.pcIndex);
    w.u8(ck.arch.halted);
    w.u64(ck.arch.seq);
    w.u64(mem.allocTop());
    w.u64(pages.size());
    for (const FunctionalMemory::PageRef &page : pages) {
        w.u64(page.pageNum);
        w.bytes(page.data, pageBytes);
    }
    w.u8(ck.hasSvr);
    if (ck.hasSvr) {
        w.u32(static_cast<std::uint32_t>(ck.svr.strideEntries.size()));
        for (const StrideEntry &e : ck.svr.strideEntries)
            putStrideEntry(w, e);
        w.u64(ck.svr.strideClock);
        w.u8(ck.svr.governorBanned);
    }
    return out;
}

Checkpoint
deserializeCheckpoint(std::string_view bytes)
{
    ByteReader r(bytes);
    if (std::memcmp(r.view(sizeof(magic)), magic, sizeof(magic)) != 0)
        corrupt("bad magic (not a checkpoint, or a newer format)");

    Checkpoint ck;
    ck.workload = r.str();
    const std::uint64_t instructions = r.u64();
    for (RegVal &reg : ck.arch.regs)
        reg = r.u64();
    ck.arch.flags.eq = r.flag();
    ck.arch.flags.lt = r.flag();
    ck.arch.flags.ltu = r.flag();
    ck.arch.pcIndex = r.u64();
    ck.arch.halted = r.flag();
    ck.arch.seq = r.u64();
    if (instructions != ck.arch.seq)
        corrupt("instruction count disagrees with the sequence number");
    const Addr alloc_top = r.u64();
    // No memory can hold a cursor below the data segment; reject it
    // here as corruption.
    if (alloc_top < FunctionalMemory::dataBase)
        corrupt("allocation cursor below the data base");

    const std::uint64_t num_pages = r.u64();
    // Each page needs pageBytes + 8 bytes of input: a count that can't
    // possibly fit is corruption, not a huge allocation request.
    if (num_pages > bytes.size() / pageBytes + 1)
        corrupt("page count exceeds payload");
    FunctionalMemory mem;
    Addr prev_page = 0;
    for (std::uint64_t i = 0; i < num_pages; i++) {
        const Addr page_num = r.u64();
        // A larger number has no 64-bit address: installing it would
        // wrap onto a low page.
        if (page_num >= FunctionalMemory::pageNumLimit)
            corrupt("page number beyond the address space");
        if (i > 0 && page_num <= prev_page)
            corrupt("page numbers not strictly increasing");
        prev_page = page_num;
        mem.installPage(page_num, reinterpret_cast<const std::uint8_t *>(
                                      r.view(pageBytes)));
    }
    mem.setAllocTop(alloc_top);
    ck.mem = std::make_shared<const FunctionalMemory::Image>(std::move(mem));

    ck.hasSvr = r.flag();
    if (ck.hasSvr) {
        const std::uint32_t entries = r.u32();
        if (entries > bytes.size())
            corrupt("stride-entry count exceeds payload");
        ck.svr.strideEntries.resize(entries);
        for (StrideEntry &e : ck.svr.strideEntries)
            e = getStrideEntry(r);
        ck.svr.strideClock = r.u64();
        ck.svr.governorBanned = r.flag();
    }
    if (!r.done())
        corrupt("trailing bytes after checkpoint payload");
    return ck;
}

void
saveCheckpoint(const Checkpoint &ck, const std::string &path)
{
    writeFileAtomic(path, serializeCheckpoint(ck));
}

Checkpoint
loadCheckpoint(const std::string &path)
{
    return deserializeCheckpoint(readFile(path));
}

} // namespace svr
