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

    void
    bytes(void *dst, std::size_t n)
    {
        if (n > in.size() - pos)
            corrupt("truncated");
        std::memcpy(dst, in.data() + pos, n);
        pos += n;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (n > in.size() - pos)
            corrupt("truncated");
        std::string s(in.substr(pos, n));
        pos += n;
        return s;
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
captureCheckpoint(const Executor &exec, const FunctionalMemory &mem,
                  std::string workload_name, const SvrEngine *engine)
{
    Checkpoint ck;
    ck.workload = std::move(workload_name);
    ck.arch = exec.exportArchState();
    ck.instructions = ck.arch.seq;
    ck.allocTop = mem.allocTop();
    const auto pages = mem.snapshotPages();
    ck.pages.resize(pages.size());
    for (std::size_t i = 0; i < pages.size(); i++) {
        ck.pages[i].pageNum = pages[i].pageNum;
        std::memcpy(ck.pages[i].data.data(), pages[i].data, pageBytes);
    }
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
    mem.clear();
    for (const CheckpointPage &page : ck.pages)
        mem.installPage(page.pageNum, page.data.data());
    mem.setAllocTop(ck.allocTop);
    exec.importArchState(ck.arch);
}

std::string
serializeCheckpoint(const Checkpoint &ck)
{
    std::string out;
    // Header + arch state is ~300 bytes; pages dominate.
    out.reserve(sizeof(magic) + 320 + ck.pages.size() * (pageBytes + 8));
    ByteWriter w(out);
    w.bytes(magic, sizeof(magic));
    w.str(ck.workload);
    w.u64(ck.instructions);
    for (RegVal reg : ck.arch.regs)
        w.u64(reg);
    w.u8(ck.arch.flags.eq);
    w.u8(ck.arch.flags.lt);
    w.u8(ck.arch.flags.ltu);
    w.u64(ck.arch.pcIndex);
    w.u8(ck.arch.halted);
    w.u64(ck.arch.seq);
    w.u64(ck.allocTop);
    w.u64(ck.pages.size());
    for (const CheckpointPage &page : ck.pages) {
        w.u64(page.pageNum);
        w.bytes(page.data.data(), pageBytes);
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
    char tag[sizeof(magic)];
    r.bytes(tag, sizeof(tag));
    if (std::memcmp(tag, magic, sizeof(magic)) != 0)
        corrupt("bad magic (not a checkpoint, or a newer format)");

    Checkpoint ck;
    ck.workload = r.str();
    ck.instructions = r.u64();
    for (RegVal &reg : ck.arch.regs)
        reg = r.u64();
    ck.arch.flags.eq = r.flag();
    ck.arch.flags.lt = r.flag();
    ck.arch.flags.ltu = r.flag();
    ck.arch.pcIndex = r.u64();
    ck.arch.halted = r.flag();
    ck.arch.seq = r.u64();
    ck.allocTop = r.u64();
    // restoreCheckpoint() could not install a cursor below the data
    // segment; reject it here as corruption.
    if (ck.allocTop < FunctionalMemory::dataBase)
        corrupt("allocation cursor below the data base");

    const std::uint64_t num_pages = r.u64();
    // Each page needs pageBytes + 8 bytes of input: a count that can't
    // possibly fit is corruption, not a huge allocation request.
    if (num_pages > bytes.size() / pageBytes + 1)
        corrupt("page count exceeds payload");
    ck.pages.resize(static_cast<std::size_t>(num_pages));
    Addr prev_page = 0;
    for (std::size_t i = 0; i < ck.pages.size(); i++) {
        ck.pages[i].pageNum = r.u64();
        // A larger number has no 64-bit address: installing it would
        // wrap onto a low page.
        if (ck.pages[i].pageNum >= FunctionalMemory::pageNumLimit)
            corrupt("page number beyond the address space");
        if (i > 0 && ck.pages[i].pageNum <= prev_page)
            corrupt("page numbers not strictly increasing");
        prev_page = ck.pages[i].pageNum;
        r.bytes(ck.pages[i].data.data(), pageBytes);
    }

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
