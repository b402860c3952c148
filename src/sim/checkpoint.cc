#include "sim/checkpoint.hh"

#include <cstring>
#include <type_traits>

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

    /** @p v (an integer or bool) as its sizeof(T) bytes. */
    template <typename T>
    void
    put(T v)
    {
        for (unsigned i = 0; i < sizeof(T); i++) {
            out.push_back(static_cast<char>(
                static_cast<std::uint64_t>(v) >> (8 * i)));
        }
    }

    void
    bytes(const void *data, std::size_t n)
    {
        out.append(static_cast<const char *>(data), n);
    }

    void
    str(const std::string &s)
    {
        put(static_cast<std::uint32_t>(s.size()));
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

    /** The next sizeof(T) bytes into @p v; a bool must be 0 or 1. */
    template <typename T>
    void
    get(T &v)
    {
        std::uint64_t x = 0;
        for (unsigned i = 0; i < sizeof(T); i++)
            x |= std::uint64_t{static_cast<std::uint8_t>(*view(1))}
                 << (8 * i);
        if (std::is_same_v<T, bool> && x > 1)
            corrupt("bad boolean field");
        v = static_cast<T>(x);
    }

    template <typename T>
    T
    get()
    {
        T v;
        get(v);
        return v;
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
        const auto n = get<std::uint32_t>();
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
    w.put(e.pc);
    w.put(e.valid);
    w.put(e.prevAddress);
    w.put(e.stride);
    w.put(e.satCounter);
    w.put(e.lastPrefetch);
    w.put(e.hasLastPrefetch);
    w.put(e.seen);
    w.put(e.lil);
    w.put(e.lilConfidence);
    w.put(e.hasLil);
    w.put(e.uselessRounds);
    w.put(e.lastUse);
}

StrideEntry
getStrideEntry(ByteReader &r)
{
    StrideEntry e;
    r.get(e.pc);
    r.get(e.valid);
    r.get(e.prevAddress);
    r.get(e.stride);
    r.get(e.satCounter);
    r.get(e.lastPrefetch);
    r.get(e.hasLastPrefetch);
    r.get(e.seen);
    r.get(e.lil);
    r.get(e.lilConfidence);
    r.get(e.hasLil);
    r.get(e.uselessRounds);
    r.get(e.lastUse);
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
    w.put(ck.arch.seq); // the instruction count
    for (RegVal reg : ck.arch.regs)
        w.put(reg);
    w.put(ck.arch.flags.eq);
    w.put(ck.arch.flags.lt);
    w.put(ck.arch.flags.ltu);
    w.put(ck.arch.pcIndex);
    w.put(ck.arch.halted);
    w.put(ck.arch.seq);
    w.put(mem.allocTop());
    w.put<std::uint64_t>(pages.size());
    for (const FunctionalMemory::PageRef &page : pages) {
        w.put(page.pageNum);
        w.bytes(page.data, pageBytes);
    }
    w.put(ck.hasSvr);
    if (ck.hasSvr) {
        w.put(static_cast<std::uint32_t>(ck.svr.strideEntries.size()));
        for (const StrideEntry &e : ck.svr.strideEntries)
            putStrideEntry(w, e);
        w.put(ck.svr.strideClock);
        w.put(ck.svr.governorBanned);
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
    const auto instructions = r.get<std::uint64_t>();
    for (RegVal &reg : ck.arch.regs)
        r.get(reg);
    r.get(ck.arch.flags.eq);
    r.get(ck.arch.flags.lt);
    r.get(ck.arch.flags.ltu);
    r.get(ck.arch.pcIndex);
    r.get(ck.arch.halted);
    r.get(ck.arch.seq);
    if (instructions != ck.arch.seq)
        corrupt("instruction count disagrees with the sequence number");
    const auto alloc_top = r.get<Addr>();
    // No memory can hold a cursor below the data segment; reject it
    // here as corruption.
    if (alloc_top < FunctionalMemory::dataBase)
        corrupt("allocation cursor below the data base");

    const auto num_pages = r.get<std::uint64_t>();
    // Each page needs pageBytes + 8 bytes of input: a count that can't
    // possibly fit is corruption, not a huge allocation request.
    if (num_pages > bytes.size() / pageBytes + 1)
        corrupt("page count exceeds payload");
    FunctionalMemory mem;
    Addr prev_page = 0;
    for (std::uint64_t i = 0; i < num_pages; i++) {
        const auto page_num = r.get<Addr>();
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

    r.get(ck.hasSvr);
    if (ck.hasSvr) {
        const auto entries = r.get<std::uint32_t>();
        if (entries > bytes.size())
            corrupt("stride-entry count exceeds payload");
        ck.svr.strideEntries.resize(entries);
        for (StrideEntry &e : ck.svr.strideEntries)
            e = getStrideEntry(r);
        r.get(ck.svr.strideClock);
        r.get(ck.svr.governorBanned);
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
