/**
 * @file
 * Sparse byte-addressable memory image over a 32-bit address space,
 * shared by the assembler's program image, the golden simulator, and
 * both microarchitectural models. Little-endian, zero-fill-on-read.
 *
 * A small direct-mapped cache of page pointers sits in front of the
 * page table, so the common access (a page touched recently) costs one
 * slot load and a page-number compare instead of a hash lookup. Each
 * slot is an atomic pointer and each page carries its own number, so
 * concurrent readers of one const image (the fault campaign shares its
 * reference image across jobs) may refill slots without a data race:
 * a reader either sees a pointer to a live page whose number it checks,
 * or null. Pages are never freed while the image exists, except by
 * clear(), copy and move, which are not const and drop the cache.
 */
#ifndef DIAG_COMMON_SPARSE_MEM_HPP
#define DIAG_COMMON_SPARSE_MEM_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/types.hpp"

namespace diag
{

/** Paged sparse memory; untouched locations read as zero. */
class SparseMemory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr unsigned kPageSize = 1u << kPageShift;

    /** Page-pointer cache slots (a power of two). */
    static constexpr unsigned kCacheSlots = 128;

    SparseMemory() = default;

    /** Takes @p other's pages; both caches start empty. */
    SparseMemory(SparseMemory &&other) noexcept
        : pages_(std::move(other.pages_))
    {
        other.clear();
    }

    SparseMemory &
    operator=(SparseMemory &&other) noexcept
    {
        if (this == &other)
            return *this;
        pages_ = std::move(other.pages_);
        dropCache();
        other.clear();
        return *this;
    }

    /** Deep copy (used to snapshot state between runs). */
    SparseMemory(const SparseMemory &other) { *this = other; }

    SparseMemory &
    operator=(const SparseMemory &other)
    {
        if (this == &other)
            return *this;
        clear();
        for (const auto &kv : other.pages_)
            pages_[kv.first] = std::make_unique<Page>(*kv.second);
        return *this;
    }

    u8
    read8(Addr addr) const
    {
        const Page *p = findPage(addr);
        return p ? p->bytes[addr & (kPageSize - 1)] : 0;
    }

    void
    write8(Addr addr, u8 value)
    {
        page(addr).bytes[addr & (kPageSize - 1)] = value;
    }

    u16
    read16(Addr addr) const
    {
        if (inPage(addr, 2)) {
            const Page *p = findPage(addr);
            return p ? static_cast<u16>(load(*p, addr, 2)) : 0;
        }
        return static_cast<u16>(read8(addr)) |
               (static_cast<u16>(read8(addr + 1)) << 8);
    }

    void
    write16(Addr addr, u16 value)
    {
        if (inPage(addr, 2)) {
            store(page(addr), addr, value, 2);
            return;
        }
        write8(addr, static_cast<u8>(value));
        write8(addr + 1, static_cast<u8>(value >> 8));
    }

    u32
    read32(Addr addr) const
    {
        if (inPage(addr, 4)) {
            const Page *p = findPage(addr);
            return p ? load(*p, addr, 4) : 0;
        }
        return static_cast<u32>(read16(addr)) |
               (static_cast<u32>(read16(addr + 2)) << 16);
    }

    void
    write32(Addr addr, u32 value)
    {
        if (inPage(addr, 4)) {
            store(page(addr), addr, value, 4);
            return;
        }
        write16(addr, static_cast<u16>(value));
        write16(addr + 2, static_cast<u16>(value >> 16));
    }

    /** Read @p bytes (1, 2, or 4) zero-extended to 32 bits. */
    u32
    read(Addr addr, unsigned bytes) const
    {
        switch (bytes) {
          case 1: return read8(addr);
          case 2: return read16(addr);
          default: return read32(addr);
        }
    }

    /** Write the low @p bytes (1, 2, or 4) of @p value. */
    void
    write(Addr addr, u32 value, unsigned bytes)
    {
        switch (bytes) {
          case 1: write8(addr, static_cast<u8>(value)); break;
          case 2: write16(addr, static_cast<u16>(value)); break;
          default: write32(addr, value); break;
        }
    }

    void
    writeBlock(Addr addr, const void *src, size_t len)
    {
        const u8 *bytes = static_cast<const u8 *>(src);
        while (len > 0) {
            const size_t off = addr & (kPageSize - 1);
            const size_t n = std::min<size_t>(len, kPageSize - off);
            std::memcpy(page(addr).bytes.data() + off, bytes, n);
            addr += static_cast<Addr>(n);
            bytes += n;
            len -= n;
        }
    }

    void
    readBlock(Addr addr, void *dst, size_t len) const
    {
        u8 *bytes = static_cast<u8 *>(dst);
        while (len > 0) {
            const size_t off = addr & (kPageSize - 1);
            const size_t n = std::min<size_t>(len, kPageSize - off);
            if (const Page *p = findPage(addr))
                std::memcpy(bytes, p->bytes.data() + off, n);
            else
                std::memset(bytes, 0, n);
            addr += static_cast<Addr>(n);
            bytes += n;
            len -= n;
        }
    }

    /** Number of resident pages (for tests / footprint reporting). */
    size_t numPages() const { return pages_.size(); }

    /** Invoke @p fn with the base address of every resident page. */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const auto &kv : pages_)
            fn(static_cast<Addr>(kv.first) << kPageShift);
    }

    /**
     * Page-cache slot of the page holding @p addr. Fibonacci hashing,
     * so a run of consecutive pages spreads over the slots and the
     * text pages rarely share one with the data pages. Public so
     * tests can build pages that alias.
     */
    static size_t
    cacheSlot(Addr addr)
    {
        constexpr unsigned kBits = std::countr_zero(kCacheSlots);
        return ((addr >> kPageShift) * 0x9e3779b1u) >> (32 - kBits);
    }

    /** Drop all contents. */
    void
    clear()
    {
        dropCache();
        pages_.clear();
    }

  private:
    struct Page
    {
        std::array<u8, kPageSize> bytes;
        u32 number;  //!< address >> kPageShift (checked on cache hits)
    };

    /** The @p bytes at @p addr lie inside one page (one lookup). */
    static bool
    inPage(Addr addr, unsigned bytes)
    {
        return (addr & (kPageSize - 1)) <= kPageSize - bytes;
    }

    /** Little-endian load of @p bytes within one page. */
    static u32
    load(const Page &p, Addr addr, unsigned bytes)
    {
        const u8 *b = p.bytes.data() + (addr & (kPageSize - 1));
        u32 v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<u32>(b[i]) << (8 * i);
        return v;
    }

    /** Little-endian store of the low @p bytes within one page. */
    static void
    store(Page &p, Addr addr, u32 value, unsigned bytes)
    {
        u8 *b = p.bytes.data() + (addr & (kPageSize - 1));
        for (unsigned i = 0; i < bytes; ++i)
            b[i] = static_cast<u8>(value >> (8 * i));
    }

    /** The resident page holding @p addr, or null (absent pages are
     *  not cached: a later write may create them). */
    Page *
    findPage(Addr addr) const
    {
        const u32 number = addr >> kPageShift;
        std::atomic<Page *> &slot = cache_[cacheSlot(addr)];
        Page *p = slot.load(std::memory_order_relaxed);
        if (p && p->number == number)
            return p;
        auto it = pages_.find(number);
        if (it == pages_.end())
            return nullptr;
        p = it->second.get();
        slot.store(p, std::memory_order_relaxed);
        return p;
    }

    /** The page holding @p addr, zero-filled on first touch. */
    Page &
    page(Addr addr)
    {
        if (Page *p = findPage(addr))
            return *p;
        const u32 number = addr >> kPageShift;
        auto &owner = pages_[number];
        owner = std::make_unique<Page>();
        owner->bytes.fill(0);
        owner->number = number;
        cache_[cacheSlot(addr)].store(owner.get(),
                                      std::memory_order_relaxed);
        return *owner;
    }

    void
    dropCache()
    {
        for (std::atomic<Page *> &slot : cache_)
            slot.store(nullptr, std::memory_order_relaxed);
    }

    std::unordered_map<u32, std::unique_ptr<Page>> pages_;
    /** Page-pointer cache (see the file comment); mutable because
     *  const reads refill it. */
    mutable std::array<std::atomic<Page *>, kCacheSlots> cache_{};
};

} // namespace diag

#endif // DIAG_COMMON_SPARSE_MEM_HPP
