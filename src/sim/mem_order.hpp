/**
 * @file
 * Program-order store tracking shared by both timing models: younger
 * loads may not issue before all older store addresses are known, and
 * a load fully covered by a recent older store can take its data by
 * forwarding. In DiAG this models the memory lanes (paper §5.2); in
 * the OoO baseline it models the LSQ's store buffer.
 */
#ifndef DIAG_SIM_MEM_ORDER_HPP
#define DIAG_SIM_MEM_ORDER_HPP

#include <array>
#include <vector>

#include "common/sparse_mem.hpp"
#include "common/types.hpp"

namespace diag::sim
{

/** A store whose data is still forwardable. */
struct PendingStore
{
    Addr addr = 0;
    u8 size = 0;
    Cycle data_ready = 0;
};

/**
 * Fixed-capacity FIFO of pending stores, indexed oldest first. Once the
 * window is full a new store displaces the oldest. A ring over one
 * contiguous buffer, so the per-load forwarding scan walks plain
 * memory.
 */
class StoreWindow
{
  public:
    explicit StoreWindow(unsigned capacity) : buf_(capacity) {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** The next push displaces the oldest entry (or, with capacity 0,
     *  the pushed store itself). */
    bool full() const { return size_ == buf_.size(); }

    /** The @p i-th oldest entry. */
    PendingStore &operator[](size_t i) { return buf_[slot(i)]; }
    const PendingStore &operator[](size_t i) const { return buf_[slot(i)]; }

    /** Append @p st. True when the window was full and the oldest
     *  entry was displaced (with capacity 0, @p st itself). */
    bool
    push(const PendingStore &st)
    {
        if (buf_.empty())
            return true;
        if (size_ < buf_.size()) {
            buf_[slot(size_++)] = st;
            return false;
        }
        buf_[head_] = st;
        head_ = slot(1);
        return true;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    size_t
    slot(size_t i) const
    {
        const size_t j = head_ + i;
        return j < buf_.size() ? j : j - buf_.size();
    }

    std::vector<PendingStore> buf_;
    size_t head_ = 0;  //!< slot of the oldest entry
    size_t size_ = 0;
};

/**
 * Occupancy summary of a store window: how many entries touch each
 * 4-byte granule, counted in a small hashed table. A load whose
 * granules all count zero overlaps no entry, so the forwarding probe
 * can answer without scanning the window. Aliasing granules only cost
 * a scan, never a wrong answer: every overlapping store/load pair
 * shares a granule (a zero-size access counts its first granule, the
 * byte the window's overlap test can place inside the other range).
 */
class GranuleSummary
{
  public:
    void add(Addr addr, u8 size) { update(addr, size, 1); }
    void remove(Addr addr, u8 size) { update(addr, size, -1); }

    /** Some entry may overlap [addr, addr + size). */
    bool
    mayOverlap(Addr addr, u8 size) const
    {
        const unsigned n = span(addr, size);
        for (unsigned k = 0; k < n; ++k)
            if (count_[slot(granule(addr, k))] != 0)
                return true;
        return false;
    }

    void clear() { count_.fill(0); }

    static constexpr unsigned kGranuleShift = 2;

    /** Table slot of granule @p granule (addr >> kGranuleShift).
     *  Fibonacci hashing: consecutive granules of one array spread
     *  out, and arrays a power of two apart do not collide granule by
     *  granule. Public so tests can build aliasing addresses. */
    static size_t
    slot(Addr granule)
    {
        return (granule * 0x9e3779b1u) >> (32 - kSlotBits);
    }

  private:
    static constexpr unsigned kSlotBits = 8;

    /** Granules [addr, addr + max(size, 1)) touches, counted modulo
     *  the 2^32 address space (a range may wrap past the top). */
    static unsigned
    span(Addr addr, u8 size)
    {
        const Addr last = addr + (size ? size - 1u : 0u);
        return (((last >> kGranuleShift) - (addr >> kGranuleShift)) &
                (~Addr{0} >> kGranuleShift)) +
               1;
    }

    /** The @p k-th granule of the range starting at @p addr. */
    static Addr
    granule(Addr addr, unsigned k)
    {
        return ((addr >> kGranuleShift) + k) & (~Addr{0} >> kGranuleShift);
    }

    void
    update(Addr addr, u8 size, int delta)
    {
        const unsigned n = span(addr, size);
        for (unsigned k = 0; k < n; ++k) {
            u16 &c = count_[slot(granule(addr, k))];
            c = static_cast<u16>(c + delta);
        }
    }

    std::array<u16, size_t{1} << kSlotBits> count_{};
};

/**
 * Per-thread memory-order state. Also carries the thread's functional
 * memory image reference so execution engines have one handle for both
 * data values and ordering.
 */
class StoreTracker
{
  public:
    StoreTracker(SparseMemory &mem, unsigned entries)
        : mem_(&mem), stores_(entries)
    {}

    SparseMemory &mem() { return *mem_; }

    /** Latest cycle at which any older store's address resolved. */
    Cycle storeAddrGate() const { return store_addr_gate_; }

    /** Record a store in program order. Returns true when the CAM
     *  window was full and the oldest entry was displaced (the trace
     *  layer reports these as memory-lane evictions). */
    bool
    recordStore(Addr addr, u8 size, Cycle addr_ready, Cycle data_ready)
    {
        if (addr_ready > store_addr_gate_)
            store_addr_gate_ = addr_ready;
        const bool full = stores_.full();
        if (full) {
            if (stores_.empty())
                return true;  // capacity 0: the store is not held
            occupancy_.remove(stores_[0].addr, stores_[0].size);
        }
        stores_.push({addr, size, data_ready});
        occupancy_.add(addr, size);
        return full;
    }

    /**
     * Forwarding probe: data-ready cycle of the youngest older store
     * fully covering [addr, addr+size), or kNeverCycle when the load
     * cannot forward (no overlap in the window, or partial overlap).
     * A load the occupancy summary clears skips the scan.
     */
    Cycle
    forwardProbe(Addr addr, u8 size) const
    {
        if (!occupancy_.mayOverlap(addr, size))
            return kNeverCycle;
        for (size_t k = stores_.size(); k-- > 0;) {
            const PendingStore &st = stores_[k];
            const bool overlap = addr < st.addr + st.size &&
                                 st.addr < addr + size;
            if (!overlap)
                continue;
            const bool covered = st.addr <= addr &&
                                 addr + size <= st.addr + st.size;
            return covered ? st.data_ready : kNeverCycle;
        }
        return kNeverCycle;
    }

    void
    reset()
    {
        stores_.clear();
        occupancy_.clear();
        store_addr_gate_ = 0;
    }

    /** The CAM window, oldest first (tracing / tests). */
    const StoreWindow &entries() const { return stores_; }

    /** Flip bit @p bit of the @p i-th oldest entry's address (fault
     *  injection), keeping the occupancy summary exact. Returns the
     *  corrupted address. */
    Addr
    flipEntryAddr(size_t i, unsigned bit)
    {
        PendingStore &st = stores_[i];
        occupancy_.remove(st.addr, st.size);
        st.addr ^= 1u << bit;
        occupancy_.add(st.addr, st.size);
        return st.addr;
    }

  private:
    SparseMemory *mem_;
    StoreWindow stores_;
    GranuleSummary occupancy_;  //!< granule counts of stores_
    Cycle store_addr_gate_ = 0;
};

} // namespace diag::sim

#endif // DIAG_SIM_MEM_ORDER_HPP
