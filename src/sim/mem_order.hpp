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
        return stores_.push({addr, size, data_ready});
    }

    /**
     * Forwarding probe: data-ready cycle of the youngest older store
     * fully covering [addr, addr+size), or kNeverCycle when the load
     * cannot forward (no overlap in the window, or partial overlap).
     */
    Cycle
    forwardProbe(Addr addr, u8 size) const
    {
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
        store_addr_gate_ = 0;
    }

    /** Direct access to the CAM window (fault injection / tests). */
    StoreWindow &entries() { return stores_; }

  private:
    SparseMemory *mem_;
    StoreWindow stores_;
    Cycle store_addr_gate_ = 0;
};

} // namespace diag::sim

#endif // DIAG_SIM_MEM_ORDER_HPP
