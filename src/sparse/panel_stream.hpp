#pragma once

/**
 * @file
 * Panel-streaming abstraction: preprocessing consumers (tiling, tile
 * estimation, the partition sweep's readjust pass) pull row panels as
 * contiguous entry slices instead of holding the whole COO.  A window
 * of consecutive panels is acquired, processed through the thread
 * pool, then released — peak RSS is O(window), not O(nnz), when the
 * source is a `MappedMatrix` (docs/OUTOFCORE.md).
 *
 * Contract: entries are globally row-major sorted and deduped, so the
 * slice for panels [p0, p1) at tile height `h` is exactly
 * [beginEntry(h, p0), beginEntry(h, p1)).  Spans stay valid until the
 * next `release()`/destruction; `release()` is a hint only (the COO
 * source ignores it).
 */

#include <span>

#include "sparse/coo.hpp"
#include "sparse/htb.hpp"
#include "sparse/types.hpp"

namespace hottiles {

/** Source of row-panel slices over a sorted, deduped matrix. */
class PanelSource
{
  public:
    virtual ~PanelSource() = default;

    virtual Index rows() const = 0;
    virtual Index cols() const = 0;
    virtual size_t nnz() const = 0;

    /** First entry of row-panel `p` for tile height `panel_rows`
     *  (`p` may be one-past-the-end: returns nnz()). */
    virtual size_t beginEntry(Index panel_rows, Index p) const = 0;

    virtual std::span<const Index> rowIds(size_t first, size_t last) const = 0;
    virtual std::span<const Index> colIds(size_t first, size_t last) const = 0;

    /** Hint: entries [first, last) are consumed and may be evicted. */
    virtual void release(size_t first, size_t last) const { (void)first; (void)last; }
};

/** PanelSource over an in-memory sorted COO (baseline / tests). */
class CooPanelSource final : public PanelSource
{
  public:
    explicit CooPanelSource(const CooMatrix& a);

    Index rows() const override { return a_.rows(); }
    Index cols() const override { return a_.cols(); }
    size_t nnz() const override { return a_.nnz(); }
    size_t beginEntry(Index panel_rows, Index p) const override;
    std::span<const Index> rowIds(size_t first, size_t last) const override;
    std::span<const Index> colIds(size_t first, size_t last) const override;

  private:
    const CooMatrix& a_;
};

/** PanelSource over a memory-mapped `.htb`; release() drops pages. */
class MappedPanelSource final : public PanelSource
{
  public:
    explicit MappedPanelSource(const MappedMatrix& m) : m_(m) {}

    Index rows() const override { return m_.rows(); }
    Index cols() const override { return m_.cols(); }
    size_t nnz() const override { return m_.nnz(); }
    size_t beginEntry(Index panel_rows, Index p) const override
    {
        return m_.panelBeginEntry(panel_rows, p);
    }
    std::span<const Index> rowIds(size_t first, size_t last) const override
    {
        return m_.rowIds().subspan(first, last - first);
    }
    std::span<const Index> colIds(size_t first, size_t last) const override
    {
        return m_.colIds().subspan(first, last - first);
    }
    void release(size_t first, size_t last) const override
    {
        m_.releaseEntries(first, last);
    }

  private:
    const MappedMatrix& m_;
};

} // namespace hottiles
