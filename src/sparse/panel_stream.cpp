#include "sparse/panel_stream.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hottiles {

CooPanelSource::CooPanelSource(const CooMatrix& a) : a_(a)
{
    HT_ASSERT(a.isRowMajorSorted(),
              "CooPanelSource requires row-major sorted input");
}

size_t
CooPanelSource::beginEntry(Index panel_rows, Index p) const
{
    HT_ASSERT(panel_rows > 0, "panel height must be positive");
    const uint64_t row0 = uint64_t(p) * panel_rows;
    if (row0 >= a_.rows())
        return a_.nnz();
    const auto& ids = a_.rowIds();
    return std::lower_bound(ids.begin(), ids.end(),
                            static_cast<Index>(row0)) -
           ids.begin();
}

std::span<const Index>
CooPanelSource::rowIds(size_t first, size_t last) const
{
    return {a_.rowIds().data() + first, last - first};
}

std::span<const Index>
CooPanelSource::colIds(size_t first, size_t last) const
{
    return {a_.colIds().data() + first, last - first};
}

} // namespace hottiles
