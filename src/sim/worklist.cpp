#include "sim/worklist.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "sim/segment_cache.hpp"

namespace hottiles {

// Out of line: SegmentBuildCache is only forward-declared in the header.
WorkListCache::WorkListCache()
    : segments_(std::make_unique<SegmentBuildCache>())
{
}

WorkListCache::~WorkListCache() = default;

UntiledWork
buildUntiledWork(const TileGrid& grid, const std::vector<size_t>& tile_ids)
{
    ScopedTimer timer("format.untiled_build");
    // Tiles arrive in grid order (panel, tcol); group consecutively.
    // The grouping scan is cheap and serial; each panel's row-major
    // gather is independent and runs on the pool.
    std::vector<std::pair<size_t, size_t>> groups;  // [first, last) ids
    size_t i = 0;
    while (i < tile_ids.size()) {
        const Index panel = grid.tile(tile_ids[i]).panel;
        size_t j = i;
        while (j < tile_ids.size() && grid.tile(tile_ids[j]).panel == panel) {
            HT_ASSERT(j == i || tile_ids[j] > tile_ids[j - 1],
                      "tile ids must be in grid order");
            ++j;
        }
        groups.emplace_back(i, j);
        i = j;
    }

    UntiledWork work;
    work.panels.resize(groups.size());
    parallelFor(0, groups.size(), kGrainPanels, [&](size_t gb, size_t ge) {
        std::vector<size_t> cursor;
        for (size_t g = gb; g < ge; ++g) {
            auto [first, last] = groups[g];
            PanelWork& pw = work.panels[g];
            pw.panel = grid.tile(tile_ids[first]).panel;
            grid.gatherPanel({tile_ids.data() + first, last - first}, pw.rows,
                             pw.cols, pw.vals, cursor);
        }
    });
    for (const PanelWork& pw : work.panels)
        work.total_nnz += pw.rows.size();
    return work;
}

TiledWork
buildTiledWork(const TileGrid& grid, const std::vector<size_t>& tile_ids)
{
    ScopedTimer timer("format.tiled_build");
    TiledWork work;
    size_t i = 0;
    while (i < tile_ids.size()) {
        const Index panel = grid.tile(tile_ids[i]).panel;
        std::vector<size_t> tiles;
        while (i < tile_ids.size() && grid.tile(tile_ids[i]).panel == panel) {
            work.total_nnz += grid.tile(tile_ids[i]).nnz;
            tiles.push_back(tile_ids[i]);
            ++i;
        }
        work.panel_ids.push_back(panel);
        work.panel_tiles.push_back(std::move(tiles));
    }
    return work;
}

std::vector<std::vector<size_t>>
balancedShares(const std::vector<uint64_t>& loads, uint32_t count)
{
    HT_ASSERT(count > 0, "balancedShares needs at least one worker");
    const size_t n = loads.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return loads[a] > loads[b];
    });
    // (load, worker) min-heap: the lexicographic minimum is the least
    // loaded worker with the lowest index, the same tie-break as a
    // linear argmin scan with strict less-than.
    using Entry = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (uint32_t w = 0; w < count; ++w)
        heap.emplace(0, w);
    std::vector<std::vector<size_t>> shares(count);
    for (size_t p : order) {
        auto [load, w] = heap.top();
        heap.pop();
        shares[w].push_back(p);
        heap.emplace(load + loads[p], w);
    }
    for (auto& s : shares)
        std::sort(s.begin(), s.end());
    return shares;
}

template <typename Work, typename Build>
const Work&
WorkListCache::getOrBuild(std::map<std::vector<size_t>, Slot<Work>>& map,
                          const TileGrid& grid,
                          const std::vector<size_t>& tile_ids, Build&& build)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (!grid_)
        grid_ = &grid;
    HT_ASSERT(grid_ == &grid, "a WorkListCache serves exactly one grid");
    auto [it, inserted] = map.try_emplace(tile_ids);
    if (!inserted) {
        ++hits_;
        cv_.wait(lock, [&] { return it->second.ready; });
        return it->second.work;
    }
    // Build outside the lock: concurrent requests for *other* keys must
    // not serialize behind this one.  (The nested parallelFor runs
    // inline when called from a pool worker, so waiting on the
    // condition variable above cannot deadlock the pool.)
    lock.unlock();
    Work w = build();
    lock.lock();
    it->second.work = std::move(w);
    it->second.ready = true;
    cv_.notify_all();
    return it->second.work;
}

const UntiledWork&
WorkListCache::untiled(const TileGrid& grid,
                       const std::vector<size_t>& tile_ids)
{
    return getOrBuild(untiled_, grid, tile_ids,
                      [&] { return buildUntiledWork(grid, tile_ids); });
}

const TiledWork&
WorkListCache::tiled(const TileGrid& grid, const std::vector<size_t>& tile_ids)
{
    return getOrBuild(tiled_, grid, tile_ids,
                      [&] { return buildTiledWork(grid, tile_ids); });
}

size_t
WorkListCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

} // namespace hottiles
