#include "partition/heuristics.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <tuple>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "partition/predicted_runtime.hpp"
#include "sparse/tiling.hpp"

namespace hottiles {

const char*
heuristicName(Heuristic h)
{
    switch (h) {
      case Heuristic::MinTimeParallel: return "MinTime Parallel";
      case Heuristic::MinTimeSerial: return "MinTime Serial";
      case Heuristic::MinByteParallel: return "MinByte Parallel";
      case Heuristic::MinByteSerial: return "MinByte Serial";
    }
    HT_PANIC("unreachable heuristic");
}

SortKey
sortKeyOf(Heuristic h)
{
    return h == Heuristic::MinTimeParallel || h == Heuristic::MinTimeSerial
               ? SortKey::MinTime
               : SortKey::MinByte;
}

namespace {

constexpr SortKey kSortKeys[] = {SortKey::MinTime, SortKey::MinByte};

bool
isSerial(Heuristic h)
{
    return h == Heuristic::MinTimeSerial || h == Heuristic::MinByteSerial;
}

/** The heuristics hotTilesPartition runs for @p ctx, in run order. */
std::vector<Heuristic>
applicableHeuristics(const PartitionContext& ctx)
{
    if (ctx.atomic_rmw) {
        // Race-free RMW: no merge cost, serial operation never pays off
        // under the model (§V-B), so only the Parallel heuristics run.
        return {Heuristic::MinTimeParallel, Heuristic::MinByteParallel};
    }
    return {Heuristic::MinTimeParallel, Heuristic::MinTimeSerial,
            Heuristic::MinByteParallel, Heuristic::MinByteSerial};
}

/** Sweep costs (hot, cold) of tile @p i under @p key. */
std::pair<double, double>
tileCosts(const PartitionContext& ctx, SortKey key, size_t i)
{
    const TileEstimate& e = ctx.estimates[i];
    return key == SortKey::MinTime ? std::pair{e.th, e.tc}
                                   : std::pair{e.bh, e.bc};
}

/** Sort key of tile @p i: its hot - cold cost difference. */
double
tileKey(const PartitionContext& ctx, SortKey key, size_t i)
{
    const auto [hot, cold] = tileCosts(ctx, key, i);
    return hot - cold;
}

/**
 * Sort tile indices by increasing hot - cold difference of @p key:
 * tiles that favor hot workers come first (Fig 8 "tile ordering").
 * Ties break by tile id, making the sequence a total order — a pure
 * function of the estimates, independent of the sort algorithm — so
 * the delta path can maintain it by merging instead of re-sorting
 * (docs/INCREMENTAL.md).  The sweep costs (and, for the delta cache,
 * the panels) are gathered aligned with the order.
 */
void
buildKeyOrder(const PartitionContext& ctx, bool with_panel, KeyOrder& ko)
{
    const SortKey key = ko.key;
    const size_t n = ctx.estimates.size();
    // Sort (key, id) pairs instead of bare indices: every compare then
    // reads contiguous memory instead of gathering two estimates, which
    // more than pays for carrying the id alongside.
    struct KeyId
    {
        double key;
        size_t id;
    };
    std::vector<KeyId> kv(n);
    parallelFor(0, n, kGrainTiles, [&](size_t b, size_t e_end) {
        for (size_t i = b; i < e_end; ++i)
            kv[i] = {tileKey(ctx, key, i), i};
    });
    std::sort(kv.begin(), kv.end(), [](const KeyId& a, const KeyId& b) {
        return a.key != b.key ? a.key < b.key : a.id < b.id;
    });

    ko.order.resize(n);
    ko.hot_cost.resize(n);
    ko.cold_cost.resize(n);
    ko.panel.resize(with_panel ? n : 0);
    parallelFor(0, n, kGrainTiles, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            const size_t t = kv[i].id;
            ko.order[i] = t;
            std::tie(ko.hot_cost[i], ko.cold_cost[i]) = tileCosts(ctx, key, t);
            if (with_panel)
                ko.panel[i] = ctx.tileAt(t).panel;
        }
    });
}

/**
 * Subproblem objective at a given cutoff (tiles [0, cutoff) of the
 * sorted order are hot).  Uses prefix sums of the sorted th/tc or bh/bc
 * arrays; no bandwidth or merge terms — those enter only in the final
 * predicted runtime (§V-B).
 */
double
objective(Heuristic h, const PartitionContext& ctx, double hot_prefix,
          double cold_suffix)
{
    switch (h) {
      case Heuristic::MinTimeParallel:
        return std::max(hot_prefix / ctx.hot->count,
                        cold_suffix / ctx.cold->count);
      case Heuristic::MinTimeSerial:
        return hot_prefix / ctx.hot->count + cold_suffix / ctx.cold->count;
      case Heuristic::MinByteParallel:
      case Heuristic::MinByteSerial:
        return hot_prefix + cold_suffix;
    }
    HT_PANIC("unreachable heuristic");
}

/**
 * The cutoff sweep over @p h's key order: prefix/suffix sums, move the
 * cutoff right while the subproblem objective decreases, roll back at
 * the first increase (§V-B).  Fills everything but predicted_cycles.
 * Shared by the fresh and delta paths so their arithmetic (including
 * the ordered-combine cold-cost reduction) is the same code.
 */
Partition
sweep(const PartitionContext& ctx, Heuristic h, const KeyOrder& ko)
{
    const size_t n = ko.order.size();
    double cold_total = parallelReduce(
        0, n, kGrainTiles, 0.0,
        [&](size_t b, size_t e) {
            return std::accumulate(ko.cold_cost.begin() + b,
                                   ko.cold_cost.begin() + e, 0.0);
        },
        [](double a, double b) { return a + b; });

    size_t cutoff = 0;
    double hot_prefix = 0.0;
    double cold_suffix = cold_total;
    double best = objective(h, ctx, hot_prefix, cold_suffix);
    while (cutoff < n) {
        double next_hot = hot_prefix + ko.hot_cost[cutoff];
        double next_cold = cold_suffix - ko.cold_cost[cutoff];
        double candidate = objective(h, ctx, next_hot, next_cold);
        if (candidate >= best)
            break;
        best = candidate;
        hot_prefix = next_hot;
        cold_suffix = next_cold;
        ++cutoff;
    }

    Partition p;
    p.is_hot.assign(n, 0);
    for (size_t i = 0; i < cutoff; ++i)
        p.is_hot[ko.order[i]] = 1;
    p.serial = isSerial(h);
    p.heuristic = heuristicName(h);
    return p;
}

/**
 * The partition core's candidates: per SortKey (the keys run
 * concurrently), @p order fills the key's order — a sort, or the delta
 * cache's merge — and every applicable heuristic of the key sweeps it.
 * The orders land in @p keys; with @p release each is dropped once
 * swept, so a fresh partition holds one order per running key.
 * Candidates come back in run order with predicted_cycles left 0.
 */
std::vector<Partition>
sweepKeys(const PartitionContext& ctx, const std::vector<Heuristic>& hs,
          std::vector<KeyOrder>& keys, bool release,
          const std::function<void(KeyOrder&)>& order)
{
    std::vector<Partition> cands(hs.size());
    keys.resize(std::size(kSortKeys));
    parallelFor(0, keys.size(), 1, [&](size_t b, size_t e) {
        for (size_t k = b; k < e; ++k) {
            keys[k].key = kSortKeys[k];
            order(keys[k]);
            for (size_t i = 0; i < hs.size(); ++i)
                if (sortKeyOf(hs[i]) == keys[k].key)
                    cands[i] = sweep(ctx, hs[i], keys[k]);
            if (release)
                keys[k] = KeyOrder{};
        }
    });
    return cands;
}

/** The default scorer: each candidate's final predicted runtime. */
void
scoreCandidates(const PartitionContext& ctx, std::vector<Partition>& cands)
{
    parallelFor(0, cands.size(), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            cands[i].predicted_cycles =
                predictedRuntimeCycles(ctx, cands[i].is_hot, cands[i].serial);
    });
}

/**
 * One key's incremental step: merge dirty-panel tiles into the cached
 * order.  Survivors keep their keys (clean-panel estimates were spliced
 * bit-identically) and their relative order (the old->new id remap
 * shifts whole panels, so it is monotonic); one linear merge rebuilds
 * the total order without re-sorting the clean majority.  The sweep
 * costs ride along: survivors copy their cached value, fresh tiles read
 * theirs once — the values match a from-scratch gather bit-for-bit, so
 * the shared sweep does too.
 */
void
mergeKeyDelta(const PartitionContext& ctx, const TileGridDelta& gd,
              KeyOrder& ko)
{
    const TileGrid& grid = *ctx.grid;
    const size_t n = grid.numTiles();
    HT_ASSERT(ko.order.size() == gd.old_num_tiles,
              "sweep cache is stale: order does not match the old grid");

    // Per-panel old->new tile-id shift (clean panels move as a block).
    const size_t np = grid.numPanels();
    std::vector<ptrdiff_t> shift(np);
    for (size_t p = 0; p < np; ++p)
        shift[p] = ptrdiff_t(grid.panelTiles(Index(p)).first) -
                   ptrdiff_t(gd.old_panel_begin[p]);
    auto less = [&](size_t a, size_t b) {
        const double ka = tileKey(ctx, ko.key, a);
        const double kb = tileKey(ctx, ko.key, b);
        return ka != kb ? ka < kb : a < b;
    };

    // Fresh tiles: every tile of a dirty panel, sorted by (key, id).
    std::vector<size_t> fresh;
    for (Index p : gd.dirty_panels) {
        auto [first, last] = grid.panelTiles(p);
        for (size_t t = first; t < last; ++t)
            fresh.push_back(t);
    }
    std::sort(fresh.begin(), fresh.end(), less);

    std::vector<size_t> merged = std::move(ko.order_scratch);
    std::vector<Index> merged_panel = std::move(ko.panel_scratch);
    std::vector<double> merged_hot = std::move(ko.hot_scratch);
    std::vector<double> merged_cold = std::move(ko.cold_scratch);
    merged.clear();
    merged_panel.clear();
    merged_hot.clear();
    merged_cold.clear();
    merged.reserve(n);
    merged_panel.reserve(n);
    merged_hot.reserve(n);
    merged_cold.reserve(n);
    auto emitFresh = [&](size_t t) {
        const auto [hot, cold] = tileCosts(ctx, ko.key, t);
        merged.push_back(t);
        merged_panel.push_back(grid.tile(t).panel);
        merged_hot.push_back(hot);
        merged_cold.push_back(cold);
    };
    size_t fi = 0;
    for (size_t oi = 0; oi < ko.order.size(); ++oi) {
        const Index p = ko.panel[oi];
        if (gd.panelDirty(p))
            continue;
        const size_t t_new = size_t(ptrdiff_t(ko.order[oi]) + shift[p]);
        while (fi < fresh.size() && less(fresh[fi], t_new))
            emitFresh(fresh[fi++]);
        merged.push_back(t_new);
        merged_panel.push_back(p);
        merged_hot.push_back(ko.hot_cost[oi]);
        merged_cold.push_back(ko.cold_cost[oi]);
    }
    while (fi < fresh.size())
        emitFresh(fresh[fi++]);
    HT_ASSERT(merged.size() == n, "order merge lost tiles");
    std::swap(ko.order, merged);
    std::swap(ko.panel, merged_panel);
    std::swap(ko.hot_cost, merged_hot);
    std::swap(ko.cold_cost, merged_cold);
    ko.order_scratch = std::move(merged);
    ko.panel_scratch = std::move(merged_panel);
    ko.hot_scratch = std::move(merged_hot);
    ko.cold_scratch = std::move(merged_cold);
}

/**
 * Score @p p with per-panel reuse: splice cached per-tile entries for
 * panels that are clean and whose membership pattern is unchanged
 * (their extras, and therefore their contributions, are identical);
 * recompute the rest.  The final reduce runs over the whole grid in the
 * same chunk order as a fresh score, so the totals match bit-for-bit.
 */
void
scoreDelta(const PartitionContext& ctx, const TileGridDelta& gd,
           Partition& p, HeuristicState& st)
{
    const TileGrid& grid = *ctx.grid;
    const size_t n = grid.numTiles();
    const size_t np = grid.numPanels();
    AssignmentScore s = std::move(st.score_scratch);
    s.bytes.resize(n);
    s.time.resize(n);
    std::vector<uint8_t> reuse(np, 0);
    parallelFor(0, np, kGrainPanels, [&](size_t pb, size_t pe) {
        for (size_t pp = pb; pp < pe; ++pp) {
            if (gd.panelDirty(Index(pp)))
                continue;
            auto [nb, ne] = grid.panelTiles(Index(pp));
            const size_t ob = gd.old_panel_begin[pp];
            const size_t len = ne - nb;
            if (len != 0 && std::memcmp(p.is_hot.data() + nb,
                                        st.is_hot.data() + ob, len) != 0)
                continue;
            reuse[pp] = 1;
            if (len == 0)
                continue;
            std::copy_n(st.score.bytes.data() + ob, len, s.bytes.data() + nb);
            std::copy_n(st.score.time.data() + ob, len, s.time.data() + nb);
        }
    });
    std::vector<Index> recompute;
    for (size_t pp = 0; pp < np; ++pp)
        if (!reuse[pp])
            recompute.push_back(Index(pp));
    assignmentScorePanels(ctx, p.is_hot, recompute, s);

    p.predicted_cycles = predictedCycles(
        ctx, reduceAssignmentScore(ctx, p.is_hot, s), p.serial);
    std::swap(st.score, s);
    st.score_scratch = std::move(s);
    st.is_hot = p.is_hot;
}

/** Lowest predicted runtime wins; ties keep the earlier heuristic. */
Partition
bestCandidate(std::vector<Partition> candidates)
{
    HT_ASSERT(!candidates.empty(), "no heuristics ran");
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i)
        if (candidates[i].predicted_cycles < candidates[best].predicted_cycles)
            best = i;
    return std::move(candidates[best]);
}

/**
 * The partition core for a fresh context: one sort per SortKey, one
 * sweep per applicable heuristic from its key's order, then @p score.
 */
std::vector<Partition>
scoredCandidates(const PartitionContext& ctx, const CandidateScorer& score)
{
    HT_ASSERT(ctx.estimates.size() == ctx.numTiles(),
              "context/estimates mismatch");
    std::vector<KeyOrder> keys;
    std::vector<Partition> cands = sweepKeys(
        ctx, applicableHeuristics(ctx), keys, /*release=*/true,
        [&](KeyOrder& ko) { buildKeyOrder(ctx, /*with_panel=*/false, ko); });
    score(cands);
    return cands;
}

} // namespace

Partition
runHeuristic(const PartitionContext& ctx, Heuristic h)
{
    HT_ASSERT(ctx.estimates.size() == ctx.numTiles(), "context/grid mismatch");
    KeyOrder ko;
    ko.key = sortKeyOf(h);
    buildKeyOrder(ctx, /*with_panel=*/false, ko);
    Partition p = sweep(ctx, h, ko);
    p.predicted_cycles = predictedRuntimeCycles(ctx, p.is_hot, p.serial);
    return p;
}

std::vector<Partition>
allHeuristicPartitions(const PartitionContext& ctx)
{
    return scoredCandidates(ctx, [&](std::vector<Partition>& cands) {
        scoreCandidates(ctx, cands);
    });
}

Partition
hotTilesPartition(const PartitionContext& ctx)
{
    ScopedTimer timer("partition.heuristics");
    return bestCandidate(allHeuristicPartitions(ctx));
}

Partition
hotTilesPartitionWith(const PartitionContext& ctx,
                      const CandidateScorer& score)
{
    ScopedTimer timer("partition.heuristics");
    return bestCandidate(scoredCandidates(ctx, score));
}

Partition
hotTilesPartition(const PartitionContext& ctx, PartitionSweepCache* cache)
{
    if (!cache)
        return hotTilesPartition(ctx);
    ScopedTimer timer("partition.heuristics");
    HT_ASSERT(ctx.grid, "the sweep cache needs a grid-backed context");
    const std::vector<Heuristic> hs = applicableHeuristics(ctx);
    std::vector<Partition> cands = sweepKeys(
        ctx, hs, cache->keys, /*release=*/false,
        [&](KeyOrder& ko) { buildKeyOrder(ctx, /*with_panel=*/true, ko); });
    cache->states.assign(hs.size(), HeuristicState{});
    parallelFor(0, hs.size(), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            HeuristicState& st = cache->states[i];
            st.h = hs[i];
            assignmentScore(ctx, cands[i].is_hot, st.score);
            cands[i].predicted_cycles = predictedCycles(
                ctx, reduceAssignmentScore(ctx, cands[i].is_hot, st.score),
                cands[i].serial);
            st.is_hot = cands[i].is_hot;
        }
    });
    return bestCandidate(std::move(cands));
}

Partition
hotTilesPartitionDelta(const PartitionContext& ctx, const TileGridDelta& gd,
                       PartitionSweepCache& cache)
{
    ScopedTimer timer("partition.heuristics_delta");
    const std::vector<Heuristic> hs = applicableHeuristics(ctx);
    HT_ASSERT(cache.states.size() == hs.size() &&
                  cache.keys.size() == std::size(kSortKeys),
              "sweep cache does not match the applicable heuristic set");

    std::vector<Partition> cands =
        sweepKeys(ctx, hs, cache.keys, /*release=*/false,
                  [&](KeyOrder& ko) { mergeKeyDelta(ctx, gd, ko); });
    parallelFor(0, hs.size(), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            HT_ASSERT(cache.states[i].h == hs[i],
                      "sweep cache heuristic mismatch");
            scoreDelta(ctx, gd, cands[i], cache.states[i]);
        }
    });
    return bestCandidate(std::move(cands));
}

Partition
homogeneousPartition(const PartitionContext& ctx, bool hot)
{
    HT_ASSERT(ctx.grid, "partition context has no grid");
    Partition p;
    p.is_hot.assign(ctx.grid->numTiles(), hot ? 1 : 0);
    p.serial = false;
    p.heuristic = hot ? "Degraded HotOnly" : "Degraded ColdOnly";
    p.predicted_cycles = predictedHomogeneousCycles(ctx, hot);
    return p;
}

} // namespace hottiles
