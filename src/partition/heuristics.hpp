#pragma once

/**
 * @file
 * The four HotTiles partitioning heuristics (§V-B, Fig 8, Table II) and
 * the selector that runs all applicable ones and keeps the partitioning
 * with the lowest final predicted runtime.  Each heuristic sorts the
 * tiles by a hot-cold difference key and sweeps a cutoff index from the
 * all-cold end, stopping at the first objective increase; total cost is
 * O(N log N).
 */

#include <functional>
#include <vector>

#include "partition/partition.hpp"
#include "partition/predicted_runtime.hpp"

namespace hottiles {

struct TileGridDelta;

/** The four optimization subproblems of Fig 8. */
enum class Heuristic
{
    MinTimeParallel,
    MinTimeSerial,
    MinByteParallel,
    MinByteSerial,
};

/** Human-readable heuristic name ("MinTime Parallel", ...). */
const char* heuristicName(Heuristic h);

/**
 * Solve one optimization subproblem and return its partitioning with
 * the final (readjusted, bandwidth- and merge-aware) predicted runtime
 * filled in.
 */
Partition runHeuristic(const PartitionContext& ctx, Heuristic h);

/**
 * The full HotTiles partitioner: run all four heuristics (only the two
 * Parallel ones when the architecture has atomic RMW support) and keep
 * the one with the lowest predicted runtime.  Tiles are sorted once
 * per SortKey; each sort serves that key's Parallel and Serial sweeps.
 */
Partition hotTilesPartition(const PartitionContext& ctx);

/**
 * Fills predicted_cycles of every candidate (is_hot, serial and
 * heuristic are set, in run order).
 */
using CandidateScorer = std::function<void(std::vector<Partition>&)>;

/**
 * hotTilesPartition with caller-supplied scoring — for the out-of-core
 * planner, whose untiled readjustment streams the row ids back in
 * (docs/OUTOFCORE.md).  The winner matches hotTilesPartition's when
 * the scorer computes what predictedRuntimeCycles would.
 */
Partition hotTilesPartitionWith(const PartitionContext& ctx,
                                const CandidateScorer& score);

/** The two tile orders of §V-B (Fig 8 "tile ordering"). */
enum class SortKey
{
    MinTime,  //!< by hot - cold execution time difference
    MinByte,  //!< by hot - cold byte difference
};

/** The order @p h sweeps: its Parallel and Serial variants share one. */
SortKey sortKeyOf(Heuristic h);

/**
 * Cached sweep input of one SortKey: the sorted tile order (total
 * order — ties broken by tile id, so the sequence is a pure function
 * of the estimates and can be maintained by merging), and the row
 * panel and sweep costs aligned with it (merged alongside, sparing the
 * delta path a random-gather pass over the estimates).
 */
struct KeyOrder
{
    SortKey key = SortKey::MinTime;
    std::vector<size_t> order;      //!< tile ids by (key, id)
    std::vector<Index> panel;       //!< row panel of order[i] (stable)
    std::vector<double> hot_cost;   //!< th or bh of order[i]
    std::vector<double> cold_cost;  //!< tc or bc of order[i]

    /** Retired buffers recycled by the next delta's merge.  Updates
     *  run every few milliseconds in a serving loop, and releasing
     *  multi-megabyte vectors each round just to mmap them back
     *  dominated the delta path's wall clock. */
    std::vector<size_t> order_scratch;
    std::vector<Index> panel_scratch;
    std::vector<double> hot_scratch;
    std::vector<double> cold_scratch;
};

/** Cached state of one heuristic: the candidate it last scored and
 *  that candidate's per-tile score. */
struct HeuristicState
{
    Heuristic h = Heuristic::MinTimeParallel;
    std::vector<uint8_t> is_hot;  //!< the candidate that was scored
    AssignmentScore score;        //!< its per-tile score arrays
    AssignmentScore score_scratch;  //!< recycled like KeyOrder's
};

/**
 * The incremental partitioner's state: one KeyOrder per SortKey and
 * one HeuristicState per applicable heuristic, in the order
 * hotTilesPartition runs them.  Seeded by hotTilesPartition(ctx,
 * &cache) and advanced in place by hotTilesPartitionDelta.  Per tile
 * that is 28 bytes per key and 17 per heuristic (each doubled by the
 * scratch buffers once deltas run), so HotTiles only materializes it
 * once applyDelta is first called (docs/INCREMENTAL.md).
 */
struct PartitionSweepCache
{
    std::vector<KeyOrder> keys;          //!< indexed by SortKey
    std::vector<HeuristicState> states;  //!< applicable heuristics

    bool seeded() const { return !states.empty(); }
};

/** hotTilesPartition that also seeds @p cache (ignored when null). */
Partition hotTilesPartition(const PartitionContext& ctx,
                            PartitionSweepCache* cache);

/**
 * Incremental re-partitioning after a TileGrid::applyDelta: per sort
 * key, dirty-panel tiles are merged into the cached sorted order
 * (clean tiles keep their keys and their relative order — the old->new
 * id remap is monotonic); per heuristic, the cutoff sweep re-runs over
 * its key's merged order, and the final predicted-runtime score
 * recomputes only panels that are dirty or whose membership pattern
 * changed, splicing every other panel's cached per-tile score.  @p ctx must hold the post-delta
 * grid and spliced estimates; @p cache must have been seeded against
 * the pre-delta grid.  Returns the winning partition bit-identically to
 * hotTilesPartition(ctx) and advances the cache to the new grid.
 */
Partition hotTilesPartitionDelta(const PartitionContext& ctx,
                                 const TileGridDelta& gd,
                                 PartitionSweepCache& cache);

/**
 * Like hotTilesPartition but also returns every candidate (used by the
 * heuristic-comparison experiment of Fig 12).
 */
std::vector<Partition> allHeuristicPartitions(const PartitionContext& ctx);

/**
 * The trivial homogeneous partitioning (every tile on one worker type)
 * with its predicted runtime.  This is the §VI graceful-degradation
 * fallback: when an entire worker class is lost, execution continues on
 * the surviving type with this partitioning.
 */
Partition homogeneousPartition(const PartitionContext& ctx, bool hot);

} // namespace hottiles
