/** @file Tests for the four HotTiles heuristics, the selector, and
 *  their quality versus the exhaustive oracle. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/random.hpp"
#include "partition/heuristics.hpp"
#include "partition/oracle.hpp"
#include "partition/predicted_runtime.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

namespace {

WorkerTraits
mkTraits(WorkerRole role, uint32_t count, double macs, ReuseType din)
{
    WorkerTraits w;
    w.role = role;
    w.count = count;
    w.macs_per_cycle = macs;
    w.din_reuse = din;
    w.dout_reuse = ReuseType::IntraTileDemand;  // no readjustment noise
    w.vis_lat = role == WorkerRole::Hot ? 0.01 : 0.05;
    return w;
}

/** A context over a small matrix with hand-injectable estimates. */
struct SmallCtx
{
    CooMatrix m;
    TileGrid grid;
    WorkerTraits hot = mkTraits(WorkerRole::Hot, 1, 16.0,
                                ReuseType::IntraTileStream);
    WorkerTraits cold = mkTraits(WorkerRole::Cold, 4, 1.0, ReuseType::None);
    PartitionContext ctx;

    explicit SmallCtx(uint64_t seed, Index rows = 128, size_t nnz = 1200,
                      double t_merge = 50.0, bool atomic = false)
        : m(genRmat(rows, nnz, 0.57, 0.19, 0.19, 0.05, seed)),
          grid(m, 32, 32),
          ctx(makePartitionContext(grid, hot, cold, KernelConfig{}, 64.0,
                                   t_merge, atomic))
    {
        // Rebind the pointers to members (makePartitionContext captured
        // stack copies of the traits).
        ctx.hot = &hot;
        ctx.cold = &cold;
    }
};

} // namespace

TEST(Heuristics, Names)
{
    EXPECT_STREQ(heuristicName(Heuristic::MinTimeParallel),
                 "MinTime Parallel");
    EXPECT_STREQ(heuristicName(Heuristic::MinByteSerial), "MinByte Serial");
}

TEST(Heuristics, SerialFlagMatchesVariant)
{
    SmallCtx s(1);
    EXPECT_FALSE(runHeuristic(s.ctx, Heuristic::MinTimeParallel).serial);
    EXPECT_TRUE(runHeuristic(s.ctx, Heuristic::MinTimeSerial).serial);
    EXPECT_FALSE(runHeuristic(s.ctx, Heuristic::MinByteParallel).serial);
    EXPECT_TRUE(runHeuristic(s.ctx, Heuristic::MinByteSerial).serial);
}

TEST(Heuristics, MinByteMinimizesTotalBytes)
{
    SmallCtx s(2);
    Partition p = runHeuristic(s.ctx, Heuristic::MinByteParallel);
    // MinByte must assign hot exactly the tiles with bh < bc (moving any
    // tile across the resulting cutoff cannot reduce total bytes).
    AssignmentTotals chosen = assignmentTotals(s.ctx, p.is_hot, false);
    for (size_t i = 0; i < p.is_hot.size(); ++i) {
        std::vector<uint8_t> flipped = p.is_hot;
        flipped[i] ^= 1;
        AssignmentTotals other = assignmentTotals(s.ctx, flipped, false);
        EXPECT_LE(chosen.bTotal(), other.bTotal() + 1e-6);
    }
}

TEST(Heuristics, MinTimeParallelBalancesWorkerTypes)
{
    SmallCtx s(3);
    Partition p = runHeuristic(s.ctx, Heuristic::MinTimeParallel);
    AssignmentTotals t = assignmentTotals(s.ctx, p.is_hot, false);
    double obj = std::max(t.th_total, t.tc_total);
    // Moving the cutoff by one in either direction must not improve the
    // subproblem objective (local optimality of the sweep).
    // Reconstruct the sweep order.
    std::vector<size_t> order(s.ctx.estimates.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const auto& ea = s.ctx.estimates[a];
        const auto& eb = s.ctx.estimates[b];
        return ea.th - ea.tc < eb.th - eb.tc;
    });
    size_t cutoff = 0;
    for (size_t i = 0; i < order.size(); ++i)
        if (p.is_hot[order[i]])
            cutoff = i + 1;
    if (cutoff < order.size()) {
        std::vector<uint8_t> more = p.is_hot;
        more[order[cutoff]] = 1;
        AssignmentTotals t2 = assignmentTotals(s.ctx, more, false);
        EXPECT_GE(std::max(t2.th_total, t2.tc_total), obj - 1e-9);
    }
}

TEST(Heuristics, AllFourRunWithoutAtomics)
{
    SmallCtx s(4);
    auto all = allHeuristicPartitions(s.ctx);
    EXPECT_EQ(all.size(), 4u);
}

TEST(Heuristics, AtomicRmwRunsOnlyParallel)
{
    SmallCtx s(5, 128, 1200, /*t_merge=*/50.0, /*atomic=*/true);
    auto all = allHeuristicPartitions(s.ctx);
    ASSERT_EQ(all.size(), 2u);
    for (const auto& p : all) {
        EXPECT_FALSE(p.serial);
        EXPECT_NE(p.heuristic.find("Parallel"), std::string::npos);
    }
}

TEST(Heuristics, ParallelAndSerialShareOneSortPerKey)
{
    EXPECT_EQ(sortKeyOf(Heuristic::MinTimeParallel), SortKey::MinTime);
    EXPECT_EQ(sortKeyOf(Heuristic::MinTimeSerial), SortKey::MinTime);
    EXPECT_EQ(sortKeyOf(Heuristic::MinByteParallel), SortKey::MinByte);
    EXPECT_EQ(sortKeyOf(Heuristic::MinByteSerial), SortKey::MinByte);

    SmallCtx s(16, /*rows=*/256, /*nnz=*/4000);
    PartitionSweepCache cache;
    const Partition best = hotTilesPartition(s.ctx, &cache);
    ASSERT_EQ(cache.keys.size(), 2u);
    ASSERT_EQ(cache.states.size(), 4u);

    // One order per key: the (hot - cold difference, tile id) total
    // order of the estimates.
    for (size_t k = 0; k < cache.keys.size(); ++k) {
        const KeyOrder& ko = cache.keys[k];
        EXPECT_EQ(size_t(ko.key), k);
        auto key = [&](size_t i) {
            const TileEstimate& e = s.ctx.estimates[i];
            return ko.key == SortKey::MinTime ? e.th - e.tc : e.bh - e.bc;
        };
        std::vector<size_t> expect(s.grid.numTiles());
        std::iota(expect.begin(), expect.end(), size_t(0));
        std::sort(expect.begin(), expect.end(), [&](size_t a, size_t b) {
            return key(a) != key(b) ? key(a) < key(b) : a < b;
        });
        EXPECT_EQ(ko.order, expect);
    }

    // Every heuristic's sweep over its key's shared order is exactly
    // the standalone runHeuristic (own sort) result, bit for bit, both
    // from the seeded cache and from the uncached selector.
    const std::vector<Partition> all = allHeuristicPartitions(s.ctx);
    ASSERT_EQ(all.size(), cache.states.size());
    bool winner_seen = false;
    for (size_t i = 0; i < cache.states.size(); ++i) {
        const Heuristic h = cache.states[i].h;
        SCOPED_TRACE(heuristicName(h));
        const Partition ref = runHeuristic(s.ctx, h);
        EXPECT_EQ(cache.states[i].is_hot, ref.is_hot);
        EXPECT_EQ(all[i].is_hot, ref.is_hot);
        EXPECT_EQ(all[i].heuristic, ref.heuristic);
        EXPECT_EQ(std::memcmp(&all[i].predicted_cycles,
                              &ref.predicted_cycles, sizeof(double)),
                  0);
        winner_seen |= best.heuristic == ref.heuristic &&
                       best.is_hot == ref.is_hot &&
                       std::memcmp(&best.predicted_cycles,
                                   &ref.predicted_cycles,
                                   sizeof(double)) == 0;
    }
    EXPECT_TRUE(winner_seen);
}

TEST(Heuristics, SelectorPicksLowestPrediction)
{
    SmallCtx s(6);
    Partition best = hotTilesPartition(s.ctx);
    for (const auto& p : allHeuristicPartitions(s.ctx))
        EXPECT_LE(best.predicted_cycles, p.predicted_cycles + 1e-9);
}

TEST(Heuristics, NeverWorseThanHomogeneousPrediction)
{
    // The all-cold assignment is always reachable (cutoff 0), so the
    // selector can never predict worse than pure-cold serial... which
    // equals the homogeneous cold prediction.
    for (uint64_t seed : {7u, 8u, 9u, 10u}) {
        SmallCtx s(seed);
        Partition best = hotTilesPartition(s.ctx);
        double cold_only = predictedHomogeneousCycles(s.ctx, false);
        EXPECT_LE(best.predicted_cycles, cold_only + 1e-6) << seed;
    }
}

TEST(Heuristics, CloseToOracleOnTinyInstances)
{
    // On instances small enough to brute force, the best-of-four
    // heuristics must land within 30% of the optimum (they are greedy
    // approximations, not exact).
    for (uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
        SmallCtx s(seed, /*rows=*/128, /*nnz=*/400);
        ASSERT_LE(s.grid.numTiles(), 16u) << "instance too large";
        Partition heur = hotTilesPartition(s.ctx);
        Partition oracle = oraclePartition(s.ctx);
        EXPECT_LE(heur.predicted_cycles, 1.3 * oracle.predicted_cycles)
            << "seed " << seed;
        EXPECT_GE(heur.predicted_cycles, oracle.predicted_cycles - 1e-6);
    }
}

TEST(Oracle, FindsObviousSplit)
{
    // Two tiles: one clearly hot-favoring, one clearly cold-favoring.
    CooMatrix m(64, 64);
    m.push(0, 0, 1);   // tile (0,0)
    m.push(40, 40, 1); // tile (1,1)
    TileGrid grid(m, 32, 32);
    WorkerTraits hot = mkTraits(WorkerRole::Hot, 1, 16.0,
                                ReuseType::IntraTileStream);
    WorkerTraits cold = mkTraits(WorkerRole::Cold, 4, 1.0, ReuseType::None);
    PartitionContext ctx = makePartitionContext(grid, hot, cold,
                                                KernelConfig{}, 64.0, 0.0,
                                                false);
    ctx.estimates[0] = {10.0, 1000.0, 100.0, 100.0};  // hot much faster
    ctx.estimates[1] = {1000.0, 10.0, 100.0, 100.0};  // cold much faster
    Partition p = oraclePartition(ctx);
    EXPECT_TRUE(p.is_hot[0]);
    EXPECT_FALSE(p.is_hot[1]);
}

TEST(Oracle, RefusesLargeInstances)
{
    SmallCtx s(16, 512, 4000);
    ASSERT_GT(s.grid.numTiles(), 20u);
    EXPECT_DEATH(oraclePartition(s.ctx), "exponential");
}
