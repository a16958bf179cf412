#include "sparse/delta.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/random.hpp"

namespace hottiles {

namespace {

/** Pack a coordinate into one comparable/hashable word. */
inline uint64_t
coordKey(const CooMatrix& m, Index r, Index c)
{
    return uint64_t(r) * (uint64_t(m.cols()) + 1) + c;
}

} // namespace

CooMatrix
applyValueUpdatesToCoo(const CooMatrix& m, const ValueUpdateBatch& u)
{
    std::unordered_map<uint64_t, size_t> index_of;
    index_of.reserve(m.nnz());
    for (size_t i = 0; i < m.nnz(); ++i)
        index_of.emplace(coordKey(m, m.rowId(i), m.colId(i)), i);
    // Resolve every coordinate before writing anything, so a bad entry
    // leaves the (copied) result untouched semantically and the caller's
    // input untouched always.
    std::vector<size_t> targets(u.size());
    for (size_t i = 0; i < u.size(); ++i) {
        HT_FATAL_IF(u.rows[i] >= m.rows() || u.cols[i] >= m.cols(),
                    "value update (", u.rows[i], ",", u.cols[i],
                    ") outside the ", m.rows(), "x", m.cols(), " matrix");
        auto it = index_of.find(coordKey(m, u.rows[i], u.cols[i]));
        HT_FATAL_IF(it == index_of.end(), "value update at empty coordinate (",
                    u.rows[i], ",", u.cols[i], "); structural changes are ",
                    "delta inserts, not value updates");
        targets[i] = it->second;
    }
    CooMatrix out = m;
    for (size_t i = 0; i < u.size(); ++i)
        out.setValue(targets[i], u.vals[i]);
    return out;
}

CooMatrix
applyDeltaToCoo(const CooMatrix& m, const DeltaBatch& d)
{
    // Sorted (row, col) op lists; a coordinate may appear at most once
    // across the whole batch.
    std::vector<Nonzero> ins(d.inserts());
    for (size_t i = 0; i < d.inserts(); ++i) {
        HT_FATAL_IF(d.ins_rows[i] >= m.rows() || d.ins_cols[i] >= m.cols(),
                    "delta insert (", d.ins_rows[i], ",", d.ins_cols[i],
                    ") outside the ", m.rows(), "x", m.cols(), " matrix");
        ins[i] = {d.ins_rows[i], d.ins_cols[i], d.ins_vals[i]};
    }
    std::sort(ins.begin(), ins.end(), rowMajorLess);
    std::vector<Nonzero> del(d.deletes());
    for (size_t i = 0; i < d.deletes(); ++i) {
        HT_FATAL_IF(d.del_rows[i] >= m.rows() || d.del_cols[i] >= m.cols(),
                    "delta delete (", d.del_rows[i], ",", d.del_cols[i],
                    ") outside the ", m.rows(), "x", m.cols(), " matrix");
        del[i] = {d.del_rows[i], d.del_cols[i], Value(0)};
    }
    std::sort(del.begin(), del.end(), rowMajorLess);
    auto sameCoord = [](const Nonzero& a, const Nonzero& b) {
        return a.row == b.row && a.col == b.col;
    };
    for (size_t i = 1; i < ins.size(); ++i)
        HT_FATAL_IF(sameCoord(ins[i - 1], ins[i]), "duplicate delta insert (",
                    ins[i].row, ",", ins[i].col, ")");
    for (size_t i = 1; i < del.size(); ++i)
        HT_FATAL_IF(sameCoord(del[i - 1], del[i]), "duplicate delta delete (",
                    del[i].row, ",", del[i].col, ")");
    {
        // One coordinate must not be both deleted and inserted: that is
        // a value update in disguise (CooMatrix::setValue).
        size_t i = 0, j = 0;
        while (i < ins.size() && j < del.size()) {
            if (rowMajorLess(ins[i], del[j]))
                ++i;
            else if (rowMajorLess(del[j], ins[i]))
                ++j;
            else
                HT_FATAL("delta both deletes and inserts (", ins[i].row, ",",
                         ins[i].col, "); use setValue for value updates");
        }
    }

    const CooMatrix* src = &m;
    CooMatrix sorted;
    if (!m.isRowMajorSorted()) {
        sorted = m;
        sorted.sortRowMajor();
        src = &sorted;
    }

    HT_FATAL_IF(del.size() > src->nnz(), "delta deletes more nonzeros (",
                del.size(), ") than the matrix holds (", src->nnz(), ")");
    CooMatrix out(m.rows(), m.cols());
    out.reserve(src->nnz() + ins.size() - del.size());

    // Three-way sorted merge: existing nonzeros vs deletes (drop on
    // match) vs inserts (emit in order; must not collide).
    size_t di = 0, ii = 0;
    const size_t n = src->nnz();
    for (size_t i = 0; i < n; ++i) {
        Nonzero cur{src->rowId(i), src->colId(i), src->value(i)};
        while (ii < ins.size() && rowMajorLess(ins[ii], cur)) {
            out.push(ins[ii].row, ins[ii].col, ins[ii].val);
            ++ii;
        }
        HT_FATAL_IF(ii < ins.size() && sameCoord(ins[ii], cur),
                    "delta inserts existing nonzero (", cur.row, ",", cur.col,
                    ")");
        if (di < del.size() && sameCoord(del[di], cur)) {
            ++di;  // deleted
            continue;
        }
        out.push(cur.row, cur.col, cur.val);
    }
    while (ii < ins.size()) {
        out.push(ins[ii].row, ins[ii].col, ins[ii].val);
        ++ii;
    }
    HT_FATAL_IF(di != del.size(), "delta deletes missing nonzero (",
                del[di].row, ",", del[di].col, ")");
    return out;
}

DeltaBatch
genDeltaBatch(const CooMatrix& m, size_t n_inserts, size_t n_deletes,
              uint64_t seed)
{
    HT_FATAL_IF(n_deletes > m.nnz(), "cannot delete ", n_deletes,
                " nonzeros from a matrix with ", m.nnz());
    HT_FATAL_IF(m.rows() == 0 || m.cols() == 0,
                "cannot generate a delta for an empty-shape matrix");
    const double open =
        double(m.rows()) * double(m.cols()) - double(m.nnz());
    HT_FATAL_IF(double(n_inserts) > open, "matrix too dense for ",
                n_inserts, " fresh inserts");

    // Existing coordinates as a sorted array, not a hash set: a set's
    // one heap node per nonzero, freed on return, would leave millions
    // of small free chunks for the caller's next large allocation to
    // consolidate (about 0.45 s at 4M nonzeros), inside whatever that
    // caller times next.
    std::vector<uint64_t> occupied(m.nnz());
    for (size_t i = 0; i < m.nnz(); ++i)
        occupied[i] = coordKey(m, m.rowId(i), m.colId(i));
    std::sort(occupied.begin(), occupied.end());

    Rng rng(splitmix64(seed));
    DeltaBatch d;

    // Deletes: distinct existing nonzero indices (rejection sampling —
    // n_deletes <= nnz keeps the expected retry count bounded).
    std::unordered_set<size_t> chosen;
    chosen.reserve(n_deletes);
    while (chosen.size() < n_deletes) {
        size_t i = rng.nextBounded(m.nnz());
        if (chosen.insert(i).second)
            d.pushDelete(m.rowId(i), m.colId(i));
    }

    // Inserts: fresh coordinates, never colliding with existing
    // nonzeros or each other.  Reinserting a just-deleted coordinate is
    // also excluded (the batch contract forbids delete+insert pairs).
    std::unordered_set<uint64_t> inserted;
    inserted.reserve(n_inserts);
    while (d.inserts() < n_inserts) {
        Index r = static_cast<Index>(rng.nextBounded(m.rows()));
        Index c = static_cast<Index>(rng.nextBounded(m.cols()));
        const uint64_t key = coordKey(m, r, c);
        if (std::binary_search(occupied.begin(), occupied.end(), key) ||
            !inserted.insert(key).second)
            continue;
        Value v = static_cast<Value>(rng.nextDouble(-1.0, 1.0));
        d.pushInsert(r, c, v);
    }
    return d;
}

} // namespace hottiles
