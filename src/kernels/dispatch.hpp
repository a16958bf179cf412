#pragma once

/**
 * @file
 * Runtime kernel dispatch (docs/KERNELS.md).
 *
 * Tier selection happens once, lazily: the highest tier that was both
 * compiled in (HOTTILES_KERNELS_* from CMake) and is supported by the
 * running CPU (cpuid on x86; NEON is baseline on AArch64) wins.  The
 * HOTTILES_FORCE_SCALAR environment variable — or setForceScalar(true)
 * from tests and benches — drops every subsequent activeOps() call to
 * the scalar tier without rebuilding.
 *
 * The high-level wrappers below add row-panel / nonzero-chunk
 * parallelism on the global thread pool and bump the `kernel.*`
 * dispatch counters and timers in MetricsRegistry; call sites that need
 * custom chunking can instead grab activeOps() and invoke the raw
 * function-pointer table directly.
 */

#include <vector>

#include "kernels/kernel_api.hpp"

namespace hottiles::kernels {

/** Kernel table for the active tier (honours force-scalar). */
const KernelOps& activeOps();

/** Tier activeOps() currently resolves to. */
Tier activeTier();

/** Add @p n calls of @p op on @p tier to `kernel.dispatch.<op>.<tier>`;
 *  callers of the raw tables count their calls through this. */
void countDispatches(const char* op, Tier tier, uint64_t n);

/**
 * Force (or un-force) the scalar tier for this process.  Overrides the
 * HOTTILES_FORCE_SCALAR environment variable in both directions.
 */
void setForceScalar(bool on);

/** True when activeOps() is pinned to the scalar tier. */
bool scalarForced();

/** True when @p t was compiled in and the running CPU supports it. */
bool tierSupported(Tier t);

/** All supported tiers, lowest (Scalar) first. */
std::vector<Tier> supportedTiers();

/**
 * Kernel table for a specific supported tier (HT_ASSERTs on an
 * unsupported one) — the property suite and the throughput bench use
 * this to compare tiers side by side regardless of force-scalar.
 */
const KernelOps& opsForTier(Tier t);

// ---------------------------------------------------------------------------
// Parallel wrappers (global thread pool, kernel.* metrics).
// ---------------------------------------------------------------------------

/** CSR SpMM over all rows; dout is fully overwritten. */
void spmmCsr(const CsrView& a, Index k, const Value* din, Value* dout,
             Policy policy);

/**
 * Row-major-sorted COO SpMM, golden policy, writing into a
 * caller-zeroed @p dout of a.rows() x k.  @p bounds are row-aligned
 * nonzero chunk boundaries (rowAlignedChunkBounds), so each output row
 * is owned by exactly one chunk.  Double accumulation uses per-chunk
 * scratch sized to the chunk's row span — peak extra memory is
 * O(threads x span x k), not the full rows x k double matrix — and
 * when Value is itself double-width the kernel accumulates directly
 * into dout with no scratch at all.
 */
void spmmCooGolden(const CooView& a, Index k, const Value* din, Value* dout,
                   const std::vector<size_t>& bounds);

/** Row-major-sorted COO SpMM, fast policy, fp32-accumulating straight
 *  into @p dout (not cleared here); @p bounds as in spmmCooGolden. */
void spmmCooFast(const CooView& a, Index k, const Value* din, Value* dout,
                 const std::vector<size_t>& bounds);

/** CSR SpMV over all rows, fast policy (golden SpMV stays with the
 *  scalar COO reference — see kernel_api.hpp). */
void spmvCsr(const CsrView& a, const Value* x, Value* y);

/** Row-major-sorted COO SpMV, golden policy, into a caller-zeroed
 *  double accumulator of a.rows() entries; @p bounds as above. */
void spmvCooGolden(const CooView& a, const Value* x, double* acc,
                   const std::vector<size_t>& bounds);

/** SDDMM over all nonzeros: out[i] = vals[i] * dot(u_row, v_row). */
void sddmm(const CooView& a, Index k, const Value* u, const Value* v,
           Value* out, Policy policy);

/** gSpMM iterated-MAC semiring over row-aligned chunks, fp32
 *  accumulation into @p dout (not cleared here). */
void gspmmAi(const CooView& a, Index k, int reps, const Value* din,
             Value* dout, const std::vector<size_t>& bounds);

/** Parallel round-to-nearest double -> Value conversion. */
void cvtD2F(const double* src, Value* dst, size_t n);

} // namespace hottiles::kernels
