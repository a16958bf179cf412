#include "kernels/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"

namespace hottiles::kernels {

KernelOps scalarOps();
#if defined(HOTTILES_KERNELS_NEON)
KernelOps neonOps();
#endif
#if defined(HOTTILES_KERNELS_AVX2)
KernelOps avx2Ops();
#endif
#if defined(HOTTILES_KERNELS_AVX512)
KernelOps avx512Ops();
#endif

const char*
tierName(Tier t)
{
    switch (t) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Neon:
        return "neon";
    case Tier::Avx2:
        return "avx2";
    case Tier::Avx512:
        return "avx512";
    }
    return "unknown";
}

namespace {

bool
envForceScalar()
{
    const char* v = std::getenv("HOTTILES_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/** -1 = follow HOTTILES_FORCE_SCALAR, 0/1 = programmatic override. */
std::atomic<int> g_force_scalar_override{-1};

bool
cpuSupports(Tier t)
{
    switch (t) {
    case Tier::Scalar:
        return true;
    case Tier::Neon:
#if defined(HOTTILES_KERNELS_NEON)
        return true;  // Advanced SIMD is baseline on AArch64.
#else
        return false;
#endif
    case Tier::Avx2:
#if defined(HOTTILES_KERNELS_AVX2)
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
    case Tier::Avx512:
#if defined(HOTTILES_KERNELS_AVX512)
        return __builtin_cpu_supports("avx512f");
#else
        return false;
#endif
    }
    return false;
}

const KernelOps&
tableFor(Tier t)
{
    static const KernelOps scalar = scalarOps();
#if defined(HOTTILES_KERNELS_NEON)
    static const KernelOps neon = neonOps();
    if (t == Tier::Neon)
        return neon;
#endif
#if defined(HOTTILES_KERNELS_AVX2)
    static const KernelOps avx2 = avx2Ops();
    if (t == Tier::Avx2)
        return avx2;
#endif
#if defined(HOTTILES_KERNELS_AVX512)
    static const KernelOps avx512 = avx512Ops();
    if (t == Tier::Avx512)
        return avx512;
#endif
    HT_ASSERT(t == Tier::Scalar, "kernel tier ", tierName(t),
              " not compiled in");
    return scalar;
}

/** Highest tier compiled in AND supported by this CPU (cached). */
Tier
bestTier()
{
    static const Tier best = [] {
        for (Tier t : {Tier::Avx512, Tier::Avx2, Tier::Neon})
            if (cpuSupports(t))
                return t;
        return Tier::Scalar;
    }();
    return best;
}

/** Per-wrapper bookkeeping: dispatch counter + scoped timer. */
class KernelScope
{
  public:
    explicit KernelScope(const char* op)
        : timer_(std::string("kernel.time.") + op)
    {
        countDispatches(op, activeTier(), 1);
    }

  private:
    ScopedTimer timer_;
};

} // namespace

void
countDispatches(const char* op, Tier tier, uint64_t n)
{
    MetricsRegistry::global()
        .counter(std::string("kernel.dispatch.") + op + "." + tierName(tier))
        .add(n);
}

Tier
activeTier()
{
    return scalarForced() ? Tier::Scalar : bestTier();
}

const KernelOps&
activeOps()
{
    return tableFor(activeTier());
}

void
setForceScalar(bool on)
{
    g_force_scalar_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool
scalarForced()
{
    const int o = g_force_scalar_override.load(std::memory_order_relaxed);
    if (o >= 0)
        return o != 0;
    static const bool env = envForceScalar();
    return env;
}

bool
tierSupported(Tier t)
{
    return cpuSupports(t);
}

std::vector<Tier>
supportedTiers()
{
    std::vector<Tier> tiers;
    for (Tier t : {Tier::Scalar, Tier::Neon, Tier::Avx2, Tier::Avx512})
        if (cpuSupports(t))
            tiers.push_back(t);
    return tiers;
}

const KernelOps&
opsForTier(Tier t)
{
    HT_ASSERT(cpuSupports(t), "kernel tier ", tierName(t),
              " unsupported on this host");
    return tableFor(t);
}

// ---------------------------------------------------------------------------
// Parallel wrappers.
// ---------------------------------------------------------------------------

void
spmmCsr(const CsrView& a, Index k, const Value* din, Value* dout,
        Policy policy)
{
    KernelScope scope("spmm_csr");
    const KernelOps& ops = activeOps();
    auto fn = policy == Policy::Golden ? ops.spmm_csr_golden
                                       : ops.spmm_csr_fast;
    parallelFor(0, a.rows, kGrainRows, [&](size_t rb, size_t re) {
        fn(a, k, din, dout, static_cast<Index>(rb),
           static_cast<Index>(re));
    });
}

void
spmmCooGolden(const CooView& a, Index k, const Value* din, Value* dout,
              const std::vector<size_t>& bounds)
{
    KernelScope scope("spmm_coo");
    const KernelOps& ops = activeOps();
    parallelFor(0, bounds.size() - 1, 1, [&](size_t cb, size_t ce) {
        std::vector<double> scratch;
        for (size_t c = cb; c < ce; ++c) {
            const size_t b = bounds[c];
            const size_t e = bounds[c + 1];
            if (b == e)
                continue;
            if constexpr (sizeof(Value) == sizeof(double)) {
                ops.spmm_coo_golden(a, k, din,
                                    reinterpret_cast<double*>(dout), 0, b,
                                    e);
            } else {
                // Scratch spans only this chunk's rows; chunks are
                // row-aligned so each dout row has exactly one writer.
                const Index r0 = a.row_ids[b];
                const Index r1 = a.row_ids[e - 1] + 1;
                scratch.assign(size_t(r1 - r0) * k, 0.0);
                ops.spmm_coo_golden(a, k, din, scratch.data(), r0, b, e);
                ops.cvt_d2f(scratch.data(), dout + size_t(r0) * k,
                            scratch.size());
            }
        }
    });
}

void
spmmCooFast(const CooView& a, Index k, const Value* din, Value* dout,
            const std::vector<size_t>& bounds)
{
    KernelScope scope("spmm_coo");
    const KernelOps& ops = activeOps();
    parallelFor(0, bounds.size() - 1, 1, [&](size_t cb, size_t ce) {
        for (size_t c = cb; c < ce; ++c)
            ops.spmm_coo_fast(a, k, din, dout, bounds[c], bounds[c + 1]);
    });
}

void
spmvCsr(const CsrView& a, const Value* x, Value* y)
{
    KernelScope scope("spmv_csr");
    const KernelOps& ops = activeOps();
    parallelFor(0, a.rows, kGrainRows, [&](size_t rb, size_t re) {
        ops.spmv_csr_fast(a, x, y, static_cast<Index>(rb),
                          static_cast<Index>(re));
    });
}

void
spmvCooGolden(const CooView& a, const Value* x, double* acc,
              const std::vector<size_t>& bounds)
{
    KernelScope scope("spmv_coo");
    const KernelOps& ops = activeOps();
    parallelFor(0, bounds.size() - 1, 1, [&](size_t cb, size_t ce) {
        for (size_t c = cb; c < ce; ++c)
            ops.spmv_coo_golden(a, x, acc, bounds[c], bounds[c + 1]);
    });
}

void
sddmm(const CooView& a, Index k, const Value* u, const Value* v, Value* out,
      Policy policy)
{
    KernelScope scope("sddmm");
    const KernelOps& ops = activeOps();
    auto fn = policy == Policy::Golden ? ops.sddmm_golden : ops.sddmm_fast;
    parallelFor(0, a.nnz, kGrainNnz, [&](size_t b, size_t e) {
        fn(a, k, u, v, out, b, e);
    });
}

void
gspmmAi(const CooView& a, Index k, int reps, const Value* din, Value* dout,
        const std::vector<size_t>& bounds)
{
    KernelScope scope("gspmm_ai");
    const KernelOps& ops = activeOps();
    parallelFor(0, bounds.size() - 1, 1, [&](size_t cb, size_t ce) {
        for (size_t c = cb; c < ce; ++c)
            ops.gspmm_ai(a, k, reps, din, dout, bounds[c], bounds[c + 1]);
    });
}

void
cvtD2F(const double* src, Value* dst, size_t n)
{
    const KernelOps& ops = activeOps();
    parallelFor(0, n, size_t(1) << 16, [&](size_t b, size_t e) {
        ops.cvt_d2f(src + b, dst + b, e - b);
    });
}

} // namespace hottiles::kernels
