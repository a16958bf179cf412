// serve-mix: an in-process PlanService (2 workers) driven by 2
// closed-loop clients.  Each client owns disjoint structures and repeats
// one fixed cycle of requests:
//
//   hit     Run on a resident structure (plan-cache hit, the read path);
//   miss    Run on a never-seen structure (a fresh plan build);
//   write   a session delta -- structural (inserts confined to one row
//           panel, or their deletion) or value-only -- plus the follow-up
//           session Run, counted as one op.
//
// The write deltas undo each other within a cycle, so the session cycles
// through three states whose references are computed before timing,
// like the references of every miss structure.  The cache holds every
// structure, so misses come from first touch only and the hit/miss
// sequence repeats exactly; the deadline is far away, so nothing
// degrades; the clients share no matrix, so coalescing never fires.

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <atomic>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "common/random.hpp"
#include "harness.hpp"
#include "serve/fingerprint.hpp"
#include "serve/service.hpp"
#include "sparse/delta.hpp"
#include "sparse/htb.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace hottiles;

namespace {

constexpr const char* kArchSpec = "spade-sextans:4";
constexpr int kSetupRepeats = 5;
constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
constexpr double kDeadlineMs = 60000;
constexpr size_t kInsertsPerDelta = 8;
// K per structure: the larger matrices (si4, rm0) run at K = 32, the
// smaller ones (gea, nd2) and the sessions at K = 64, so that no op is
// much below 10 ms and the op kinds' latency bands overlap instead of
// forming separate clusters the median could jump between.
constexpr unsigned kKLarge = 32;
constexpr unsigned kKSmall = 64;
constexpr size_t kValuesPerPatch = 64;

enum class Step
{
    HitA,        //!< Run on resident structure A
    HitB,        //!< Run on resident structure B
    Miss,        //!< Run on a never-seen variant of A or B
    Insert,      //!< session: structural insert batch + Run
    Patch,       //!< session: value patch + Run
    Unpatch,     //!< session: restore the patched values + Run
    Delete,      //!< session: delete the inserted entries + Run
};

/** One client cycle: 11 hits, 8 writes and 1 miss.  The session walks
 *  S0 -Insert-> S1 -Patch-> S2 -Unpatch-> S1 -Delete-> S0 twice. */
constexpr Step kCycle[] = {
    Step::HitA, Step::HitB, Step::Insert, Step::HitA, Step::Patch,
    Step::HitB, Step::HitA, Step::Unpatch, Step::HitB, Step::Delete,
    Step::HitA, Step::HitB, Step::Insert, Step::HitA, Step::Patch,
    Step::Miss, Step::HitA, Step::Unpatch, Step::HitB, Step::Delete};
constexpr size_t kCycleLen = sizeof(kCycle) / sizeof(kCycle[0]);

/** Timed cycles per client are capped at this rate times --seconds,
 *  because the reference of every miss structure is computed before
 *  timing, one per cycle.  The clients reach about 3.7 cycles/s each on
 *  a 4-core Xeon; a faster program ends the timed window early. */
constexpr double kMaxCyclesPerSecond = 6;

const char*
kindOf(Step s)
{
    switch (s) {
      case Step::HitA:
      case Step::HitB:
        return "hit";
      case Step::Miss:
        return "miss";
      default:
        return "write";
    }
}

struct Structure
{
    std::string name;
    std::shared_ptr<const CooMatrix> m;
    unsigned k = 0;
    uint64_t din_seed = 0;
    uint64_t ref = 0;  //!< reference output checksum
};

struct Client
{
    unsigned id = 0;
    std::string tenant;
    Structure a, b;
    // Session: state S0 plus the deltas that walk it through S1 and S2.
    Structure session;  //!< S0
    std::string session_name;
    std::shared_ptr<serve::DeltaFrame> insert, remove, patch, unpatch;
    uint64_t ref_s1 = 0, ref_s2 = 0;
    // Never-seen structures: cycle c misses on base (c even ? a : b)
    // plus miss_delta[c].
    std::vector<DeltaBatch> miss_delta;
    std::vector<uint64_t> miss_ref;
};

std::shared_ptr<const CooMatrix>
loadHtb(const std::string& path)
{
    MappedMatrix m(path);
    auto rows = m.rowIds(), cols = m.colIds();
    auto vals = m.vals();
    return std::make_shared<CooMatrix>(
        m.rows(), m.cols(), std::vector<Index>(rows.begin(), rows.end()),
        std::vector<Index>(cols.begin(), cols.end()),
        std::vector<Value>(vals.begin(), vals.end()));
}

/** True when (r, c) holds a nonzero of the row-major sorted @p m. */
bool
hasEntry(const CooMatrix& m, Index r, Index c)
{
    const auto& rows = m.rowIds();
    auto lo = std::lower_bound(rows.begin(), rows.end(), r);
    for (size_t i = size_t(lo - rows.begin()); i < m.nnz() && rows[i] == r;
         ++i)
        if (m.colId(i) == c)
            return true;
    return false;
}

/** @p n fresh coordinates of @p m inside row panel @p panel, none in
 *  @p taken (which receives them). */
DeltaBatch
freshInserts(const CooMatrix& m, size_t n, Index panel, Rng& rng,
             std::set<std::pair<Index, Index>>& taken)
{
    DeltaBatch d;
    const Index r0 = panel * kPanelRows;
    const Index r1 = std::min<Index>(m.rows(), r0 + kPanelRows);
    while (d.inserts() < n) {
        const Index r = Index(rng.nextRange(r0, r1 - 1));
        const Index c = Index(rng.nextBounded(m.cols()));
        if (hasEntry(m, r, c) || !taken.emplace(r, c).second)
            continue;
        d.pushInsert(r, c, Value(rng.nextDouble(-1.0, 1.0)));
    }
    return d;
}

uint64_t
referenceChecksum(const Architecture& arch, const CooMatrix& m, unsigned k,
                  uint64_t din_seed)
{
    HotTilesOptions opts;
    opts.kernel.k = Index(k);
    opts.build_formats = false;
    HotTiles ht(arch, m, opts);
    DenseMatrix din(ht.grid().matrixCols(), Index(k));
    Rng rng(din_seed);
    din.fillRandom(rng);
    Span s("verify.reference");
    return serve::denseChecksum(
        exec::referenceExecute(ht.grid(), ht.partition(), opts.kernel, din));
}

serve::ServeRequest
runRequest(const Client& c, const Structure& s)
{
    serve::ServeRequest req;
    req.tenant = c.tenant;
    req.matrix = "#" + s.name;
    req.matrix_data = s.m;
    req.arch = kArchSpec;
    req.kernel.k = Index(s.k);
    req.deadline_ms = kDeadlineMs;
    req.seed = s.din_seed;
    return req;
}

serve::ServeRequest
sessionRequest(const Client& c)
{
    serve::ServeRequest req = runRequest(c, c.session);
    req.session = c.session_name;
    return req;
}

serve::ServeRequest
deltaRequest(const Client& c, std::shared_ptr<serve::DeltaFrame> f)
{
    serve::ServeRequest req = sessionRequest(c);
    req.matrix_data.reset();
    req.mode = serve::RequestMode::Delta;
    req.delta = std::move(f);
    return req;
}

/** What the client saw of one call. */
struct Call
{
    serve::ServeReply reply;
    double client_ms = 0;
};

Call
call(serve::PlanService& svc, serve::ServeRequest req, const char* span)
{
    Call c;
    Span s(span);
    c.reply = svc.call(std::move(req));
    c.client_ms = s.stop() * 1e3;
    return c;
}

/** Check one reply; false (and a recorded failure) when it is wrong. */
bool
verify(Results* r, const Call& c, const char* source, uint64_t checksum,
       const std::string& what)
{
    r->sample("serve.service_ms", c.reply.latency_ms);
    r->sample("serve.wait_ms", c.client_ms - c.reply.latency_ms);
    if (c.reply.status != serve::ServeStatus::Ok) {
        r->fail(what + ": status " + serve::serveStatusName(c.reply.status) +
                " (" + c.reply.detail + ")");
        return false;
    }
    if (c.reply.plan_source != source) {
        r->fail(what + ": plan source " + c.reply.plan_source +
                ", expected " + source);
        return false;
    }
    if (checksum != 0 && c.reply.checksum != checksum) {
        r->fail(what + ": checksum differs from referenceExecute");
        return false;
    }
    return true;
}

/** Check a session write: the delta reply and the follow-up Run. */
bool
verifyWrite(Results* r, const Client& c, const serve::DeltaFrame& f,
            const Call& d, const Call& s, uint64_t ref)
{
    bool ok = verify(r, d, f.batch.empty() ? "value-patch" : "delta-patch",
                     0, "write on " + c.session_name);
    ok &= verify(r, s, "session", ref, "session run on " + c.session_name);
    return ok;
}

bool
sessionWrite(serve::PlanService& svc, const Client& c,
             const std::shared_ptr<serve::DeltaFrame>& f, uint64_t ref,
             Results* r)
{
    Call d = call(svc, deltaRequest(c, f), "serve.write");
    Call s = call(svc, sessionRequest(c), "serve.session_run");
    return verifyWrite(r, c, *f, d, s, ref);
}

struct Expected
{
    uint64_t hits = 0, misses = 0, deltas = 0, value_patches = 0, calls = 0;
};

/** Set-up warm-up of one client: first touch of A and B, session
 *  creation, one pass of the writes (the first structural delta seeds
 *  the incremental partitioner's caches). */
void
warmClient(serve::PlanService& svc, const Client& c, Results* r)
{
    bool ok = verify(r, call(svc, runRequest(c, c.a), "serve.miss"), "miss",
                     c.a.ref, "first touch of " + c.a.name);
    ok &= verify(r, call(svc, runRequest(c, c.b), "serve.miss"), "miss",
                 c.b.ref, "first touch of " + c.b.name);
    ok &= verify(r, call(svc, sessionRequest(c), "serve.session_run"),
                 "session", c.session.ref, "session create " + c.session_name);
    ok &= sessionWrite(svc, c, c.insert, c.ref_s1, r);
    ok &= sessionWrite(svc, c, c.patch, c.ref_s2, r);
    ok &= sessionWrite(svc, c, c.unpatch, c.ref_s1, r);
    ok &= sessionWrite(svc, c, c.remove, c.session.ref, r);
    HT_FATAL_IF(!ok, "serve-mix set-up failed for client ", c.id);
}

/** Run fn(i) for i < n on one thread each, join them all and rethrow
 *  the first exception a thread raised. */
void
onThreads(unsigned n, const std::function<void(unsigned)>& fn)
{
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back([&, i] {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    for (std::thread& t : threads)
        t.join();
    for (const std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace

Results
runServeMix(const RunOptions& opt)
{
    Results r;
    const std::vector<std::string> names = fixtureMatrices("serve-mix");
    std::map<std::string, std::shared_ptr<const CooMatrix>> base;
    for (const std::string& n : names)
        base[n] = loadHtb(opt.fixtures + "/" + n + ".htb");

    // Inputs: structures, session deltas and miss variants, all drawn
    // from the seed before any timing.
    const size_t max_cycles =
        size_t(std::ceil(opt.seconds * kMaxCyclesPerSecond));
    std::vector<Client> clients(kClients);
    const std::pair<const char*, const char*> owned[kClients] = {
        {"si4", "gea"}, {"rm0", "nd2"}};
    for (unsigned i = 0; i < kClients; ++i) {
        Client& c = clients[i];
        c.id = i;
        c.tenant = "client" + std::to_string(i);
        c.session_name = "s" + std::to_string(i);
        Rng rng(mixSeed(opt.seed, c.tenant));
        auto structure = [&](const std::string& name,
                             std::shared_ptr<const CooMatrix> m, unsigned k) {
            Structure s;
            s.name = name;
            s.m = std::move(m);
            s.k = k;
            s.din_seed = mixSeed(opt.seed, "din:" + name);
            r.inputs.push_back(describeInput(name, s.m->rows(), s.m->cols(),
                                             s.m->nnz(), s.k));
            return s;
        };
        c.a = structure(owned[i].first, base[owned[i].first], kKLarge);
        c.b = structure(owned[i].second, base[owned[i].second], kKSmall);

        // The session starts from a twin of A (one extra nonzero), so its
        // cache entries never alias A's.
        std::set<std::pair<Index, Index>> taken;
        const CooMatrix& am = *c.a.m;
        const Index panels = (am.rows() + kPanelRows - 1) / kPanelRows;
        DeltaBatch twin = freshInserts(
            am, 1, Index(rng.nextBounded(panels)), rng, taken);
        c.session = structure(c.a.name + "-session",
                              std::make_shared<CooMatrix>(
                                  applyDeltaToCoo(am, twin)),
                              kKSmall);
        const CooMatrix& s0 = *c.session.m;
        c.insert = std::make_shared<serve::DeltaFrame>();
        c.insert->batch = freshInserts(s0, kInsertsPerDelta,
                                       Index(rng.nextBounded(panels)), rng,
                                       taken);
        c.remove = std::make_shared<serve::DeltaFrame>();
        for (size_t j = 0; j < c.insert->batch.inserts(); ++j)
            c.remove->batch.pushDelete(c.insert->batch.ins_rows[j],
                                       c.insert->batch.ins_cols[j]);
        c.patch = std::make_shared<serve::DeltaFrame>();
        c.unpatch = std::make_shared<serve::DeltaFrame>();
        std::set<size_t> picked;
        while (picked.size() < kValuesPerPatch)
            picked.insert(size_t(rng.nextBounded(s0.nnz())));
        for (size_t e : picked) {
            c.patch->updates.push(s0.rowId(e), s0.colId(e),
                                  Value(rng.nextDouble(-1.0, 1.0)));
            c.unpatch->updates.push(s0.rowId(e), s0.colId(e), s0.value(e));
        }
        for (size_t cyc = 0; cyc < max_cycles; ++cyc) {
            const CooMatrix& m = cyc % 2 == 0 ? *c.a.m : *c.b.m;
            const Index mp = (m.rows() + kPanelRows - 1) / kPanelRows;
            c.miss_delta.push_back(freshInserts(
                m, 1, Index(rng.nextBounded(mp)), rng, taken));
        }
    }

    serve::ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.queue_capacity = 64;
    cfg.cache_capacity = 1 << 14;  // every structure stays resident
    cfg.default_deadline_ms = kDeadlineMs;
    std::unique_ptr<serve::PlanService> svc;

    // References need the calibrated architecture, so one untimed
    // calibration comes first; set-up repeats below recalibrate anyway.
    Architecture arch = calibrateArch();
    onThreads(kClients, [&](unsigned i) {
        Client& c = clients[i];
        for (Structure* s : {&c.a, &c.b, &c.session})
            s->ref = referenceChecksum(arch, *s->m, s->k, s->din_seed);
        const CooMatrix s1 = applyDeltaToCoo(*c.session.m,
                                             c.insert->batch);
        c.ref_s1 = referenceChecksum(arch, s1, c.session.k,
                                     c.session.din_seed);
        c.ref_s2 = referenceChecksum(
            arch, applyValueUpdatesToCoo(s1, c.patch->updates),
            c.session.k, c.session.din_seed);
        for (size_t cyc = 0; cyc < c.miss_delta.size(); ++cyc) {
            const Structure& b = cyc % 2 == 0 ? c.a : c.b;
            c.miss_ref.push_back(referenceChecksum(
                arch, applyDeltaToCoo(*b.m, c.miss_delta[cyc]), b.k,
                b.din_seed));
        }
    });

    // Set-up: calibration, service start, first touch of every resident
    // structure, session creation and one pass of the writes.
    for (int i = 0; i < kSetupRepeats; ++i) {
        svc.reset();
        const double t0 = nowSeconds();
        arch = calibrateArch();
        svc = std::make_unique<serve::PlanService>(cfg);
        for (const Client& c : clients)
            warmClient(*svc, c, &r);
        r.setup_s.push_back(nowSeconds() - t0);
    }
    r.samples.clear();  // set-up calls are not ops

    const serve::ServiceStats before = svc->stats();
    std::atomic<uint64_t> next_op{0};
    std::vector<Results> per_client(kClients);
    std::vector<Expected> expected(kClients);
    std::vector<size_t> cycles_run(kClients);
    std::vector<double> t_end(kClients);
    const double t_begin = nowSeconds();
    onThreads(kClients, [&](unsigned i) {
        const Client& c = clients[i];
        Results& cr = per_client[i];
        Expected& ex = expected[i];
        size_t n = 0;
        for (;; ++n) {
            if (nowSeconds() - t_begin >= opt.seconds)
                break;
            const size_t cyc = n / kCycleLen;
            if (cyc >= max_cycles)
                break;
            const Step step = kCycle[n % kCycleLen];

            // Client-side preparation, outside the op: the
            // never-seen structure of this cycle, or the write.
            Structure variant;
            const Structure* run_on = nullptr;
            std::shared_ptr<serve::DeltaFrame> frame;
            uint64_t session_ref = 0;
            switch (step) {
              case Step::HitA:
                run_on = &c.a;
                break;
              case Step::HitB:
                run_on = &c.b;
                break;
              case Step::Miss: {
                const Structure& b = cyc % 2 == 0 ? c.a : c.b;
                variant = b;
                variant.name = b.name + "-v" + std::to_string(cyc);
                variant.m = std::make_shared<CooMatrix>(
                    applyDeltaToCoo(*b.m, c.miss_delta[cyc]));
                variant.ref = c.miss_ref[cyc];
                run_on = &variant;
                break;
              }
              case Step::Insert:
                frame = c.insert;
                session_ref = c.ref_s1;
                break;
              case Step::Patch:
                frame = c.patch;
                session_ref = c.ref_s2;
                break;
              case Step::Unpatch:
                frame = c.unpatch;
                session_ref = c.ref_s1;
                break;
              case Step::Delete:
                frame = c.remove;
                session_ref = c.session.ref;
                break;
            }
            const bool miss = step == Step::Miss;

            Span op("op", ++next_op);
            Call first, second;
            if (run_on) {
                first = call(*svc, runRequest(c, *run_on),
                             miss ? "serve.miss" : "serve.hit");
            } else {
                first = call(*svc, deltaRequest(c, frame),
                             "serve.write");
                second = call(*svc, sessionRequest(c),
                              "serve.session_run");
            }
            const double op_ms = op.stop() * 1e3;

            bool ok;
            if (run_on) {
                ok = verify(&cr, first, miss ? "miss" : "hit",
                            run_on->ref, "run on " + run_on->name);
                if (!miss)
                    ok &= cr.expectCount(
                        "serve.predicted_cycles." + run_on->name,
                        first.reply.predicted_cycles);
                (miss ? ex.misses : ex.hits) += 1;
                ex.calls += 1;
            } else {
                ok = verifyWrite(&cr, c, *frame, first, second,
                                 session_ref);
                if (frame->batch.empty())
                    ex.value_patches += frame->updates.size();
                else
                    ex.deltas += 1;
                ex.calls += 2;
            }
            cr.addOp(std::string(kindOf(step)) + ":" +
                         (miss ? (cyc % 2 == 0 ? c.a : c.b).name
                          : run_on ? run_on->name
                                   : c.session.name),
                     op_ms, ok);

            // Traced run only: what fingerprinting this request's
            // matrix costs, measured outside the op.
            if (run_on && Tracer::global().enabled()) {
                Span s("serve.fingerprint");
                serve::fingerprintStructure(
                    *run_on->m, arch.tile_height, arch.tile_width);
            }
        }
        cycles_run[i] = (n + kCycleLen - 1) / kCycleLen;
        t_end[i] = nowSeconds();
    });
    r.timed_wall_s = *std::max_element(t_end.begin(), t_end.end()) - t_begin;
    const serve::ServiceStats after = svc->stats();

    Expected ex;
    for (unsigned i = 0; i < kClients; ++i) {
        r.merge(per_client[i]);
        ex.hits += expected[i].hits;
        ex.misses += expected[i].misses;
        ex.deltas += expected[i].deltas;
        ex.value_patches += expected[i].value_patches;
        ex.calls += expected[i].calls;
        r.sample("serve.capped_clients", cycles_run[i] >= max_cycles);
    }

    // Service counters over the timed window must equal the schedule.
    const auto check = [&](const char* what, uint64_t got, uint64_t want) {
        r.sample(std::string("serve.") + what, double(got));
        if (got != want)
            r.fail(std::string("serve.") + what + " = " +
                   std::to_string(got) + ", schedule says " +
                   std::to_string(want));
    };
    check("hits", after.cache.hits - before.cache.hits, ex.hits);
    check("misses", after.cache.misses - before.cache.misses, ex.misses);
    check("deltas", after.deltas - before.deltas, ex.deltas);
    check("value_patches", after.value_patches - before.value_patches,
          ex.value_patches);
    check("submitted", after.submitted - before.submitted, ex.calls);
    check("ok", after.ok - before.ok, ex.calls);
    check("shed", after.shed - before.shed, 0);
    check("degraded", after.degraded - before.degraded, 0);
    check("timeout", after.timeout - before.timeout, 0);
    check("error", after.error - before.error, 0);
    check("coalesced", after.coalesced - before.coalesced, 0);
    check("evictions", after.cache.evictions - before.cache.evictions, 0);
    std::string cycle;
    for (Step s : kCycle)
        cycle += std::string(cycle.empty() ? "" : ",") + kindOf(s);
    r.expectCount("serve.cycle", cycle);
    svc->stop();
    return r;
}

} // namespace perfbench
