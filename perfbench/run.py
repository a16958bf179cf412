#!/usr/bin/env python3
"""End-to-end benchmark of the HotTiles library (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness R --workload W [--seconds S]

The first form builds the harness (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), writes the
workload's input fixtures in a separate process, runs the workload in its
own process and prints one JSON object as the last line of stdout.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of an extra traced run.  The exit code is 0 only when every output
verified and every exact count repeated.

The second form repeats a workload R times with seeds 1..R and prints the
median, quartiles and spread of every end-to-end metric next to its bound
in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("oneshot", "spmm-steady", "serve-mix")

# Tail percentile of op latency per workload: the highest of p90/p95/p99
# that leaves at least ten ops above it at the op counts these workloads
# reach in one run (the result records the actual count above it).
TAIL_Q = {"oneshot": 0.95, "spmm-steady": 0.95, "serve-mix": 0.99}

# Per-plan exec metrics: "<metric>.<matrix>.k<K>.<policy>".
PLAN_KEYS = ["kro.k32.golden", "pac.k32.golden", "ser.k32.golden",
             "dgr.k32.golden", "pok.k32.golden", "ser.k32.fast",
             "pac.k8.golden", "pok.k8.fast"]
PLAN_SAMPLES = [("prepare_ms", "ms"), ("wall_ms", "ms"),
                ("hot_busy_ms", "ms"), ("cold_busy_ms", "ms"),
                ("idle_ms", "ms"), ("stolen_tasks", "count"),
                ("gflops", "GFLOP/s")]
PLAN_COUNTS = [("flops", "flop"), ("bytes_computed", "B")]
CORE_SAMPLES = ["core.plan_ms", "core.scan_ms", "core.model_ms",
                "core.partition_ms", "core.format_ms", "core.plan_other_ms"]
DISPATCH = ["kernels.dispatch.%s.%s" % (op, tier)
            for op in ("spmm_csr", "spmm_coo")
            for tier in ("scalar", "avx2", "avx512")]
SERVE_COUNTS = ["serve.hits", "serve.misses", "serve.deltas",
                "serve.value_patches", "serve.shed", "serve.degraded",
                "serve.timeout"]
# Span-derived times: metric -> (span names, whether only spans inside
# timed ops count).  Each is the median over calls (or over ops when the
# spans are summed per op).
SPAN_TIMES = {
    "core.calibrate_ms": (["core.calibrate"], False),
    "sparse.mtx_read_ms": (["sparse.mtx_read"], False),
    "sparse.htb_map_ms": (["sparse.htb_map", "sparse.htb_unmap"], True),
    "verify.reference_ms": (["verify.reference"], False),
    "serve.client_ms.hit": (["serve.hit"], True),
    "serve.client_ms.miss": (["serve.miss"], True),
    "serve.client_ms.write": (["serve.write"], True),
    "serve.client_ms.session_run": (["serve.session_run"], True),
    "serve.fingerprint_ms": (["serve.fingerprint"], False),
}
PER_OP_SPANS = {"sparse.htb_map_ms"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def percentile(values, q):
    """Linear-interpolated percentile of @p values at quantile @p q."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_checked(cmd, timeout, what):
    """Run @p cmd, echo its output to stderr, raise on failure."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s timed out after %d s" % (what, timeout))
    out = p.stdout.decode(errors="replace")
    if p.returncode != 0:
        log(out[-4000:])
        raise RuntimeError("%s failed (exit %d)" % (what, p.returncode))
    return out


def build(bdir):
    """Configure (once) and build the harness; returns the binary."""
    cmake_dir = os.path.join(bdir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], 300, "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", cmake_dir, "-j", jobs], 840,
                "cmake build")
    return os.path.join(cmake_dir, "perfbench")


def source_digest():
    """Digest of every file the harness is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=30)
        return p.stdout.decode().strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(binary, work, workload, seed, seconds, traced):
    """One workload process; returns (result dict, spans list or None)."""
    tag = "traced" if traced else "plain"
    out = os.path.join(work, "result-%s.json" % tag)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--fixtures", os.path.join(work, "fx"),
           "--out", out]
    spans_path = os.path.join(work, "spans.json")
    if traced:
        cmd += ["--spans", spans_path]
    run_checked(cmd, 170, "%s run of %s" % (tag, workload))
    with open(out) as f:
        result = json.load(f)
    spans = None
    if traced:
        with open(spans_path) as f:
            spans = json.load(f)
    return result, spans


def end_to_end(workload, r):
    ops = r["op_ms"]
    ok = r["attempted"] - r["failed"]
    return {
        "setup_s": (median(r["setup_s"]), "s"),
        "success_rate": (ok / r["attempted"] if r["attempted"] else 0.0,
                         "frac"),
        "op_ms.p50": (median(ops), "ms"),
        "op_ms.tail": (percentile(ops, TAIL_Q[workload]), "ms"),
        "ops_per_s": (ok / r["timed_wall_s"] if r["timed_wall_s"] else 0.0,
                      "1/s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MiB"),
    }


def per_layer(r, spans, overhead_ms):
    """Per-layer metrics of a traced run, derived from its spans and the
    library reports it sampled."""
    m = {}
    s = r["samples"]
    c = r["counts"]
    by_name = {}
    for sid, name, t0, t1, parent, op, _thread in spans:
        by_name.setdefault(name, []).append((t1 - t0, op))
    for metric, (names, in_ops) in SPAN_TIMES.items():
        durs = [(d, op) for n in names for d, op in by_name.get(n, [])
                if op != 0 or not in_ops]
        if metric in PER_OP_SPANS:
            per_op = {}
            for d, op in durs:
                per_op[op] = per_op.get(op, 0.0) + d
            vals = list(per_op.values())
        else:
            vals = [d for d, _ in durs]
        m[metric] = (median(vals) * 1e3, "ms")
    for name in CORE_SAMPLES:
        m[name] = (median(s.get(name, [])), "ms")
    for key in PLAN_KEYS:
        for metric, unit in PLAN_SAMPLES:
            m["exec.%s.%s" % (metric, key)] = (
                median(s.get("exec.%s.%s" % (metric, key), [])), unit)
        for metric, unit in PLAN_COUNTS:
            m["exec.%s.%s" % (metric, key)] = (
                float(c.get("exec.%s.%s" % (metric, key), 0)), unit)
    for name in DISPATCH:
        m[name] = (median(s.get(name.replace("kernels.", "kernel.", 1), [])),
                   "count")
    for name in ("serve.service_ms", "serve.wait_ms"):
        m[name] = (median(s.get(name, [])), "ms")
    for name in SERVE_COUNTS:
        m[name] = (sum(s.get(name, [])), "count")
    hits, misses = m["serve.hits"][0], m["serve.misses"][0]
    m["serve.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "frac")

    # Unattributed: op wall time not covered by the op's direct children.
    children = {}
    ops = []
    for sid, name, t0, t1, parent, op, _thread in spans:
        if name == "op":
            ops.append((sid, t1 - t0))
        else:
            children[parent] = children.get(parent, 0.0) + (t1 - t0)
    m["unattributed_ms"] = (
        median([d - children.get(sid, 0.0) for sid, d in ops]) * 1e3, "ms")
    m["tracing_overhead_ms"] = (overhead_ms, "ms")
    return m


def check_counts(workload, digest, counts, bdir):
    """Exact counts must repeat between runs of the same code: compare
    with the first run of this source digest, which is kept."""
    path = os.path.join(bdir, "counts", "%s-%s.json" % (workload, digest))
    if os.path.exists(path):
        with open(path) as f:
            first = json.load(f)
        diff = sorted(k for k in set(first) | set(counts)
                      if first.get(k) != counts.get(k))
        return ["exact count %s: %s in the first run, %s now"
                % (k, first.get(k), counts.get(k)) for k in diff[:10]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(counts, f, indent=0, sort_keys=True)
    os.replace(path + ".tmp", path)
    return []


def describe(r, workload, digest):
    host = r["host"]
    log("host: %s, %d CPUs, LLC %.0f MiB, SIMD tier %s, pool threads %d, "
        "%s build, git %s, source digest %s"
        % (host["cpu"], host["nproc"], host["llc_bytes"] / 2**20,
           host["simd_tier"], host["pool_threads"], host["build_type"],
           git_sha(), digest))
    llc = host["llc_bytes"]
    for i in r["inputs"]:
        log("input %-18s rows %7d nnz %8d K %2d working set %6.1f MiB%s"
            % (i["name"], i["rows"], i["nnz"], i["k"],
               i["working_set_bytes"] / 2**20,
               "" if not llc else " (%s LLC)" % (
                   "fits in" if i["working_set_bytes"] <= llc
                   else "EXCEEDS")))
    kinds = {}
    for k, v in zip(r["op_kind"], r["op_ms"]):
        kinds.setdefault(k, []).append(v)
    for k in sorted(kinds):
        v = kinds[k]
        log("ops %-22s n %5d p50 %8.3f ms  min %8.3f  max %8.3f"
            % (k, len(v), median(v), min(v), max(v)))
    if any(r["samples"].get("serve.capped_clients", [])):
        log("note: a client reached its cap of precomputed miss references;"
            " the timed window ended early")
    n = len(r["op_ms"])
    q = TAIL_Q[workload]
    log("%d ops, tail = p%g with %d ops above it"
        % (n, q * 100, n - int(q * (n - 1)) - 1))


def single_run(args):
    bdir = build_dir()
    # Compiler and library temporaries stay inside the checkout too.
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    binary = build(bdir)
    digest = source_digest()
    work = os.path.join(bdir, "runs", "%s-%d-%d"
                        % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "fx"))
    try:
        run_checked([binary, "fixtures", "--workload", args.workload,
                     "--seed", str(args.seed), "--dir",
                     os.path.join(work, "fx")], 170, "fixture generation")
        plain, _ = run_workload(binary, work, args.workload, args.seed,
                                args.seconds, False)
        problems = list(plain["failures"])
        describe(plain, args.workload, digest)
        if args.trace:
            traced, spans = run_workload(binary, work, args.workload,
                                         args.seed, args.seconds, True)
            problems += traced["failures"]
            if traced["counts"] != plain["counts"]:
                problems.append("exact counts differ between the traced "
                                "and the untraced run")
            overhead = (median(traced["op_ms"]) - median(plain["op_ms"]))
            metrics = per_layer(traced, spans, overhead)
            keep = os.path.join(bdir, "traces")
            os.makedirs(keep, exist_ok=True)
            shutil.copy(os.path.join(work, "spans.json"),
                        os.path.join(keep, "%s-%d-spans.json"
                                     % (args.workload, args.seed)))
            for k in sorted(metrics):
                log("layer %-40s %14.4f %s" % (k, metrics[k][0],
                                               metrics[k][1]))
        else:
            metrics = end_to_end(args.workload, plain)
        problems += check_counts(args.workload, digest, plain["counts"],
                                 bdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        log("FAILED: " + p)
    correct = not problems and plain["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


def steadiness(args):
    """Repeat one workload and report the spread of each metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for i in range(args.steadiness):
        seed = args.seed + i
        t0 = time.time()
        p = subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", args.workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           cwd=ROOT, stdout=subprocess.PIPE, timeout=1000)
        lines = p.stdout.decode().strip().splitlines()
        if not lines:
            log("run %d seed %d: exit %d without a result"
                % (i + 1, seed, p.returncode))
            return 1
        res = json.loads(lines[-1])
        log("run %d seed %d: exit %d, %.0f s, %s" % (
            i + 1, seed, p.returncode, time.time() - t0,
            " ".join("%s=%.4g" % (k, v["value"])
                     for k, v in res["metrics"].items())))
        if p.returncode != 0:
            return 1
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print("%-14s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    for k in sorted(values):
        v = values[k]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (
            v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        print("%-14s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%"
              % (k, med, q1, q3, 100 * spread, 100 * bounds.get(k, 0)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="R",
                    help="repeat the workload R times (seeds seed..seed+R-1)"
                         " and report the spread of each metric")
    args = ap.parse_args()
    if args.steadiness:
        return steadiness(args)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        return single_run(args)
    except (RuntimeError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
