"""floodnet benchmark: runs one workload in this process and prints its
metrics, ending with one JSON line.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (setup_s, samples_per_s,
op_ms_p50, peak_rss_mb) plus the per-workload figures under their own
names.  --trace 1 sets up, runs the workload untraced for a quarter of
the time, then traced for half of it, and prints the per-layer metrics;
the span dump goes to .perfbench_out/.  See perfbench/README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# pinned before numpy is imported here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (  # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("samples_per_s", "samples/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
# setup_s is the median over this many fresh processes, in raw wall time.
# It is not host-scaled: the kernel does not track what slows a set-up, and
# each way of scaling it that was measured spread more (see README).  More
# set-ups do not fit the time budget of a full round of runs.
SETUPS = 4
# Fewest operations a timed loop runs, whatever --seconds says.  Inference
# needs 100 of each kind so that ten samples lie beyond its p90.
MIN_OPS = {"step": 3, "classify": 100, "explain": 100}
LOOP_CAP_S = 90.0  # a loop stops here even short of MIN_OPS, to exit in time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny config, one operation of each kind, one set-up")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_setup(args) -> dict:
    """Times one set-up in a fresh process (imports included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args, np) -> dict:
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by numpy version
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_loop(wl, seconds, min_ops, cap_s, tracer=None):
    """Closed loop: the next request starts when the previous returns.
    The host-speed kernel runs before each request and after the last.
    Returns raw and host-scaled latencies per kind, success counts and
    error messages."""
    lat = {k: [] for k in wl.kinds}
    scaled = {k: [] for k in wl.kinds}
    ok = dict.fromkeys(wl.kinds, 0)
    errors = []
    start = time.perf_counter()
    before = hostspeed.sample()
    while True:
        if tracer is None:
            results = wl.request()
        else:
            with tracer.op(wl.n_requests):
                results = wl.request()
                tracer.finish_op("+".join(r[0] for r in results), sum(r[1] for r in results))
        after = hostspeed.sample()
        f, before = hostspeed.factor(before, after), after
        for kind, dt, err in results:
            lat[kind].append(dt)
            scaled[kind].append(dt * f)
            if err:
                errors.append(err)
            else:
                ok[kind] += 1
        elapsed = time.perf_counter() - start
        enough = all(len(lat[k]) >= min_ops.get(k, 1) for k in wl.kinds)
        if wl.at_boundary() and (elapsed >= cap_s or (elapsed >= seconds and enough)):
            return lat, scaled, ok, errors


def end_to_end(wl, lat, scaled, ok, setups):
    """The gated metrics (throughput and latency host-scaled, set-up raw),
    plus the per-workload figures in raw wall time under their own names.
    Throughput counts successful operations over the time spent in
    operations."""
    pct = lambda xs, q: float(statistics.quantiles(xs, n=100, method="inclusive")[q - 1]) \
        if len(xs) > 1 else xs[0]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = lambda d: sum(map(sum, d.values()))
    if "step" in lat:
        done, op = wl.batch * ok["step"], "step"
        named = [("train_samples_per_s", done / busy(lat), "samples/s", ""),
                 ("train_step_s_p50", statistics.median(lat["step"]), "s",
                  f"  (n={len(lat['step'])} steps)")]
    else:
        done, op = ok["classify"], "classify"
        cls, exp = lat["classify"], lat["explain"]
        named = [("eval_ms_p50", statistics.median(cls) * 1e3, "ms", f"  (n={len(cls)})"),
                 ("eval_ms_p90", pct(cls, 90) * 1e3, "ms", f"  (n={len(cls)})"),
                 ("explain_ms_p50", statistics.median(exp) * 1e3, "ms", f"  (n={len(exp)})"),
                 ("explain_ms_p90", pct(exp, 90) * 1e3, "ms", f"  (n={len(exp)})")]
    setup_s = statistics.median(setups)
    named = [("setup_s", setup_s, "s", f"  (median of {len(setups)} set-ups)")] + named \
        + [("peak_rss_mb", peak, "MiB", "")]
    gated = {"setup_s": setup_s,
             "samples_per_s": done / busy(scaled),
             "op_ms_p50": statistics.median(scaled[op]) * 1e3, "peak_rss_mb": peak}
    return gated, named


def measure_untraced(args, wl, setups):
    """The timed loop with the program unwrapped: end-to-end metrics."""
    min_ops = dict.fromkeys(MIN_OPS, 1) if args.smoke else MIN_OPS
    lat, scaled, ok, errors = run_loop(wl, args.seconds, min_ops, LOOP_CAP_S)
    gated, named = end_to_end(wl, lat, scaled, ok, setups)
    metrics = {n: {"value": gated[n], "unit": u} for n, u, _ in END_TO_END}
    ratio = sum(map(sum, scaled.values())) / sum(map(sum, lat.values()))
    notes = [f"samples_per_s and op_ms_p50 are host-scaled (perfbench/hostspeed.py); "
             f"scaled/raw = {ratio:.4g}; setup_s is raw wall time"]
    return lat, errors, named, metrics, notes


def measure_traced(args, wl, tracer):
    """A quarter of the time untraced, then half traced: per-layer metrics."""
    from tracer import COMPUTED_COUNTS, PER_LAYER

    min_ops = dict.fromkeys(MIN_OPS, 1 if args.smoke else 2)
    base, base_scaled, _, errors = run_loop(wl, args.seconds / 4, min_ops, LOOP_CAP_S / 3)
    with tracer.patched():
        lat, scaled, _, more = run_loop(wl, args.seconds / 2, min_ops, LOOP_CAP_S / 2, tracer)
    # traced host-scaled time over what the same operations take untraced
    expected = sum(len(scaled[k]) * statistics.mean(base_scaled[k]) for k in scaled)
    layer = tracer.metrics(sum(map(sum, scaled.values())) / expected)
    named = [(n, layer[n], u, "") for n, u, _ in PER_LAYER]
    metrics = {n: {"value": v, "unit": u} for n, v, u, _ in named}
    notes = ["computed from array shapes, not timed: " + ", ".join(COMPUTED_COUNTS)]
    for k in lat:
        lat[k] += base[k]
    return lat, errors + more, named, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "floodnet" / "__init__.py").is_file():
        print(f"error: no floodnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import floodnet
    from workloads import HEATMAP_MIN_MARGIN, REF_RTOL, WORKLOADS, CheckFailed, make_workload
    from tracer import Tracer

    if Path(floodnet.__file__).resolve().parent != SRC / "floodnet":
        print(f"error: imported floodnet from {floodnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    children_s, children = 0.0, []
    if not (args.setup_only or args.trace or args.smoke):
        t = time.perf_counter()
        children = [child_setup(args) for _ in range(SETUPS - 1)]
        children_s = time.perf_counter() - t

    OUT_DIR.mkdir(exist_ok=True)
    wl = make_workload(args.workload, args.seed, args.smoke, str(OUT_DIR))
    tracer = Tracer() if args.trace else None
    scope = contextlib.ExitStack()
    if tracer:
        scope.enter_context(tracer.patched())
        scope.enter_context(tracer.op("setup"))
    try:
        with scope:
            results = wl.setup()
    except CheckFailed as exc:
        print(f"error: set-up output check failed: {exc}", file=sys.stderr)
        return 1
    setup = time.perf_counter() - _T0 - children_s
    errors = [r[2] for r in results if r[2]]
    if args.setup_only:
        print(json.dumps({"setup": setup, "attempted": len(results), "errors": errors}))
        return 0

    attempted = len(results) + sum(c["attempted"] for c in children)
    errors += [e for c in children for e in c["errors"]]
    if tracer is None:
        lat, errs, named, metrics, notes = measure_untraced(
            args, wl, [setup] + [c["setup"] for c in children])
        check_errors = [wl.teardown()]
    else:
        lat, errs, named, metrics, notes = measure_traced(args, wl, tracer)
        with tracer.patched(), tracer.op("teardown"):
            check_errors = [wl.teardown()]
        if not tracer.counts_repeat():
            check_errors.append("computed counts differ between operations of one kind")
    check_errors = [e for e in check_errors if e]  # failed checks that are not operations
    errors += errs
    attempted += sum(len(v) for v in lat.values())
    failed = len(errors)

    env = environment(args, np)
    if wl.refs is None:
        notes.append(f"no reference outputs for seed {args.seed}: finiteness, shape and "
                     "range checks only")
    else:
        notes.append(f"{wl.ref_checked} outputs compared with the seed's reference "
                     f"(relative tolerance {REF_RTOL:g})")
        if wl.ref_skipped:
            notes.append(f"{wl.ref_skipped} heatmap sums not compared: the map's peak is within "
                         f"{HEATMAP_MIN_MARGIN:g} of its terms' magnitude, so rounding decides it")
    print("env " + json.dumps(env))
    for note in notes:
        print("note: " + note)
    for msg in errors[:5] + check_errors:
        print("failure: " + msg, file=sys.stderr)
    for name, value, unit, extra in named:
        print(f"{name} {value:.6g} {unit}{extra}")
    print(f"error_rate {failed / attempted:.6g} ratio  ({failed}/{attempted} operations)")
    if tracer:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), env, {n: v for n, v, _, _ in named})
        print(f"trace written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and not check_errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
