"""Self-checks for the benchmark, each running `BENCHMARK.json`'s command.

    python3 perfbench/selfcheck.py smoke
    python3 perfbench/selfcheck.py repeat --workload train_full --seeds 100-109 \
        [--trace 1] [--record perfbench/baseline.json]

smoke: every workload, traced and untraced, for one operation of each kind
on a tiny config; asserts the result line's keys, every metric named in
BENCHMARK.json with its unit, and the per-workload figures printed under
their own names.  It also runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's files, where it must fail without a
result.

repeat: one fresh run per seed; prints the median, quartiles and spread
(interquartile distance over median) of every metric, next to a third of
its bound.  With --trace 1 it checks that the computed counts repeat
exactly from run to run.  --record merges the summary (medians, with
quartiles and spread when untraced) into a JSON file such as baseline.json.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {  # per-workload figures, under the names users know them by
    "train": ("setup_s", "train_samples_per_s", "train_step_s_p50", "peak_rss_mb", "error_rate"),
    "infer": ("setup_s", "eval_ms_p50", "eval_ms_p90", "explain_ms_p50", "explain_ms_p90",
              "peak_rss_mb", "error_rate"),
}


def run(workload, seed, trace, extra=(), cwd=ROOT, seconds=None):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"] if seconds is None else seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def parse_result(proc, lines) -> dict:
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result, specs, label):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        raise AssertionError(f"{label}: metrics differ: missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{label}: {name} = {got[name]}, want a finite number in {unit}")


def smoke(_args) -> int:
    for w in BENCH["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} --trace {trace}"
            proc, lines = run(name, 0, trace, ["--smoke"], seconds=0)
            result = parse_result(proc, lines)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{label}: {lines[-1]}\n{proc.stderr}")
            check_metrics(result, BENCH[key], label)
            printed = {ln.split()[0] for ln in lines[:-1] if ln.split()}
            if trace == 0:
                named = NAMED["infer" if name.startswith("infer") else "train"]
                missing = [n for n in named if n not in printed]
                if missing:
                    raise AssertionError(f"{label}: not printed: {missing}")
            print(f"ok  {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run(BENCH["workloads"][0]["name"], 0, 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or any(ln.startswith("{") for ln in lines):
        raise AssertionError("benchmark succeeded without the program's sources")
    print(f"ok  without the program: exit {proc.returncode}, no result")
    return 0


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def repeat(args) -> int:
    key = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in BENCH[key]}
    values = {n: [] for n in specs}
    attempted = failed = 0
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc, lines = run(args.workload, seed, args.trace)
        run_s = time.perf_counter() - t0
        result = parse_result(proc, lines)
        env = json.loads(next(ln[4:] for ln in lines if ln.startswith("env ")))
        check_metrics(result, BENCH[key], f"seed {seed}")
        attempted += result["attempted"]
        failed += result["failed"]
        for n in specs:
            values[n].append(result["metrics"][n]["value"])
        shown = ", ".join(f"{n}={values[n][-1]:.6g}" for n in list(specs)[:6])
        print(f"seed {seed} ({run_s:.0f} s): correct={result['correct']} {shown}", flush=True)
    print(f"\n{args.workload}: {len(args.seeds)} runs, {failed}/{attempted} operations failed")
    status = 0
    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import COMPUTED_COUNTS
        for n in COMPUTED_COUNTS:
            if len(set(values[n])) != 1:
                print(f"NOT REPEATED  {n}: {sorted(set(values[n]))}")
                status = 1
        print(f"computed counts {'differ' if status else 'repeat exactly'} across runs")
        summary = {n: statistics.median(v) for n, v in values.items()}
    else:
        print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound/3':>9}")
        summary = {}
        for n, spec in specs.items():
            q1, med, q3 = statistics.quantiles(values[n], n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < spec["bound"] / 3 else "  <- too wide"
            status |= bool(flag)
            summary[n] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{n:<16}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}"
                  f"{spec['bound'] / 3:>9.4f}{flag}")
    if args.record:
        path = Path(args.record)
        book = json.loads(path.read_text()) if path.is_file() else {}
        env = {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")}
        book.setdefault(args.workload, {})[key] = {
            "seeds": args.seeds, "failed": failed, "attempted": attempted,
            "env": env, "metrics": summary}
        path.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    sub.add_parser("smoke").set_defaults(fn=smoke)
    r = sub.add_parser("repeat")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", type=seed_range, default=seed_range("100-109"))
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--record", help="merge the summary into this JSON file")
    r.set_defaults(fn=repeat)
    args = p.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
