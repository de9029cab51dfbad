"""Writes the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py --workload train_full --seeds 0-15

Train workloads record the loss of the first LOSS_REF_STEPS steps (the
set-up's warm-up step is step 0); infer_explain records the probability
and the heatmap sum of every held-out sample, and how far each heatmap is
from hanging on rounding (see HEATMAP_MIN_MARGIN in workloads.py).  Run it
on the commit whose outputs are the reference; existing entries for other
seeds are kept.
"""

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import json  # noqa: E402

from workloads import LOSS_REF_STEPS, REFS_DIR, WORKLOADS, make_workload  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def references(workload: str, seed: int, scratch: str) -> dict:
    wl = make_workload(workload, seed, False, scratch)
    wl.refs = None
    wl.setup()
    if workload != "infer_explain":
        while len(wl.losses) < LOSS_REF_STEPS:
            wl.request()
        return {"losses": wl.losses}
    probs, sums, margins = [], [], []
    for sample in wl.held_out:
        probs.append(wl.classify(sample))
        sums.append(float(wl.explain(sample).sum()))
        margins.append(wl.cam_margin(sample))
    return {"probs": probs, "heatmap_sums": sums, "heatmap_margins": margins}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-11")
    args = p.parse_args()
    path = REFS_DIR / f"{args.workload}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    scratch = str(Path(__file__).resolve().parent.parent / ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    for seed in args.seeds:
        t0 = time.perf_counter()
        refs[str(seed)] = references(args.workload, seed, scratch)
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s", flush=True)
    REFS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
