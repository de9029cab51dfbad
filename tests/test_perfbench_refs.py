"""Seed 0 of every benchmark workload must reproduce `perfbench/refs/`.

The benchmark compares its outputs with the committed references, but only
when it runs; this check runs each workload's own set-up and checks under
the suite, so a change that moves an output fails here first.  Heatmap
margins are not compared: `InferWorkload.cam_margin` reads 0 on working
code, so a fresh margin says nothing about the committed one.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_passed(results):
    failed = [err for _, _, err in results if err is not None]
    assert not failed, failed


@pytest.mark.parametrize("name", ["train_full", "train_no_cctfrm"])
def test_train_losses_match_the_references(name, tmp_path):
    wl_mod = _load_workloads()
    wl = wl_mod.make_workload(name, 0, False, str(tmp_path))
    assert len(wl.refs["losses"]) >= wl_mod.LOSS_REF_STEPS
    _assert_passed(wl.setup())
    while len(wl.losses) < wl_mod.LOSS_REF_STEPS:
        _assert_passed(wl.request())
    assert wl.ref_checked == wl_mod.LOSS_REF_STEPS


def test_held_out_probabilities_and_heatmaps_match_the_references(tmp_path):
    wl_mod = _load_workloads()
    wl = wl_mod.make_workload("infer_explain", 0, False, str(tmp_path))
    _assert_passed(wl.setup())
    n = len(wl.held_out)
    assert len(wl.refs["probs"]) == len(wl.refs["heatmap_sums"]) == n
    wl.ref_checked = wl.ref_skipped = 0
    for j, sample in enumerate(wl.held_out):
        wl._check_prob(j, wl.classify(sample))
        wl._check_heatmap(j, wl.explain(sample))
    assert wl.ref_skipped < n
    assert wl.ref_checked == 2 * n - wl.ref_skipped
