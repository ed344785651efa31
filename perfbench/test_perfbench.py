"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import ROOT, check_episode, import_cbtk, percentile

import_cbtk()
import cbtk  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7  # not a golden seed: the oracles alone must catch a corrupted output


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace and not workload.startswith("campaign"):
        assert result["metrics"]["gfp.rank.calls"]["value"] == 0
    if not trace:
        record = json.loads(proc.stdout.splitlines()[-2].split(":", 1)[1])
        slowness, raw = record["host_slowness"], record["unscaled"]
        assert result["metrics"]["items_per_s"]["value"] == pytest.approx(raw["items_per_s"] * slowness)
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(raw["setup_s"] / slowness)


CORRUPT = {
    "threshold-sweep": lambda r: dataclasses.replace(r, threshold=r.threshold + 1),
    "hilbert-tables": lambda t: cbtk.HilbertTable(t.values[:-1] + (t.values[-1] + 1,)),
    "campaign-small": lambda r: dataclasses.replace(r, passed=0, failed=1),
    "campaign-large": lambda r: dataclasses.replace(r, passed=0, failed=1),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_counts_a_corrupted_output(name):
    w = WORKLOADS[name]
    items = w.episode(SEED, 0)[:12]
    outputs = [w.call(item) for item in items]
    errors = [None] * len(items)
    assert check_episode(w, SEED, 0, items, outputs, errors) == (set(), None)
    # hilbert-tables checks random quotients only by sampled enumeration,
    # so corrupt an lpp table, which every episode checks in full.
    bad = next(i for i, item in enumerate(items) if name != "hilbert-tables" or item[0] == "lpp")
    outputs[bad] = CORRUPT[name](outputs[bad])
    assert check_episode(w, SEED, 0, items, outputs, errors) == ({bad}, None)


def test_percentile_is_nearest_rank():
    assert percentile([float(x) for x in range(100, 0, -1)], 90) == (90.0, 10)
    assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 1)


def test_tracer_wraps_every_binding_and_restores():
    from cbtk import monomials, verify
    original = monomials.hilbert_function
    with Tracer() as tracer:
        assert verify.hilbert_function is monomials.hilbert_function is not original
        cbtk.run_campaign(cbtk.CampaignConfig((2, 2, 2), 2, 3, 101, trials=1, seed=1))
    assert verify.hilbert_function is original
    m = tracer.spans.metrics()
    assert m["verify.campaign.self_s"][0] > 0
    assert m["gfp.rank.calls"][0] == m["gfp.assembly.calls"][0] > 0
    assert m["verify.certify.attempts"][0] == 2 and m["verify.certify.yield"][0] == 0.5
    assert (tracer.spans.self_times() >= 0).all()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(tmp_path, "campaign-small", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
