"""Smoke tests: every helper script under scripts/ runs to completion."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("derive_reference_values.py", []),
    ("oracle_gap_study.py", []),
    ("run_all_presets.py", ["--replicates", "200", "--out", "{tmp}"]),
], ids=["derive_reference_values", "oracle_gap_study", "run_all_presets"])
def test_script_exits_cleanly(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failed, status", [
    ({}, 0),
    ({("change", "exact_oracle", 2): 3}, 1),
    ({("parent", "continuous_mc", 1): 1, ("change", "bernoulli_mc", 2): 2}, 1),
], ids=["none", "change_exact_oracle", "both_checkouts"])
def test_bench_exits_non_zero_on_a_failed_audit(tmp_path, monkeypatch, capsys, failed, status):
    # perfbench is not run: each repeat records zero metrics and the
    # failed-audit counts above, keyed by (checkout, workload, repeat).
    bench = _bench_module()

    def fake_measure(checkout, args, runs):
        label = "change" if checkout == bench.ROOT else "parent"
        repeat = len(runs.get("presets_s", [])) + 1
        for workload in bench.WORKLOADS:
            runs.setdefault(f"{workload}.datasets_per_s", []).append(1.0)
            runs.setdefault(f"{workload}.failed", []).append(failed.get((label, workload, repeat), 0))
        runs.setdefault("presets_s", []).append(1.0)

    monkeypatch.setattr(bench, "measure", fake_measure)
    out = tmp_path / "bench.json"
    args = ["--out", str(out), "--repeats", "2", "--no-tier1", "--against", str(tmp_path)]
    assert bench.main(args) == status
    report = json.loads(out.read_text())
    assert report["change"]["exact_oracle.failed"] == [failed.get(("change", "exact_oracle", r), 0) for r in (1, 2)]
    lines = [line for line in capsys.readouterr().err.splitlines() if "FAILED" in line]
    assert len(lines) == len(failed)
    for (label, workload, repeat), count in failed.items():
        checkout = bench.ROOT if label == "change" else tmp_path.resolve()
        assert f"bench: FAILED {label} ({checkout}), {workload}, repeat {repeat}: {count} failed audit(s)" in lines
