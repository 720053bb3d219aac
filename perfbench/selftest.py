#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Each workload runs at a tiny budget, traced and untraced. Each run must be
   correct and must print exactly the metrics BENCHMARK.json names, with their
   units.
2. Curves and artifacts are corrupted on purpose, and every check must report
   a failure.
3. In a directory that holds only BENCHMARK.json and perfbench/, the benchmark
   must exit non-zero without printing a result.

Exits 0 when every expectation holds. Otherwise it lists the problems and exits 1.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.01", "--trace", str(trace), "--scale", "50"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = _bench(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{what}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != want:
                problems.append(f"{what}: metrics differ from {section}: "
                                f"missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, "
                                f"units {[n for n in want.keys() & got.keys() if want[n] != got[n]]}")
            for name, entry in result["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{what}: {name} = {value!r}")
                elif section == "end_to_end" and value <= 0:
                    problems.append(f"{what}: end-to-end metric {name} = {value!r}")


def _rewrite_coverage(csv: Path, change) -> None:
    lines = csv.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        if line.startswith("#"):
            out.append(line)
            continue
        alpha, *cov = line.split(",")
        out.append(",".join([alpha] + [repr(change(float(alpha), float(c), j)) for j, c in enumerate(cov)]))
    csv.write_text("\n".join(out) + "\n")


def _expect(problems: list[str], what: str, reason, should_fail: bool) -> None:
    if should_fail and reason is None:
        problems.append(f"corruption not caught: {what}")
    if not should_fail and reason is not None:
        problems.append(f"clean output rejected: {what}: {reason}")


def check_corruption(problems: list[str], tmp: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import checks
    from singh_audit import SinghBand, exact_singh_curve, parse_scenario, reg_inc_beta, runner

    def run(doc: str):
        scenario = parse_scenario(doc + "m = 4000\nseed = 11\noutputs = csv\n")
        return scenario, runner.run_scenario(scenario, tmp)[0]

    for doc in ("structure = jeffreys\ntarget = bernoulli\ntheta0 = 0.3\nn = 10\n",
                "structure = clopper_pearson\ntarget = bernoulli\ntheta0 = 0.3\nn = 20\n",
                "structure = chebyshev_ucl\ntarget = scaled_bernoulli\np = 0.2\nmean = 2\nn = 30\n"):
        scenario, csv = run(doc)
        exact = exact_singh_curve(scenario.structure, scenario.target, scenario.n)
        kind = scenario.structure.kind
        _expect(problems, f"{kind} vs exact", checks.against_exact(csv, exact, scenario.m), False)
        # Move only the last coverage column: a band's upper curve, or the one curve.
        last = len(checks.read_curve_csv(csv)[1]) - 1
        _rewrite_coverage(csv, lambda a, c, j: max(c - 0.1, 0.0) if j == last else c)
        _expect(problems, f"{kind} curve shifted by 0.1", checks.against_exact(csv, exact, scenario.m), True)

    scenario, csv = run("structure = student_t_pivot\ntarget = normal\nmu = 4\nsigma = 3\nn = 10\n")
    _expect(problems, "t pivot vs diagonal", checks.uniform(csv, scenario.m), False)
    _rewrite_coverage(csv, lambda a, c, j: c ** 1.3)
    _expect(problems, "t pivot curve bent", checks.uniform(csv, scenario.m), True)

    first = checks.digest_files([csv])
    data = bytearray(csv.read_bytes())
    data[len(data) // 2] ^= 0x01
    csv.write_bytes(bytes(data))
    _expect(problems, "artifact with one flipped bit", checks.same_digest(first, checks.digest_files([csv])), True)

    scenario = parse_scenario("structure = clopper_pearson\ntarget = bernoulli\ntheta0 = 0.3\nn = 250\n")
    band = exact_singh_curve(scenario.structure, scenario.target, scenario.n)
    _expect(problems, "exact c-box straddles", checks.straddles(band, lower=True, upper=True), False)
    swapped = SinghBand(band.upper_curve, band.lower_curve)
    _expect(problems, "exact c-box with swapped curves", checks.straddles(swapped, lower=True, upper=False), True)

    points = checks.beta_spot_points(np.random.default_rng(5), count=40)
    ours = [reg_inc_beta(x, a, b) for x, a, b in points]
    _expect(problems, "reg_inc_beta vs scipy", checks.reg_inc_beta_vs_scipy(points, ours), False)
    ours[7] += 1e-9
    _expect(problems, "reg_inc_beta off by 1e-9", checks.reg_inc_beta_vs_scipy(points, ours), True)


def check_bare_directory(problems: list[str], tmp: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp, "continuous_mc", 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or '"metrics"' in last:
        problems.append(f"bare directory: exit {proc.returncode}, last line {last[:80]!r}")


def main() -> int:
    problems: list[str] = []
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE))
    check_metrics(problems)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        check_corruption(problems, Path(tmp))
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        check_bare_directory(problems, Path(tmp))
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
