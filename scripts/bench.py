"""Benchmark a checkout end to end and write the medians to a JSON file.

Run from the repository root:

    python3 scripts/bench.py --out BENCH_<pr>.json [--against OTHER_CHECKOUT]

Each repeat runs, in a fresh process per step:

- ``perfbench/run.py --trace 0`` for every workload, whose result is read
  from ``.perfbench_out/result-*.json`` in the checkout;
- ``scripts/run_all_presets.py`` at its full replicate budget, timed on the
  wall clock;
- the Tier-1 suite (``python -m pytest -q --continue-on-collection-errors``),
  timed on the wall clock, unless ``--no-tier1`` is given.

Every metric gets its median and quartiles over the repeats, and the file
records the machine and the commit. With ``--against`` a second checkout
(a clone of the parent commit, say) runs every repeat too, in pairs whose
order alternates, and each metric also gets how many pairs this checkout
won, the ratio of the medians and the other checkout's interquartile
range. A short smoke run is ``--repeats 1 --seconds 2 --no-tier1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("continuous_mc", "bernoulli_mc", "exact_oracle")
SEED = 5
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def _env(checkout: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def _run(checkout: Path, args: list[str]) -> tuple[float, str]:
    """Wall seconds and stdout of one Python process in ``checkout``; raises on failure."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=checkout, env=_env(checkout),
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return elapsed, done.stdout


def perfbench(checkout: Path, workload: str, seconds: float) -> dict:
    """End-to-end metrics and failed-audit count of one perfbench run."""
    _run(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", "0"])
    path = checkout / ".perfbench_out" / f"result-{workload}-seed{SEED}-trace0.json"
    result = json.loads(path.read_text())["result"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    return metrics


def presets_s(checkout: Path) -> float:
    with tempfile.TemporaryDirectory() as out:
        return _run(checkout, ["scripts/run_all_presets.py", "--out", out])[0]


def tier1(checkout: Path) -> tuple[float, str]:
    """Wall seconds of the Tier-1 suite and its summary line."""
    elapsed, stdout = _run(checkout, list(TIER1))
    return elapsed, stdout.strip().splitlines()[-1]


def commit(checkout: Path) -> str:
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and every value, in run order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def measure(checkout: Path, args, runs: dict) -> None:
    """One repeat of every step in ``checkout``, appended to ``runs``."""
    for workload in WORKLOADS:
        for name, value in perfbench(checkout, workload, args.seconds).items():
            runs.setdefault(f"{workload}.{name}", []).append(value)
    runs.setdefault("presets_s", []).append(presets_s(checkout))
    if args.tier1:
        elapsed, line = tier1(checkout)
        runs.setdefault("tier1_s", []).append(elapsed)
        runs.setdefault("tier1_summary", []).append(line)


def lower_is_better(name: str) -> bool:
    return not name.endswith("datasets_per_s")


def pairs(change: dict, parent: dict) -> dict:
    """Per metric: pairs this checkout won, and the parent's interquartile range."""
    out = {}
    for name, mine in change.items():
        if name.endswith(("failed", "summary")):
            continue
        theirs = parent[name]
        wins = sum((m < t) if lower_is_better(name) else (m > t) for m, t in zip(mine, theirs))
        base = summary(theirs)
        out[name] = {
            "wins": wins,
            "pairs": len(mine),
            "median_ratio": statistics.median(mine) / base["median"],
            "parent_iqr": base["q3"] - base["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0, help="seconds per perfbench run")
    parser.add_argument("--against", type=Path, help="second checkout, measured in alternating pairs")
    parser.add_argument("--no-tier1", dest="tier1", action="store_false", help="do not time Tier-1")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats must be at least 1 and --seconds positive")

    checkouts = {"change": ROOT}
    if args.against is not None:
        checkouts["parent"] = args.against.resolve()
    runs: dict[str, dict] = {label: {} for label in checkouts}
    for r in range(args.repeats):
        # Which checkout goes first alternates, so neither always runs on
        # the warmer (or more contended) half of a pair.
        order = list(checkouts.items())
        for label, checkout in order if r % 2 == 0 else order[::-1]:
            print(f"bench: repeat {r + 1}/{args.repeats}, {label}", file=sys.stderr)
            measure(checkout, args, runs[label])

    report = {
        "machine": machine(),
        "settings": {"repeats": args.repeats, "seconds": args.seconds, "seed": SEED,
                     "workloads": list(WORKLOADS), "tier1": args.tier1},
    }
    for label, checkout in checkouts.items():
        report[label] = {"commit": commit(checkout)}
        for name, values in runs[label].items():
            report[label][name] = values if name.endswith(("failed", "summary")) else summary(values)
    if "parent" in runs:
        report["change_vs_parent"] = pairs(runs["change"], runs["parent"])
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"bench: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
