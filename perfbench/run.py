#!/usr/bin/env python3
"""Benchmark of the singh-audit package: end-to-end audits and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is continuous_mc, bernoulli_mc or exact_oracle (see README.md).
The run is single-process and single-threaded. It builds the workload's
scenarios from ``--seed`` and then runs passes over all of them until
``--seconds`` have gone by; a pass in progress is finished. Every audit is
timed on its own. The first pass also checks the outputs, and every later
pass must reproduce the first pass byte for byte.

Audit times are reported at a reference speed: each is divided by how much
slower than nominal a fixed reference computation ran around it (see
Bench.speed), because a shared host's speed can swing by 10-30% over
seconds. The throughput and the latency percentiles use a typical pass:
each audit's median latency over the passes.

With ``--trace 0`` the last line of output carries the end-to-end metrics.
With ``--trace 1`` passes alternate untraced and traced, and the last line
carries the per-layer metrics and the tracing overhead. The last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7
PARSE_REPEATS = 20
MAX_REPORTED_FAILURES = 10
# Reference timings nearest an audit whose median sets its speed.
REFERENCE_WINDOW = 10


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide every replicate budget (self-test only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale < 1 or args.seed < 0:
        parser.error("--seconds must be positive, --scale at least 1, --seed non-negative")
    return args


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_probe(args) -> tuple[float, float]:
    """Set-up of one fresh process: import singh_audit, build and parse the workload.

    Returns the wall seconds and the median reference time the same process
    measured right after.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), args.workload,
           str(args.seed), str(args.scale)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    elapsed, reference_s = proc.stdout.split()[-2:]
    return float(elapsed), float(reference_s)


class Bench:
    """Runs audits, times them, checks their outputs and counts failures."""

    def __init__(self, work, scenarios, out_dir: Path, tracer):
        from singh_audit import runner, singh_engine

        # Entry points are looked up on the modules at call time, so the
        # tracer's wrappers take effect while they are installed.
        self.runner, self.engine = runner, singh_engine
        self.work = work
        self.scenarios = scenarios
        self.out_dir = out_dir
        self.tracer = tracer
        self.first_digest: dict[int, object] = {}
        self.attempted = 0
        self.failures: list[str] = []
        # traced flag -> audit index -> (wall seconds, position in
        # self.reference of the timing just before) of its successful runs
        self.runs = {False: defaultdict(list), True: defaultdict(list)}
        self.reference: list[float] = []
        self.passes = {False: 0, True: 0}
        self.bytes_written: dict[int, int] = {}

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")
        if len(self.failures) <= MAX_REPORTED_FAILURES:
            print(f"perfbench: FAILED {what}: {reason}", file=sys.stderr)

    def _audit(self, scenario):
        if not self.work.exact:
            return self.runner.run_scenario(scenario, self.out_dir)
        result = self.engine.exact_singh_curve(scenario.structure, scenario.target, scenario.n)
        return result, self.engine.classify(result, scenario.delta)

    def datasets(self, scenario) -> int:
        """Replicates (grid points included) or enumerated atoms of one audit."""
        if self.work.exact:
            return scenario.n + 1
        return scenario.m * (len(scenario.grid) if scenario.is_global else 1)

    def _first_pass_check(self, scenario, output) -> str | None:
        import checks

        kind = scenario.structure.kind
        if self.work.exact:
            result, _ = output
            if kind == "clopper_pearson":
                return checks.straddles(result, lower=True, upper=True)
            if kind == "scaled_cbox" and scenario.structure.c >= 1.0:
                return checks.straddles(result, lower=True, upper=False)
            return None
        csv = next(p for p in output if p.suffix == ".csv")
        if kind == "student_t_pivot":
            return checks.uniform(csv, scenario.m)
        if scenario.target.family in ("bernoulli", "scaled_bernoulli") and not scenario.is_global:
            exact = self.engine.exact_singh_curve(scenario.structure, scenario.target, scenario.n)
            return checks.against_exact(csv, exact, scenario.m)
        return None

    def _check(self, index: int, scenario, output) -> str | None:
        import checks

        digest = checks.digest_result(*output) if self.work.exact else checks.digest_files(output)
        if index not in self.first_digest:
            self.first_digest[index] = digest
            return self._first_pass_check(scenario, output)
        return checks.same_digest(self.first_digest[index], digest)

    def run_pass(self, traced: bool) -> None:
        """One pass over every scenario; checks run outside the timed calls.

        reference.work() is timed before the first audit and after each
        audit and its check, so every audit sits between two reference
        timings; see speed().
        """
        audit = self._audit
        if traced:
            audit = self.tracer.wrap("audit", self._audit)
            self.tracer.install()
        try:
            self.reference.append(reference.seconds())
            for index, scenario in enumerate(self.scenarios):
                self.attempted += 1
                before = len(self.reference) - 1
                try:
                    t0 = time.perf_counter()
                    output = audit(scenario)
                    elapsed = time.perf_counter() - t0
                    reason = self._check(index, scenario, output)
                except Exception:
                    reason = traceback.format_exc().strip().splitlines()[-1]
                self.reference.append(reference.seconds())
                if reason is not None:
                    self.fail(scenario.name, reason)
                    continue
                self.runs[traced][index].append((elapsed, before))
                if not self.work.exact:
                    self.bytes_written[index] = sum(p.stat().st_size for p in output)
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes[traced] += 1

    def speed(self, before: int) -> float:
        """How much slower than nominal the host ran around one audit.

        The median of the REFERENCE_WINDOW reference timings nearest the
        audit, over reference.NOMINAL_S: an audit's latency divided by it is
        the time the audit takes at the reference speed.
        """
        lo = max(0, before + 1 - REFERENCE_WINDOW // 2)
        return statistics.median(self.reference[lo:lo + REFERENCE_WINDOW]) / reference.NOMINAL_S

    def audit_medians(self, traced: bool, wall: bool = False) -> dict[int, float]:
        """Median latency of each audit that succeeded: the typical pass.

        At reference speed, or on the wall clock when ``wall`` is true.
        """
        runs = self.runs[traced]
        if not runs:
            raise RuntimeError("no audit succeeded, so there is nothing to time")
        return {
            index: statistics.median(elapsed if wall else elapsed / self.speed(before)
                                     for elapsed, before in times)
            for index, times in runs.items()
        }

    def rate(self, traced: bool, wall: bool = False) -> float:
        """Datasets per second of the typical pass."""
        medians = self.audit_medians(traced, wall)
        return sum(self.datasets(self.scenarios[i]) for i in medians) / sum(medians.values())


def reg_inc_beta_check(bench: Bench, seed: int) -> None:
    import numpy as np

    import checks
    from singh_audit import special_math

    bench.attempted += 1
    points = checks.beta_spot_points(np.random.default_rng(seed))
    ours = [special_math.reg_inc_beta(x, a, b) for x, a, b in points]
    reason = checks.reg_inc_beta_vs_scipy(points, ours)
    if reason is not None:
        bench.fail("reg_inc_beta spot values", reason)


def defect_probe(seed: int) -> dict:
    """Run the n = 2000 exact audit, kept out of the workload, and report its outcome."""
    import workloads
    from singh_audit import parse_scenario, singh_engine

    scenario = parse_scenario(workloads.defect_probe_document(seed))
    try:
        singh_engine.exact_singh_curve(scenario.structure, scenario.target, scenario.n)
    except Exception as exc:
        return {"audit": scenario.name, "outcome": f"{type(exc).__name__}: {exc}"}
    return {"audit": scenario.name, "outcome": "ok"}


def latency_percentiles(bench: Bench, wall: bool = False) -> tuple[float, float]:
    """p50 and p90 over the audits of the typical pass."""
    import numpy as np

    typical = list(bench.audit_medians(traced=False, wall=wall).values())
    return float(np.percentile(typical, 50)), float(np.percentile(typical, 90))


def end_to_end_metrics(bench: Bench, setup: list[tuple[float, float]]) -> dict:
    p50, p90 = latency_percentiles(bench)
    return {
        "datasets_per_s": (bench.rate(traced=False), "1/s"),
        "audit_s.p50": (p50, "s"),
        "audit_s.p90": (p90, "s"),
        "setup_s": (statistics.median(s * reference.NOMINAL_S / ref for s, ref in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(bench: Bench, tracer) -> dict:
    totals = tracer.layer_totals()
    k = bench.passes[True]

    def per_pass(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0) / k

    metrics = {}
    for layer in ("special_math.generator", "special_math.sample", "special_math.reg_inc_beta",
                  "structures.evaluate", "singh_engine.exact"):
        metrics[f"{layer}.calls"] = (per_pass(layer, "calls"), "count")
        metrics[f"{layer}.self_s"] = (per_pass(layer, "self_s"), "s")
    base = memo_base(bench, tracer)
    replicates, evaluated = base["replicates_per_pass"], base["evaluate_calls_per_pass"]
    metrics["singh_engine.memo_hit_ratio"] = (1.0 - evaluated / replicates if replicates else 0.0, "ratio")
    for layer in ("singh_engine.singh_curve", "singh_engine.classify", "global_engine.envelope",
                  "outputs.emit_csv", "outputs.emit_svg", "outputs.emit_report", "runner"):
        metrics[f"{layer}.self_s"] = (per_pass(layer, "self_s"), "s")
    metrics["outputs.bytes_written"] = (sum(bench.bytes_written.values()), "bytes")
    parse = totals.get("scenario.parse", {}).get("self_s", 0.0)
    metrics["scenario.parse.self_s"] = (parse / PARSE_REPEATS, "s")
    plain_rate, wrapped_rate = bench.rate(traced=False), bench.rate(traced=True)
    metrics["trace.wrapper_ns"] = (tracer.wrapper_s * 1e9, "ns")
    metrics["trace.untraced_datasets_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_datasets_per_s"] = (wrapped_rate, "1/s")
    metrics["trace.overhead_ratio"] = (plain_rate / wrapped_rate - 1.0, "ratio")
    return metrics


def memo_base(bench: Bench, tracer) -> dict:
    """Replicates per traced pass and the kernel evaluations the Monte Carlo loop made."""
    k = bench.passes[True]
    replicates = 0 if bench.work.exact else sum(bench.datasets(s) for s in bench.scenarios)
    evaluated = tracer.calls_under("structures.evaluate", "singh_engine.singh_curve") / k
    return {"replicates_per_pass": replicates, "evaluate_calls_per_pass": evaluated}


def run(args) -> dict:
    import numpy as np

    import singh_audit
    import workloads
    from singh_audit import scenario as scenario_module
    from spans import Tracer

    work = workloads.build(args.workload, args.seed, args.scale)
    setup_probe(args)  # warms the file cache; not counted
    setup: list[tuple[float, float]] = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
        for _ in range(PARSE_REPEATS):
            scenarios = [scenario_module.parse_scenario(doc) for doc in work.documents]
        tracer.uninstall()
    else:
        scenarios = [scenario_module.parse_scenario(doc) for doc in work.documents]

    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"artifacts-{args.workload}-{os.getpid()}"
    out_dir.mkdir()
    bench = Bench(work, scenarios, out_dir, tracer)
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            bench.run_pass(traced=tracer is not None and bench.passes[False] > bench.passes[True])
            # One set-up probe per pass spreads them over the run, so a
            # short slow spell of the machine moves few of them.
            setup.append(setup_probe(args))
            if time.perf_counter() >= deadline and (tracer is None or bench.passes[True]):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))
    reg_inc_beta_check(bench, args.seed)
    known_defects = [defect_probe(args.seed)] if work.exact else []

    if tracer is None:
        metrics = end_to_end_metrics(bench, setup)
    else:
        metrics = per_layer_metrics(bench, tracer)
        tracer.save(OUT / f"trace-{args.workload}.npz")

    failed = len(bench.failures)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "singh_audit": singh_audit.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "audits_per_pass": len(scenarios),
        "datasets_per_pass": sum(bench.datasets(s) for s in scenarios),
        "passes": bench.passes[False],
        "traced_passes": bench.passes[True],
        "latency_samples": sum(len(v) for v in bench.runs[False].values()),
        "reference_nominal_s": reference.NOMINAL_S,
        "reference_s": {f"p{q}": float(np.percentile(bench.reference, q)) for q in (10, 50, 90)},
        "wall_clock": {"datasets_per_s": bench.rate(traced=False, wall=True),
                       "audit_s.p50_p90": latency_percentiles(bench, wall=True)},
        "setup_probes_s": [s for s, _ in setup],
        "setup_probe_reference_s": [ref for _, ref in setup],
        "ops_failed_ratio": f"{failed}/{bench.attempted}",
        "failures": bench.failures[:MAX_REPORTED_FAILURES],
        "known_defects": known_defects,
    }
    if tracer is not None:
        provenance["wrapper_ns"] = {
            "per_call": tracer.wrapper_s * 1e9,
            "inside_span": tracer.inside_s * 1e9,
            "outside_span": tracer.outside_s * 1e9,
        }
        provenance["memo_base"] = memo_base(bench, tracer)
    return {
        "provenance": provenance,
        # Every untraced latency, pass by pass, on the wall clock and at
        # reference speed; kept in the result file only.
        "audit_wall_s": {scenarios[i].name: [elapsed for elapsed, _ in times]
                         for i, times in sorted(bench.runs[False].items())},
        "audit_at_reference_s": {scenarios[i].name: [elapsed / bench.speed(before) for elapsed, before in times]
                                 for i, times in sorted(bench.runs[False].items())},
        "result": {
            "correct": failed == 0,
            "attempted": bench.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    if not (SRC / "singh_audit" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'singh_audit'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    args = _parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    outcome = run(args)
    provenance, result = outcome["provenance"], outcome["result"]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(outcome, indent=2) + "\n")
    print(f"provenance {json.dumps(provenance)}")
    print(f"ops_failed_ratio {provenance['ops_failed_ratio']}; {provenance['latency_samples']} audit latencies over "
          f"{provenance['passes']} untraced passes; percentiles over the {provenance['audits_per_pass']} audits "
          "of the typical pass")
    for metric, entry in result["metrics"].items():
        print(f"{metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
