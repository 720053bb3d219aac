"""The benchmark reads the package from outside, by name.

Its tracer patches package entry points, and its checks read result
attributes. A rename in the package would otherwise surface only in a
benchmark run; here it fails the ordinary suite. The benchmark's modules are
read, never written to.
"""

from pathlib import Path

from singh_audit.singh_engine import TargetSpec, classify, exact_singh_curve
from singh_audit.structures import StructureSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """The namespace of ``perfbench/<name>.py``, run from its text, so no bytecode is cached."""
    path = PERFBENCH / f"{name}.py"
    namespace = {"__name__": f"perfbench_{name}"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def test_every_traced_entry_point_resolves():
    targets = _load("spans")["_layer_targets"]()
    assert targets
    for owner, attr, layer in targets:
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner!r} has no {attr!r}"


def test_checks_read_exact_results():
    # digest_result reads each curve's required, weights and never_count
    # through lower_curve/upper_curve; straddles reads both curves.
    checks = _load("checks")
    spec, target = StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4)
    band = exact_singh_curve(spec, target, 10)
    first = checks["digest_result"](band, classify(band))
    again = exact_singh_curve(spec, target, 10)
    assert checks["digest_result"](again, classify(again)) == first
    other = exact_singh_curve(spec, target, 11)
    assert checks["digest_result"](other, classify(other)) != first
    assert checks["straddles"](band, lower=True, upper=True) is None
