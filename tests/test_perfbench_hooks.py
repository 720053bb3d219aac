"""The benchmark's tracer patches package entry points by name from outside.

A rename in the package would otherwise surface only in a traced benchmark
run; here it fails the ordinary suite. The tracer module is read, never
written to.
"""

from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_targets():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace["_layer_targets"]()


def test_every_traced_entry_point_resolves():
    targets = _layer_targets()
    assert targets
    for owner, attr, layer in targets:
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner!r} has no {attr!r}"
