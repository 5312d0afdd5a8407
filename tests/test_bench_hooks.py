"""The benchmark's span hooks fit the package: every function that
bench/worker.py wraps for a traced run resolves, and unpatch restores
every binding it replaced.  bench/ is on sys.path for this test only."""

import importlib
import sys
from pathlib import Path

from catsim import hilbert

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bindings(owners) -> dict:
    """Every attribute binding of owners (modules and classes), by identity."""
    return {(owner.__name__, key): id(value)
            for owner in owners for key, value in list(vars(owner).items())}


def test_span_hooks_resolve_and_unpatch_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    try:
        worker = importlib.import_module("worker")
        tracer_module = importlib.import_module("tracer")
        targets = []

        class Recording(tracer_module.Tracer):
            def patch(self, owner, attr, name, on_result=None):
                # getattr raises if the hook names what the package lacks
                targets.append((owner, attr, getattr(owner, attr)))
                super().patch(owner, attr, name, on_result)

        owners = [sys.modules[f"catsim.{name}"] for name in worker.MODULES]
        owners += [hilbert.JointState, hilbert.OperatorSet]
        original = _bindings(owners)
        tracer = Recording()
        worker.install_spans(tracer)
        try:
            assert targets
            for owner, attr, fn in targets:
                assert getattr(owner, attr) is not fn, f"{owner.__name__}.{attr}"
        finally:
            tracer.unpatch()
        assert _bindings(owners) == original
    finally:
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH)):
                del sys.modules[name]
