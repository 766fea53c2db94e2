"""The seams the benchmark harness in ``perfbench/`` patches and reads.

``perfbench/tracer.py`` wraps module attributes by name and proxies numpy
calls made inside ``pointgreen``; the workloads read ``m_matrix(...).entries``
and ``.n``.  A library change that drops one of them breaks ``--trace 1`` or
the workload checks, not any other test, so they are checked here.  The lists
come from the harness itself, which is only read, never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import mpmath
import numpy as np

from deltagreen import center, from_bound_state, m_matrix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer(monkeypatch):
    # the tracer imports only the standard library; load it without caching
    # bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves(monkeypatch):
    tracer = _tracer(monkeypatch)
    importlib.import_module("deltagreen.cli")
    importlib.import_module("deltagreen.oracles")
    missing = [
        (mod, attr)
        for mod, attr, _ in tracer.BOUNDARIES
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
    pointgreen = importlib.import_module("deltagreen.pointgreen")
    assert pointgreen.np is np  # the tracer proxies pointgreen.np.linalg
    assert [f for f in tracer.LINALG if not hasattr(np.linalg, f)] == []
    assert importlib.import_module("deltagreen.oracles").mp is mpmath
    assert [f for f in tracer.MP_QUAD if not hasattr(mpmath, f)] == []


def test_m_matrix_keeps_what_the_harness_reads():
    cs = [center((0.0, 0.0), from_bound_state(-1.0)), center((1.5, 0.0), from_bound_state(-0.5))]
    mm = m_matrix(2, -2.0, cs)
    assert mm.n == 2
    assert mm.entries.shape == (2, 2)
