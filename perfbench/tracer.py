"""Span collector for the traced benchmark run.

The collector wraps the public functions of each deltagreen layer at the
module attributes their callers look up (``pointgreen.g0``, ``bessel.k0``,
``pointgreen.np.linalg.solve``, ...).  Each call becomes a span (operation
id, layer name, parent span, start, end) kept in memory in compact columns;
spans of one benchmark operation share its operation id.  Outside an
operation (``op`` is None) the wrappers pass straight through, so output
checks run untraced.

Only the standard library is imported at module level: the traced CLI child
imports this module before ``deltagreen.cli``, and ``-X importtime`` must
charge numpy and scipy to deltagreen, not to the tracer.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name): every boundary a caller crosses.  Patching
# a module that is not imported yet is skipped, so in-process workloads do
# not pull in the CLI or the oracles.
BOUNDARIES = (
    ("deltagreen.bessel", "k0", "bessel"),
    ("deltagreen.bessel", "hankel1_0", "bessel"),
    ("deltagreen.greenfn", "g0", "greenfn.g0"),
    ("deltagreen.pointgreen", "g0", "greenfn.g0"),
    ("deltagreen.cli", "g0", "greenfn.g0"),
    ("deltagreen.pointgreen", "renormalized_denominator", "renorm.denominator"),
    ("deltagreen.scatter", "renormalized_denominator", "renorm.denominator"),
    ("deltagreen.cli", "renormalized_denominator", "renorm.denominator"),
    ("deltagreen.cli", "bubble_regularized", "renorm"),
    ("deltagreen.cli", "bare_from_renormalized", "renorm"),
    ("deltagreen.cli", "friedman_report", "renorm"),
    ("deltagreen.cli", "rg_shift", "renorm"),
    ("deltagreen.cli", "transmutation_energy", "renorm"),
    ("deltagreen", "green", "pointgreen.green"),
    ("deltagreen", "bound_states", "pointgreen.bound_states"),
    ("deltagreen", "residue_wavefunction", "pointgreen.residue"),
    ("deltagreen.cli", "green", "pointgreen.green"),
    ("deltagreen.cli", "bound_states", "pointgreen.bound_states"),
    ("deltagreen.cli", "residue_wavefunction", "pointgreen.residue"),
    ("deltagreen.pointgreen", "m_matrix", "pointgreen.m_matrix"),
    ("deltagreen.pointgreen", "bracket_sign_changes", "rootfind.bracket"),
    ("deltagreen.pointgreen", "refine_root", "rootfind.refine"),
    ("deltagreen.cli", "refine_root", "rootfind.refine"),
    ("deltagreen.oracles", "g0_by_quadrature", "oracles.quad"),
    ("deltagreen.oracles", "lattice1d_spectrum", "oracles.lattice"),
    ("deltagreen.oracles", "lattice1d_resolvent", "oracles.lattice"),
    ("deltagreen.oracles", "lattice1d_transmission", "oracles.lattice"),
    ("deltagreen.oracles", "shooting1d", "oracles.shooting"),
    ("deltagreen.oracles", "shrinking_well_depth", "oracles.other"),
    ("deltagreen.oracles", "square_well_radial", "oracles.other"),
)

# numpy calls made inside pointgreen, seen through a proxy of its ``np``
LINALG = ("det", "solve", "eigh")
# mpmath integrators called by the quadrature oracle: counted, not spanned
MP_QUAD = ("quad", "quadosc")

COLUMNS = ("op", "name", "parent", "start", "end")


class _Proxy:
    """Forward attribute lookups to ``target`` except for ``overrides``."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.cols = {c: array("d" if c in ("start", "end") else "i") for c in COLUMNS}
        self.names: list[str] = []
        self.attrs: dict[int, dict] = {}  # span index -> result facts
        self.counts: dict = defaultdict(Counter)  # op -> counter -> n
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        c = self.cols
        idx = len(c["start"])
        c["op"].append(self.op)
        c["name"].append(name_id)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["end"].append(0.0)
        self._stack.append(idx)
        c["start"].append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.cols["end"][idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn, on_result=None):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(idx, out)
            return out

        return traced

    def _counted(self, key, fn):
        def counted(*args, **kwargs):
            if self.op is not None:
                self.counts[self.op][key] += 1
            return fn(*args, **kwargs)

        return counted

    def _rootfind(self, name, fn):
        # count evaluations of the function handed to the root finder
        def with_counted_f(f, *args, **kwargs):
            return fn(self._counted("rootfind.f_evals", f), *args, **kwargs)

        def brackets(idx, out):
            self.counts[self.op]["rootfind.brackets"] += len(out)

        return self._span(name, with_counted_f, brackets if name == "rootfind.bracket" else None)

    def _m_matrix_size(self, idx, out):
        self.counts[self.op]["m_matrix_n"] += out.n

    def _states(self, idx, out):
        self.attrs[idx] = {"states": len(out)}

    def op_scope(self, op_id):
        """Context manager: record spans under ``op_id`` inside a root span."""
        tracer = self

        class _Scope:
            def __enter__(self):
                tracer.op = op_id
                self.idx = tracer._open(tracer._name_id("op"))

            def __exit__(self, *exc):
                tracer._close(self.idx)
                tracer.op = None
                return False

        return _Scope()

    # -- patching --------------------------------------------------------
    def _patch(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        for modname, attr, name in BOUNDARIES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            fn = getattr(mod, attr)
            if name.startswith("rootfind."):
                wrapped = self._rootfind(name, fn)
            elif name == "pointgreen.m_matrix":
                wrapped = self._span(name, fn, self._m_matrix_size)
            elif name == "pointgreen.bound_states":
                wrapped = self._span(name, fn, self._states)
            else:
                wrapped = self._span(name, fn)
            self._patch(mod, attr, wrapped)
        pointgreen = sys.modules.get("deltagreen.pointgreen")
        if pointgreen is not None:
            np = pointgreen.np
            linalg = _Proxy(
                np.linalg,
                {f: self._span(f"linalg.{f}", getattr(np.linalg, f)) for f in LINALG},
            )
            self._patch(pointgreen, "np", _Proxy(np, {"linalg": linalg}))
        oracles = sys.modules.get("deltagreen.oracles")
        if oracles is not None:
            mp = oracles.mp
            quads = {f: self._counted("oracles.quad_calls", getattr(mp, f)) for f in MP_QUAD}
            self._patch(oracles, "mp", _Proxy(mp, quads))

    def uninstall(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- export ----------------------------------------------------------
    def export(self) -> dict:
        """Spans as numpy columns plus names, counters and span facts."""
        import numpy as np

        out = {c: np.frombuffer(self.cols[c], dtype=self.cols[c].typecode).copy() for c in COLUMNS}
        out["names"] = list(self.names)
        out["counts"] = {str(op): dict(c) for op, c in self.counts.items()}
        out["attrs"] = {str(i): a for i, a in self.attrs.items()}
        return out


def save(export: dict, path) -> None:
    import numpy as np

    meta = json.dumps({k: export[k] for k in ("names", "counts", "attrs")})
    with open(path, "wb") as handle:
        np.savez_compressed(handle, meta=np.array(meta), **{c: export[c] for c in COLUMNS})


def load(path) -> dict:
    import numpy as np

    with np.load(path, allow_pickle=False) as data:
        out = {c: data[c] for c in COLUMNS}
        out.update(json.loads(str(data["meta"])))
    return out


def self_times(export: dict):
    """Span duration minus the durations of its direct children."""
    import numpy as np

    dur = export["end"] - export["start"]
    parent = export["parent"]
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))


def per_op_counts(export: dict) -> dict:
    """Exact per-operation counts: g0 calls, m_matrix calls, root-finder f evals."""
    import numpy as np

    out: dict = defaultdict(Counter)
    for name in ("greenfn.g0", "pointgreen.m_matrix"):
        if name in export["names"]:
            ops = export["op"][export["name"] == export["names"].index(name)]
            for op, n in zip(*np.unique(ops, return_counts=True)):
                out[str(op)][name] = int(n)
    for op, c in export["counts"].items():
        out[op].update({k: v for k, v in c.items() if k == "rootfind.f_evals"})
    return {op: dict(c) for op, c in sorted(out.items(), key=lambda kv: int(kv[0]))}


def layer_totals(export: dict) -> dict:
    """Aggregate one span export into per-layer counts and times."""
    import numpy as np

    names = export["names"]
    name = export["name"]
    own = self_times(export)
    dur = export["end"] - export["start"]
    size = len(names)
    calls = dict(zip(names, np.bincount(name, minlength=size).tolist()))
    self_s = dict(zip(names, np.bincount(name, weights=own, minlength=size).tolist()))
    incl_s = dict(zip(names, np.bincount(name, weights=dur, minlength=size).tolist()))
    extra: Counter = Counter()
    for c in export["counts"].values():
        extra.update(c)
    # roots kept / brackets refined, over bound_states calls that scanned
    if "rootfind.refine" in names:
        refine_id = names.index("rootfind.refine")
        parent = export["parent"]
        refined: Counter = Counter()
        for idx in np.flatnonzero(name == refine_id):
            p = parent[idx]
            while p >= 0 and str(p) not in export["attrs"]:
                p = parent[p]
            if p >= 0:
                refined[str(p)] += 1
        for span, n in refined.items():
            extra["roots_kept"] += export["attrs"][span]["states"]
            extra["roots_refined"] += n
    return {"calls": calls, "self_s": self_s, "incl_s": incl_s, "extra": extra}
