"""Seeded inputs, operations and output checks for the three workloads.

Inputs come in rounds.  Round ``r`` of a workload is drawn from
``numpy.random.default_rng([seed, r])``, so the same seed always yields the
same inputs and a run that completes more rounds only appends to them.  A
round holds every size class of its workload in a fixed mix, which keeps the
mix of a run the same whatever its length.

Each operation is a dict: ``kind`` names how it runs, ``spec`` holds its
JSON-serializable inputs.  ``run(op)`` is the timed part; ``check(op, out,
exc)`` runs afterwards, untimed, and returns None or a failure class.  Known
defects of the program get classes listed in ``KNOWN_DEFECTS``; any other
class is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

WORKLOADS = ("resolvent", "spectrum", "verify")

# Failure classes caused by defects the program is known to have; the run
# still reports them as failed operations.
KNOWN_DEFECTS = {
    # det M underflows for many centers, so green() raises AtPoleError at an
    # energy where M is well conditioned
    "false_pole",
    # the det-M sign scan misses roots that do not change the sign of det M
    # (degenerate multiplets of symmetric layouts, close pairs)
    "missed_states",
}

RESOLVENT_DIMS = (1, 2, 3)
# layouts per round and dimension for each center count N.  Operations of a
# few milliseconds are timed through the machine's bursts of slowness one by
# one, so the median is placed in the N = 64 class, whose operations last
# long enough to average over them; the 90th percentile falls in N = 256.
RESOLVENT_MIX = {1: 1, 4: 1, 16: 1, 64: 3, 256: 1}
RESOLVENT_POINTS = 8
SPECTRUM_N = (2, 3, 4, 6, 8, 12, 16)
SPECTRUM_PROBES = 4

SPACING = 1.5  # lattice constant of random layouts
JITTER = 0.25  # largest shift of a random center per axis, in lattice constants
RECIPROCITY_RTOL = 1e-9  # relative to max(|G(x,y)|, |G(y,x)|, |G0(x,y)|)
POLE_SIGMA_RATIO = 1e-8  # sigma_min/sigma_max above this: not a real pole
SHOOTING_ATOL = 1e-8
SHOOTING_GRID = 4000


# -- input generation --------------------------------------------------------

def _rng(seed: int, r: int):
    return np.random.default_rng([seed, r])


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(r: int, key: int) -> float:
    """A point in [0, 1) for size class ``key`` of round ``r``, not seeded.

    Successive rounds step by the golden ratio, so a run of any length
    covers [0, 1) evenly.  Energies and symmetric spacings, which set how
    much work an operation does, come from here and so are the same on every
    seed; the seed draws the layouts, couplings and evaluation points.
    """
    return (key * (math.sqrt(2.0) - 1.0) + r * GOLDEN) % 1.0


def _coupling(rng, dim: int, e_b: float | None = None) -> dict:
    """A coupling binding at E_B on its own; the variant varies by dimension."""
    if e_b is None:
        e_b = -float(rng.uniform(0.25, 2.0))
    if dim == 1:
        return {"lambda": -2.0 * math.sqrt(-e_b)}
    if rng.random() < 0.5:
        return {"eb": e_b}
    if dim == 2:
        mu = float(rng.uniform(0.5, 2.0))
        return {"lambdaR": 4.0 * math.pi / math.log(-e_b / mu**2), "mu": mu}
    return {"lambdaR": 4.0 * math.pi / math.sqrt(-e_b)}


def _random_layout(rng, dim: int, n: int) -> list[list[float]]:
    """n random sites of a cubic lattice, each moved by a random jitter.

    Unlike uniform points, every such layout has nearly the same spread of
    pair distances, so operations of one size class cost about the same on
    every seed; the jitter keeps centers at least SPACING / 2 apart.
    """
    m = math.ceil(round(n ** (1.0 / dim), 9))
    grid = np.stack(np.meshgrid(*[np.arange(m)] * dim, indexing="ij"), -1).reshape(-1, dim)
    sites = grid[rng.choice(len(grid), size=n, replace=False)] * SPACING
    jitter = rng.uniform(-JITTER, JITTER, size=(n, dim)) * SPACING
    return (sites + jitter).round(12).tolist()


def _symmetric_layout(dim: int, n: int, a: float) -> list[list[float]]:
    """Evenly spaced chain (1D), square patch (n = 4, 16) or regular polygon.

    ``a`` is the nearest-neighbour distance.
    """
    if dim == 1:
        pts = [[i * a] for i in range(n)]
    elif n in (4, 16):
        side = int(round(math.sqrt(n)))
        pts = [[i * a, j * a] for i in range(side) for j in range(side)]
    else:
        radius = a / (2.0 * math.sin(math.pi / n))
        pts = [
            [radius * math.cos(2 * math.pi * k / n), radius * math.sin(2 * math.pi * k / n)]
            for k in range(n)
        ]
    if dim == 3:
        pts = [p + [0.0] for p in pts]
    return [[round(c, 12) for c in p] for p in pts]


def _probe_points(rng, dim: int, centers, count: int) -> list[list[float]]:
    pos = np.array([c["pos"] for c in centers])
    lo, hi = pos.min(axis=0) - 1.0, pos.max(axis=0) + 1.0
    out: list[list[float]] = []
    while len(out) < count:
        p = rng.uniform(lo, hi)
        if np.min(np.linalg.norm(pos - p, axis=1)) > 0.05 and all(
            np.linalg.norm(np.array(q) - p) > 0.05 for q in out
        ):
            out.append(p.round(12).tolist())
    return out


def _resolvent_round(seed: int, r: int) -> list[dict]:
    rng = _rng(seed, r)
    ops = []
    classes = [(d, n) for d in RESOLVENT_DIMS for n, k in RESOLVENT_MIX.items() for _ in range(k)]
    for i, (dim, n) in enumerate(classes):
        centers = [{"pos": p, "coupling": _coupling(rng, dim)} for p in _random_layout(rng, dim, n)]
        # two thirds real E < 0, one third retarded k^2 + i0; rotating with
        # the round so no size class is tied to one branch
        u = _spread(r, i)
        if (i + r) % 3 == 2:
            energy = {"value": (0.2 + 2.8 * u) ** 2, "retarded": True}
        else:
            energy = {"value": -((0.3 + 2.2 * u) ** 2), "retarded": False}
        pts = _probe_points(rng, dim, centers, RESOLVENT_POINTS + 1)
        ops.append({
            "kind": "resolvent",
            "label": f"d{dim}_n{n}",
            "spec": {"dim": dim, "centers": centers, "energy": energy, "y": pts[0], "xs": pts[1:]},
        })
    return ops


def _spectrum_round(seed: int, r: int) -> list[dict]:
    rng = _rng(seed, r)
    ops = []
    # every size class in both kinds each round: the two fail at very
    # different rates at the seed, so the mix must not depend on run length
    classes = [(d, n, sym) for d in RESOLVENT_DIMS for n in SPECTRUM_N for sym in (False, True)]
    for i, (dim, n, symmetric) in enumerate(classes):
        if symmetric:
            e_b = -(0.5 + _spread(r, 2 * i))
            spacing = 0.8 + 0.8 * _spread(r, 2 * i + 1)
            centers = [
                {"pos": p, "coupling": _coupling(rng, dim, e_b) if dim == 1 else {"eb": e_b}}
                for p in _symmetric_layout(dim, n, spacing)
            ]
        else:
            centers = [
                {"pos": p, "coupling": _coupling(rng, dim)} for p in _random_layout(rng, dim, n)
            ]
        ops.append({
            "kind": "spectrum",
            "label": f"d{dim}_n{n}_{'sym' if symmetric else 'rand'}",
            "spec": {
                "dim": dim,
                "centers": centers,
                "window": spectrum_window(dim, centers),
                "probes": _probe_points(rng, dim, centers, SPECTRUM_PROBES),
            },
        })
    return ops


def _single_center_kappa(dim: int, coupling: dict) -> float:
    if "lambda" in coupling:
        return -0.5 * coupling["lambda"]
    if "eb" in coupling:
        return math.sqrt(-coupling["eb"])
    if "mu" in coupling:
        return coupling["mu"] * math.exp(2.0 * math.pi / coupling["lambdaR"])
    return 4.0 * math.pi / coupling["lambdaR"]


def spectrum_window(dim: int, centers) -> list[float]:
    """Search window from the single-center scales kappa_i = sqrt(-E_i)."""
    kappas = [_single_center_kappa(dim, c["coupling"]) for c in centers]
    kap_hi, kap_lo = 4.0 * max(kappas), 0.05 * min(kappas)
    return [-kap_hi * kap_hi, -kap_lo * kap_lo]


def _verify_round(seed: int, r: int) -> list[dict]:
    return [{"kind": "cli", "label": "verify", "spec": {"argv": ["verify", "--fast"]}}]


ROUNDS = {
    "resolvent": _resolvent_round,
    "spectrum": _spectrum_round,
    "verify": _verify_round,
}


def make_round(workload: str, seed: int, r: int) -> list[dict]:
    return ROUNDS[workload](seed, r)


# -- running -----------------------------------------------------------------

class Runner:
    """Turns op specs into library objects and runs them.

    ``scratch`` is where CLI children write their output; ``env`` is their
    environment.
    """

    def __init__(self, scratch: str, env: dict):
        self.scratch = scratch
        self.env = env
        self.dg = None

    def load(self, workload: str):
        if workload in ("resolvent", "spectrum"):
            import deltagreen

            self.dg = deltagreen

    # library object construction happens before the timer starts
    def prepare(self, op: dict):
        spec = op["spec"]
        if op["kind"] == "cli":
            return [sys.executable, "-m", "deltagreen", *spec["argv"]]
        dg, dim = self.dg, spec["dim"]
        centers = [dg.center(c["pos"], self._coupling(dim, c["coupling"])) for c in spec["centers"]]
        if op["kind"] == "resolvent":
            e = spec["energy"]
            energy = dg.ComplexEnergy(complex(e["value"]), retarded=e["retarded"])
            xs = [dg.SpatialPoint(tuple(p)) for p in spec["xs"]]
            return (dim, energy, xs, dg.SpatialPoint(tuple(spec["y"])), centers)
        probes = [dg.SpatialPoint(tuple(p)) for p in spec["probes"]]
        return (dim, centers, tuple(spec["window"]), probes)

    def _coupling(self, dim: int, c: dict):
        dg = self.dg
        if "lambda" in c:
            return dg.bare_1d(c["lambda"])
        if "eb" in c:
            return dg.from_bound_state(c["eb"])
        if "mu" in c:
            return dg.renormalized_2d(c["lambdaR"], c["mu"])
        return dg.renormalized_3d(c["lambdaR"])

    def run(self, op: dict, prepared):
        """The timed operation; returns its output or raises."""
        dg = self.dg
        if op["kind"] == "resolvent":
            dim, energy, xs, y, centers = prepared
            # a caller tabulating G pays for every point, so an error at one
            # point does not skip the rest; the operation then fails
            values, error = [], None
            for x in xs:
                try:
                    values.append(dg.green(dim, energy, x, y, centers).value)
                except dg.DeltaGreenError as exc:
                    values.append(None)
                    error = error or exc
            if error is not None:
                raise error
            return values
        if op["kind"] == "spectrum":
            dim, centers, window, probes = prepared
            states = dg.bound_states(dim, centers, search=window, method="scan")
            return [
                (st.energy, [dg.residue_wavefunction(st, p) for p in probes]) for st in states
            ]
        return self.spawn(prepared)

    def spawn(self, argv: list[str]) -> dict:
        with tempfile.TemporaryFile(dir=self.scratch) as out, tempfile.TemporaryFile(
            dir=self.scratch
        ) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {
                "rc": proc.returncode,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace"),
                "maxrss_kb": usage.ru_maxrss,
                "wall_s": wall,
            }

    # -- checks (untimed) ----------------------------------------------------

    def check(self, op: dict, prepared, out, exc) -> tuple[str | None, dict]:
        """Return (failure class or None, facts for the report)."""
        if op["kind"] == "resolvent":
            return self._check_resolvent(prepared, out, exc)
        if op["kind"] == "spectrum":
            return self._check_spectrum(op, prepared, out, exc)
        if exc is not None:
            return f"exception:{type(exc).__name__}", {}
        return _check_verify(out), {}

    def _check_resolvent(self, prepared, out, exc):
        dg = self.dg
        dim, energy, xs, y, centers = prepared
        if exc is not None:
            if isinstance(exc, dg.AtPoleError):
                m = dg.m_matrix(dim, energy, centers).entries
                s = np.linalg.svd(m, compute_uv=False)
                ratio = float(s[-1] / s[0])
                return ("false_pole" if ratio > POLE_SIGMA_RATIO else None), {"sigma_ratio": ratio}
            return f"exception:{type(exc).__name__}", {}
        if not all(np.isfinite(v) for v in out):
            return "non_finite", {}
        back = dg.green(dim, energy, y, xs[0], centers).value
        # G = G0 + correction can cancel far below both terms (a localized
        # 1D chain), so the rounding scale includes |G0|
        scale = max(abs(back), abs(out[0]), abs(dg.g0(dim, energy, xs[0], y).value))
        if abs(back - out[0]) > RECIPROCITY_RTOL * scale:
            return "reciprocity", {}
        return None, {}

    def _check_spectrum(self, op, prepared, out, exc):
        dg = self.dg
        dim, centers, window, probes = prepared
        if exc is not None:
            return f"exception:{type(exc).__name__}", {}
        lo = dg.m_matrix(dim, window[0], centers).entries.real
        hi = dg.m_matrix(dim, window[1], centers).entries.real
        expected = int(np.sum(np.linalg.eigvalsh(hi) > 0) - np.sum(np.linalg.eigvalsh(lo) > 0))
        facts = {"found": len(out), "expected": expected}
        if not all(math.isfinite(e) and all(math.isfinite(v) for v in psi) for e, psi in out):
            return "non_finite", facts
        if len(out) < expected:
            return "missed_states", facts
        if len(out) > expected:
            return "extra_states", facts
        if dim == 1:
            from deltagreen import oracles

            kap = [math.sqrt(-window[1]), math.sqrt(-window[0])]
            ref = sorted(-k * k for k in oracles.shooting1d(centers, kap, SHOOTING_GRID))
            if len(ref) != len(out) or any(
                abs(e - e_ref) > SHOOTING_ATOL * max(1.0, abs(e_ref))
                for (e, _), e_ref in zip(out, ref)
            ):
                return "shooting_mismatch", facts
        return None, facts


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _check_verify(res: dict) -> str | None:
    """`deltagreen verify` exits 0 with a strict-JSON table whose checks all pass."""
    if res["rc"] != 0:
        return f"exit_{res['rc']}"
    try:
        table = _strict_json(res["stdout"])
    except ValueError:
        return "bad_table"
    rows, cols = table["rows"], table["columns"]
    if any(len(row) != len(cols) for row in rows):
        return "bad_table"
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for row in rows for v in row):
        return "non_finite"
    if len(rows) != len(table["metadata"]["check_names"]) or not all(row[1] == 1 for row in rows):
        return "verify_check_failed"
    return None
