"""deltagreen benchmark: one closed-loop client, operations one after another.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload runs a fixed number of rounds, the number
that lasts about S seconds of operation time at the reference speed (see
``rounds_for``), and the end-to-end metrics are reported.  The work, and so
the count of attempted and failed operations, depends only on the seed and S.
Times are scaled to a reference machine speed (see "machine-speed
calibration").  With ``--trace 1`` one fixed round of the workload runs once
untraced and twice traced; the per-layer metrics come from the first traced
pass, and both traced passes must give identical per-operation counts.
Every output is checked outside the timed region.

The last line of stdout is the result object; the line before it is a report
with the environment, the input hash and the failures by class.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# one BLAS thread: the matrices are at most 256 x 256, and a second thread
# on a 2-CPU machine only adds scheduling noise
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("DELTAGREEN_BRANCH_POLICY", None)
os.environ["PYTHONPATH"] = str(SRC)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 3
UNSEEDED = ("verify",)  # `deltagreen verify --fast` takes no inputs
IN_PROCESS = ("resolvent", "spectrum")  # the others run CLI child processes
HASHED_ROUNDS = 2  # rounds whose inputs go into the input hash

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "1",
}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def input_hash(workload: str, seed: int) -> str:
    from workloads import make_round

    rounds = [make_round(workload, seed, r) for r in range(HASHED_ROUNDS)]
    return hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()


def environment() -> dict:
    from importlib.metadata import version

    import numpy as np

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "isolation": "none: no CPU pinning, no cgroup change, no cache drop",
    }
    try:
        env["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        env["cpu_model"] = re.search(r"model name\s*:\s*(.*)", cpuinfo).group(1)
    except (OSError, AttributeError):
        env["cpu_model"] = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                env[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return env


# -- set-up ------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import, input generation and warm-up before the first timed operation."""
    from workloads import Runner, make_round

    OUT.mkdir(exist_ok=True)
    runner = Runner(str(OUT), dict(os.environ))
    runner.load(workload)
    rounds = {r: make_round(workload, seed, r) for r in range(HASHED_ROUNDS)}
    if workload not in IN_PROCESS:
        res = runner.spawn([sys.executable, "-m", "deltagreen", "friedman", "--k", "1"])
        if res["rc"] != 0:
            raise RuntimeError(f"warm-up CLI call failed: {res['stderr']}")
    else:
        # the small size classes of round 0 touch every code path cheaply
        for op in rounds[0]:
            if len(op["spec"]["centers"]) <= 4:
                runner.run(op, runner.prepare(op))
    return runner, rounds


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set up in fresh processes: import cost is paid only once per process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return samples


# -- one pass over operations ------------------------------------------------

def run_ops(runner, ops, tracer=None, argv_for=None, sampler=None, windows=None):
    """Run ops in order; returns [(op, prepared, out, exc, seconds)].

    With a ``sampler``, it samples only while an operation runs, and each
    operation's (start, end) is appended to ``windows``.
    """
    done = []
    for i, op in enumerate(ops):
        prepared = runner.prepare(op) if argv_for is None else argv_for(i, op)
        out = exc = None
        if sampler is not None:
            sampler.active = True
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = runner.run(op, prepared)
            else:
                with tracer.op_scope(i):
                    out = runner.run(op, prepared)
        except Exception as e:  # an operation that raises has failed; checked below
            exc = e
        t1 = time.perf_counter()
        if sampler is not None:
            sampler.active = False
            windows.append((t0, t1))
        done.append((op, prepared, out, exc, t1 - t0))
    return done


def check_all(runner, done, failures: dict, facts: list) -> int:
    passed = 0
    for op, prepared, out, exc, _ in done:
        cls, info = runner.check(op, prepared, out, exc)
        facts.append({"label": op["label"], **info, **({"failure": cls} if cls else {})})
        if cls is None:
            passed += 1
        else:
            failures[cls] = failures.get(cls, 0) + 1
    return passed


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics.  Operation times cluster
    by size class, and a plain order statistic jumps between clusters when
    its rank moves by one; this estimate moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


# -- machine-speed calibration -------------------------------------------------

# The machine's speed drifts by tens of percent over minutes and changes
# within a second.  Every operation runs under a Sampler (calibrated_child.py),
# and its time is reported at the reference speed:
#     reported = (wall - sample time) * ref_s / mean(its samples).
# In-process operations are sampled every IN_PROCESS_EVERY_S; one too short
# to be sampled takes the samples just before and after it.  A CLI operation
# runs under a Sampler in its own child process.  Set-up is scaled by the
# mean of all samples of the run.  Raw times are in the report line.
IN_PROCESS_EVERY_S = 0.02
IN_PROCESS_ITERATIONS = 1000


def scaled_in_process(sampler, windows) -> list[float]:
    times, durations = sampler.times, sampler.durations
    scaled = []
    for t0, t1 in windows:
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        inside = durations[lo:hi]
        near = inside or durations[max(0, lo - 1):lo + 1]
        scaled.append((t1 - t0 - sum(inside)) * sampler.ref_s / statistics.fmean(near))
    return scaled


# -- --trace 0 ----------------------------------------------------------------

# Operation time of one round at the reference speed, seconds.  A run does
# the whole number of rounds closest to --seconds / ROUND_S, at least one, so
# the same seed and --seconds always give the same operations; a faster
# program finishes them sooner.
ROUND_S = {"resolvent": 5.0, "spectrum": 6.0, "verify": 7.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def _calibrated_cli_ops(runner, ops, r: int):
    """Run CLI ops in calibrated child processes.

    Returns (done, scaled op times, every sample duration).
    """
    from calibrated_child import CHILD_ITERATIONS, REF_S_PER_ITERATION

    paths = []

    def argv_for(i, op):
        path = OUT / f"samples_r{r}_op{i}.json"
        paths.append(path)
        return [sys.executable, str(HERE / "calibrated_child.py"), str(path), *op["spec"]["argv"]]

    done = run_ops(runner, ops, argv_for=argv_for)
    scaled, all_samples = [], []
    for path, (_, _, _, _, dt) in zip(paths, done):
        samples = json.loads(path.read_text())
        path.unlink()
        all_samples += samples
        scaled.append(
            (dt - sum(samples)) * CHILD_ITERATIONS * REF_S_PER_ITERATION / statistics.fmean(samples)
        )
    return done, scaled, all_samples


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from calibrated_child import CHILD_ITERATIONS, REF_S_PER_ITERATION, Sampler
    from workloads import make_round

    in_process = workload in IN_PROCESS
    setup_samples = measure_setup(workload, seed)
    runner, rounds = setup(workload, seed)
    failures: dict = {}
    facts: list = []
    latencies: list[float] = []  # raw
    scaled: list[float] = []
    samples: list[float] = []
    rss_kb = []
    passed = 0
    n_rounds = rounds_for(workload, seconds)
    # CLI operations are sampled in their own processes
    sampler = Sampler(IN_PROCESS_EVERY_S, IN_PROCESS_ITERATIONS if in_process else 0)
    sampler.active = True
    sampler.sample()  # the speed before the first operation
    sampler.active = False
    with sampler if in_process else contextlib.nullcontext():
        for r in range(n_rounds):
            ops = rounds.pop(r, None) or make_round(workload, seed, r)
            if in_process:
                windows: list = []
                done = run_ops(runner, ops, sampler=sampler, windows=windows)
                scaled += scaled_in_process(sampler, windows)
            else:
                done, op_scaled, op_samples = _calibrated_cli_ops(runner, ops, r)
                scaled += op_scaled
                samples += op_samples
            for _, _, out, _, dt in done:
                latencies.append(dt)
                if isinstance(out, dict):
                    rss_kb.append(out["maxrss_kb"])
            passed += check_all(runner, done, failures, facts)
            if r == 0 and not rss_kb:
                # the process peak once every size class has run; later rounds
                # add allocator growth that depends on how many rounds there are
                rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if in_process:
        samples, ref_s = sampler.durations, sampler.ref_s
    else:
        ref_s = CHILD_ITERATIONS * REF_S_PER_ITERATION
    attempted = len(latencies)
    timed = sum(latencies)
    raw = {
        # every operation completes (returns or raises) at full cost; which
        # of them pass is ok_share
        "ops_per_s": attempted / timed,
        "latency_p50_ms": hd_quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": hd_quantile(latencies, 0.9) * 1e3,
        "setup_s": statistics.median(setup_samples),
    }
    speed = ref_s / statistics.fmean(samples)
    metrics = {
        "ops_per_s": attempted / sum(scaled),
        "latency_p50_ms": hd_quantile(scaled, 0.5) * 1e3,
        "latency_p90_ms": hd_quantile(scaled, 0.9) * 1e3,
        "setup_s": raw["setup_s"] * speed,
        "peak_rss_mb": max(rss_kb) / 1024.0,
        "ok_share": passed / attempted,
    }
    report = {
        "rounds": n_rounds,
        "timed_s": timed,
        "raw_times": raw,
        "calibration": {
            "ref_s": ref_s,
            "samples": len(samples),
            "mean_s": statistics.fmean(samples),
            "sample_time_share": sum(samples) / timed,
        },
        "setup_samples_s": setup_samples,
        "latency_samples": attempted,
        "failed_share": (attempted - passed) / attempted,
        "failures": failures,
        "failures_by_label": _by_label(facts),
        "spectrum_found_expected": _completeness(facts),
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, {
        "attempted": attempted, "failed": attempted - passed, "failures": failures, "report": report,
    }


def _by_label(facts) -> dict:
    out: dict = {}
    for f in facts:
        if "failure" in f:
            key = f"{f['label']}:{f['failure']}"
            out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def _completeness(facts) -> list[int]:
    found = sum(f.get("found", 0) for f in facts)
    expected = sum(f.get("expected", 0) for f in facts)
    return [found, expected]


# -- --trace 1 ----------------------------------------------------------------

def _importtime_s(stderr: str) -> float:
    """Cumulative -X importtime of the top-level deltagreen imports, seconds."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        name = parts[2]
        if name.startswith(" deltagreen") and not name.startswith("  "):
            total += int(parts[1])
    return total * 1e-6


def _traced_cli_pass(runner, ops, spans_prefix: str):
    """Run CLI ops in traced child processes; returns (done, exports, cli timings)."""
    import tracer

    spans_files = []

    def argv_for(i, op):
        path = OUT / f"{spans_prefix}_op{i}.npz"
        spans_files.append(path)
        return [sys.executable, "-X", "importtime", str(HERE / "child.py"), str(path), str(i),
                *op["spec"]["argv"]]

    done = run_ops(runner, ops, argv_for=argv_for)
    exports, imports, runs = [], [], []
    for path, (_, _, out, _, dt) in zip(spans_files, done):
        exports.append(tracer.load(path))
        imp = _importtime_s(out["stderr"])
        imports.append(imp)
        runs.append(dt - imp)
    return done, exports, imports, runs


def _probe_cli(runner):
    res = runner.spawn([sys.executable, "-X", "importtime", "-m", "deltagreen", "--version"])
    imp = _importtime_s(res["stderr"])
    return [imp], [res["wall_s"] - imp]


def _same_output(a, b) -> bool:
    (_, _, out_a, exc_a, _), (_, _, out_b, exc_b, _) = a, b
    if exc_a is not None or exc_b is not None:
        return type(exc_a) is type(exc_b)
    if isinstance(out_a, dict):
        return out_a["rc"] == out_b["rc"] and out_a["stdout"] == out_b["stdout"]
    return out_a == out_b


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    from tracer import Tracer, layer_totals, per_op_counts, save

    runner, rounds = setup(workload, seed)
    ops = rounds[0]
    failures: dict = {}
    facts: list = []
    base = run_ops(runner, ops)
    passed = check_all(runner, base, failures, facts)
    base_s = sum(d[4] for d in base)

    # spans of the first traced pass are kept; the second only checks counts
    passes = []
    for pass_no in (1, 2):
        prefix = f"spans_{workload}_s{seed}" if pass_no == 1 else "spans_check"
        if workload not in IN_PROCESS:
            done, exports, imports, runs = _traced_cli_pass(runner, ops, prefix)
        else:
            with Tracer() as tracer:
                done = run_ops(runner, ops, tracer=tracer)
            exports = [tracer.export()]
            imports, runs = None, None
            save(exports[0], OUT / f"{prefix}.npz")
        passes.append((done, exports, imports, runs))
    for stale in OUT.glob("spans_check*.npz"):
        stale.unlink()

    done, exports, imports, runs = passes[0]
    if imports is None:
        imports, runs = _probe_cli(runner)
    counts = [[per_op_counts(e) for e in p[1]] for p in passes]
    counts_identical = counts[0] == counts[1]
    outputs_identical = all(
        _same_output(a, b) for p in passes for a, b in zip(base, p[0])
    )
    traced_s = sum(d[4] for d in done)

    calls, self_s, incl, extra = {}, {}, {}, {}
    for e in exports:
        t = layer_totals(e)
        for acc, key in ((calls, "calls"), (self_s, "self_s"), (incl, "incl_s"), (extra, "extra")):
            for k, v in t[key].items():
                acc[k] = acc.get(k, 0) + v

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    found, expected = _completeness(facts)
    g0_calls = c("greenfn.g0")
    m_calls = c("pointgreen.m_matrix")
    refined = extra.get("roots_refined", 0)
    metrics = {
        "bessel.calls": _metric(c("bessel"), "count"),
        "bessel.self_s": _metric(s("bessel"), "s"),
        "greenfn.g0_calls": _metric(g0_calls, "count"),
        "greenfn.g0_self_s": _metric(s("greenfn.g0"), "s"),
        "greenfn.g0_us_per_call": _metric(
            incl.get("greenfn.g0", 0.0) / g0_calls * 1e6 if g0_calls else 0.0, "us"),
        "renorm.denominator_calls": _metric(c("renorm.denominator"), "count"),
        "renorm.self_s": _metric(s("renorm.denominator", "renorm"), "s"),
        "pointgreen.m_matrix_calls": _metric(m_calls, "count"),
        "pointgreen.m_matrix_self_s": _metric(s("pointgreen.m_matrix"), "s"),
        "pointgreen.m_matrix_mean_n": _metric(
            extra.get("m_matrix_n", 0) / m_calls if m_calls else 0.0, "1"),
        "linalg.solve_calls": _metric(c("linalg.solve"), "count"),
        "linalg.det_calls": _metric(c("linalg.det"), "count"),
        "linalg.eigh_calls": _metric(c("linalg.eigh"), "count"),
        "linalg.self_s": _metric(s("linalg.solve", "linalg.det", "linalg.eigh"), "s"),
        "rootfind.brackets": _metric(extra.get("rootfind.brackets", 0), "count"),
        "rootfind.refine_calls": _metric(c("rootfind.refine"), "count"),
        "rootfind.f_evals": _metric(extra.get("rootfind.f_evals", 0), "count"),
        "rootfind.useful_ratio": _metric(
            extra.get("roots_kept", 0) / refined if refined else 0.0, "1"),
        "spectrum.completeness": _metric(found / expected if expected else 1.0, "1"),
        "oracles.quad_calls": _metric(extra.get("oracles.quad_calls", 0), "count"),
        "cli.import_s": _metric(statistics.median(imports), "s"),
        "cli.run_s": _metric(statistics.median(runs), "s"),
        "trace.overhead_pct": _metric((traced_s - base_s) / base_s * 100.0, "%"),
    }
    # self times of layers that some workloads never enter; zero there
    layer_self_s = {
        "rootfind.self_s": s("rootfind.bracket", "rootfind.refine"),
        "oracles.quad_self_s": s("oracles.quad"),
        "oracles.lattice_self_s": s("oracles.lattice"),
        "oracles.shooting_self_s": s("oracles.shooting"),
        "pointgreen.self_s": s("pointgreen.green", "pointgreen.bound_states", "pointgreen.residue"),
        "harness.self_s": s("op"),
    }
    per_op = counts[0]
    report = {
        "ops": len(ops),
        "untraced_s": base_s,
        "traced_s": traced_s,
        "counts_identical": counts_identical,
        "outputs_identical": outputs_identical,
        "layer_self_s": layer_self_s,
        "oracles.quad_calls": extra.get("oracles.quad_calls", 0),
        "per_op_counts": per_op,
        "counts_sha256": hashlib.sha256(json.dumps(per_op, sort_keys=True).encode()).hexdigest(),
        "failures": failures,
        "spectrum_found_expected": [found, expected],
        "spans_files": f"{OUT.relative_to(ROOT)}/spans_{workload}_s{seed}*.npz",
        "op_labels": [o["label"] for o in ops],
    }
    return metrics, {
        "attempted": len(ops), "failed": len(ops) - passed, "failures": failures, "report": report,
        "traced_ok": counts_identical and outputs_identical,
    }


def main(argv=None) -> int:
    from workloads import KNOWN_DEFECTS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "deltagreen" / "__init__.py").is_file():
        print(f"deltagreen sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    digest = input_hash(args.workload, args.seed)
    if (digest == input_hash(args.workload, args.seed + 1)) != (args.workload in UNSEEDED):
        print("inputs do not follow the seed as they should", file=sys.stderr)
        return 1
    if args.trace:
        metrics, info = traced(args.workload, args.seed)
    else:
        metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    unexpected = sorted(set(info["failures"]) - KNOWN_DEFECTS)
    correct = not unexpected and info.get("traced_ok", True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_sha256": digest,
        "known_defects": sorted(set(info["failures"]) & KNOWN_DEFECTS),
        "unexpected_failures": unexpected,
        **info["report"],
        "environment": environment(),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
