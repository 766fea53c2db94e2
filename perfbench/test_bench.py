"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench/test_bench.py``."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Runner, make_round  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_input_hash_follows_the_seed(workload):
    assert run.input_hash(workload, 7) == run.input_hash(workload, 7)
    differs = run.input_hash(workload, 7) != run.input_hash(workload, 8)
    assert differs == (workload not in run.UNSEEDED)


def test_rounds_cover_every_size_class():
    labels = [op["label"] for op in make_round("resolvent", 3, 0)]
    assert sorted(set(labels)) == sorted(f"d{d}_n{n}" for d in (1, 2, 3) for n in (1, 4, 16, 64, 256))
    spectrum = [op["label"] for op in make_round("spectrum", 3, 0)]
    assert len(spectrum) == len(set(spectrum)) == 3 * 7 * 2


def test_self_time_subtracts_direct_children():
    spans = {
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 7.0]),
        "end": np.array([10.0, 6.0, 3.0, 9.0]),
    }
    assert tracer.self_times(spans).tolist() == [3.0, 4.0, 1.0, 2.0]


def test_importtime_sums_top_level_deltagreen_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |   numpy",
        "import time:       200 |       5000 | deltagreen",
        "import time:        50 |       2000 | deltagreen.cli",
        "import time:        10 |         10 | tracer",
        '{"error": "InvalidInput"}',
    ])
    assert run._importtime_s(stderr) == pytest.approx(7000e-6)


def test_traced_counts_repeat_and_tracing_keeps_outputs():
    runner = Runner(str(run.OUT), {})
    runner.load("resolvent")
    ops = [op for op in make_round("resolvent", 5, 0) if op["label"] in ("d2_n4", "d3_n16")]
    plain = [runner.run(op, runner.prepare(op)) for op in ops]
    exports = []
    for _ in range(2):
        with tracer.Tracer() as t:
            done = run.run_ops(runner, ops, tracer=t)
        assert [d[2] for d in done] == plain
        exports.append(tracer.per_op_counts(t.export()))
    assert exports[0] == exports[1]
    # 8 points: one M(E) each, plus N G0(x, a_i), N G0(a_i, y) and G0(x, y)
    assert exports[0]["0"]["pointgreen.m_matrix"] == 8
    assert exports[0]["0"]["greenfn.g0"] == 8 * (4 * 3 // 2 + 2 * 4 + 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_per_run_depends_only_on_seconds(workload):
    assert run.rounds_for(workload, 20) == run.rounds_for(workload, 20) >= 1
    assert run.rounds_for(workload, 0.1) == 1
    assert run.rounds_for(workload, 60) > run.rounds_for(workload, 20)


def test_calibrated_child_keeps_cli_output(tmp_path):
    import json
    import os
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    plain = subprocess.run([sys.executable, "-m", "deltagreen", "--version"],
                           capture_output=True, text=True, env=env)
    samples = tmp_path / "samples.json"
    calibrated = subprocess.run(
        [sys.executable, str(HERE / "calibrated_child.py"), str(samples), "--version"],
        capture_output=True, text=True, env=env)
    assert (calibrated.returncode, calibrated.stdout) == (plain.returncode, plain.stdout)
    assert len(json.loads(samples.read_text())) >= 1
