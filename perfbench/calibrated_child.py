"""Machine-speed sampling, and the calibrated CLI process.

    calibrated_child.py SAMPLES_FILE <deltagreen args...>

runs ``python -m deltagreen <args...>`` in this process under a ``Sampler``
and writes the sample durations to SAMPLES_FILE as JSON.

The machine's speed changes within a second (other tenants share its
cores), and a reference task timed between operations does not track it.
A ``Sampler`` interrupts the running operation every few milliseconds for a
short fixed reference task that does not touch deltagreen, so the samples
see the machine exactly while the operation runs.  The benchmark subtracts
their time from the operation and scales what is left to the reference
speed (see ``REF_S_PER_ITERATION``).

Only the standard library is imported here, so the CLI's imports are
unchanged; a signal handler runs between bytecodes, so outputs are unchanged.
"""

import cmath
import json
import math
import runpy
import signal
import sys
import time

# seconds per scalar_task iteration at the reference speed
REF_S_PER_ITERATION = 5e-7
CHILD_EVERY_S = 0.1
CHILD_ITERATIONS = 4000


def scalar_task(iterations: int) -> float:
    """Scalar complex math in the interpreter, the mix mpmath spends its time in."""
    acc = 0.0
    for i in range(iterations):
        z = complex(0.3 + 1e-5 * i, 0.2)
        acc += abs(cmath.exp(-z) / z) + math.sqrt(i + 1.0)
    return acc


class Sampler:
    """Times ``scalar_task(iterations)`` every ``every`` seconds while active.

    ``times`` holds when each sample ended, ``durations`` how long it took.
    """

    def __init__(self, every: float, iterations: int):
        self.every, self.iterations = every, iterations
        self.times: list[float] = []
        self.durations: list[float] = []
        self.active = False

    @property
    def ref_s(self) -> float:
        return self.iterations * REF_S_PER_ITERATION

    def sample(self, *_):
        if self.active:
            t0 = time.perf_counter()
            scalar_task(self.iterations)
            t1 = time.perf_counter()
            self.times.append(t1)
            self.durations.append(t1 - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.active = False


def main() -> None:
    samples_file, argv = sys.argv[1], sys.argv[2:]
    sampler = Sampler(CHILD_EVERY_S, CHILD_ITERATIONS)
    sampler.active = True
    sampler.sample()
    sys.argv = ["deltagreen", *argv]
    try:
        with sampler:
            runpy.run_module("deltagreen", run_name="__main__", alter_sys=True)
    finally:
        with open(samples_file, "w") as f:
            json.dump(sampler.durations, f)


if __name__ == "__main__":
    main()
