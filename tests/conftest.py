"""Shared pytest plumbing: prints the acceptance-criteria summary block, and
picks the value a bit-pinning test recorded for the running kernel set."""

import ctypes
import glob
import os

import numpy as np
import pytest


def _kernel_set() -> tuple[str, str]:
    """(numpy's kernel for float64 ``exp``, OpenBLAS's core name): what sets
    the last bits of numpy's SIMD exponentials and of LAPACK, such as
    ("X86_V4", "SkylakeX") on an AVX-512 CPU and ("X86_V3", "Haswell") under
    NPY_DISABLE_CPU_FEATURES=X86_V4 OPENBLAS_CORETYPE=Haswell."""
    from numpy.lib import introspect  # numpy >= 2.0; imported here so no other test needs it

    exp = introspect.opt_func_info(func_name="exp$", signature="float64")["exp"]["dd"]["current"]
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                         "libscipy_openblas64_*.so")))
    if not libs:
        return exp, "unknown OpenBLAS"
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return exp, corename().decode()


@pytest.fixture(scope="session")
def kernel_pin():
    """``pin(recorded)``: the value ``recorded`` keeps for the running kernel
    set; a kernel set with no record fails the test, naming it."""
    key = _kernel_set()

    def pin(recorded: dict):
        if key not in recorded:
            pytest.fail(f"no value recorded for the kernel set {key}")
        return recorded[key]

    return pin


CRITERIA = {
    1: "1D bound state exact and lattice-oracle confirmed with order within 0.1 of 2",
    2: "2D dimensional transmutation value and RG invariance",
    3: "2D regularized denominator limit and O(cutoff^-2) rate",
    4: "3D bound state closed form and root-finder agreement",
    5: "3D amplitude, cross section, optical theorem, far-field fit",
    6: "two-delta energies vs shooting and lattice; decoupling limit",
    7: "residue factorization and wavefunction normalization",
    8: "4D nonremovable divergence slope; fixed-coupling triviality",
    9: "closed forms vs quadrature oracle; verify exits 0",
    10: "CLI byte determinism across every subcommand",
}

_results = {}


def pytest_runtest_logreport(report):
    parts = report.nodeid.split("::")
    if len(parts) < 2 or not parts[0].endswith("test_acceptance.py"):
        return
    name = parts[-1]
    if not name.startswith("test_criterion_"):
        return
    num = int(name.split("_")[2])
    entry = _results.setdefault(num, {"failed": False, "ran": False})
    if report.when == "call" and not report.skipped:
        entry["ran"] = True
    if report.failed or report.skipped:
        entry["failed"] = True


def pytest_terminal_summary(terminalreporter):
    seen = sorted(n for n in _results if n in CRITERIA)
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for num in seen:
        entry = _results[num]
        ok = entry["ran"] and not entry["failed"]
        terminalreporter.write_line(
            f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {CRITERIA[num]}"
        )
