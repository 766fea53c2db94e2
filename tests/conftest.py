"""Shared pytest plumbing: prints the acceptance-criteria summary block."""

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
