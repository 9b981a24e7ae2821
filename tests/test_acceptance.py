"""Acceptance gate: one pass/fail line per criterion.

Each test runs one end-to-end check from ``verify.ALL_CHECKS``, the list
``verify-all`` runs, and prints a single [PASS]/[FAIL] line so the suite
output doubles as a verification report.  The line ``verify-all`` prints for
the check must equal its line in ``golden/verify-all.text``.
"""

import time
from pathlib import Path

import pytest

from heckeseries import verify

#: the lines ``heckeseries verify-all`` prints, one per check in order
GOLDEN_LINES = (Path(__file__).resolve().parent / "golden" / "verify-all.text").read_text().splitlines()

#: time budgets in seconds, by check name.  On a 2-vCPU Xeon (Python 3.11.7),
#: cold, the genus-3 numerator identity took 0.035-0.063 s, the coset oracle
#: equivalence 0.05-0.08 s and the property suites 1.2-1.3 s; each budget
#: leaves room for the host's 1.8x speed swings.
BUDGETS = {
    "golden omega table (28 values)": 5.0,
    "coset-enumeration oracle equivalence": 2.0,
    "genus-3 numerator identity": 6.0,
    "property suites": 5.0,
}


def test_budgets_name_checks():
    assert set(BUDGETS) <= {name for name, _ in verify.ALL_CHECKS}


@pytest.mark.parametrize(
    "index,name,check",
    [(i, name, check) for i, (name, check) in enumerate(verify.ALL_CHECKS, start=1)],
    ids=[str(i) for i in range(1, len(verify.ALL_CHECKS) + 1)],
)
def test_criterion(index, name, check, capsys):
    start = time.time()
    try:
        ok, detail = check()
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {index}. {name}: {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {name}: {detail}"
    assert f"[PASS] {name}: {detail}" == GOLDEN_LINES[index - 1]
    budget = BUDGETS.get(name)
    if budget is not None:
        assert elapsed < budget, f"criterion {name} took {elapsed:.2f}s (budget {budget}s)"
