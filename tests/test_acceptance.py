"""Acceptance gate: every row of the suite's check table on 200 seeded digraphs.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The criteria, their tolerances and case counts live once, in
``digraph_ed.suite.CHECKS``; ``digraph-ed suite`` runs the same table.
"""

import pytest

from digraph_ed.suite import CHECKS, population, run_check

SEED = 20260808


@pytest.fixture(scope="module")
def pop():
    """200 seeded Erdos-Renyi digraphs, M in [2, 12], with random angles."""
    return population(SEED, 200, 12)


@pytest.mark.parametrize("check", CHECKS, ids=[check.name for check in CHECKS])
def test_criterion(check, pop):
    result = run_check(check, pop)
    passed = result.ok and result.cases > 0
    print(f"ACCEPTANCE {check.name}: {'PASS' if passed else 'FAIL'}")
    assert result.ok, "\n".join(result.violations[:5])
    assert result.cases > 0
