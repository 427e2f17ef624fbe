"""The property battery as a library: determinism, coverage, sensitivity."""

import pytest

from digraph_ed import entanglement
from digraph_ed.digraph import validate
from digraph_ed.errors import BadParamsError
from digraph_ed.suite import battery, run_suite

EXPECTED_CHECKS = [
    "closed_form_agreement",
    "antiparallel_closed_form",
    "orientation_invariance",
    "relabeling_invariance",
    "psi_invariance",
    "maximal_entanglement",
    "alpha_optimality",
    "per_vertex_law",
    "gate_correctness",
    "kernel_cross_validation",
    "pauli_closed_forms",
    "degree_sufficiency",
]


def test_battery_is_deterministic_and_policy_valid():
    cases1 = battery(5, 20, 8)
    cases2 = battery(5, 20, 8)
    assert cases1 == cases2
    for g, gp in cases1:
        validate(g)
        assert 2 <= g.M <= 8
        assert 0.0 < gp.theta < 3.15
        assert 0.0 < gp.psi < 3.15


def test_negative_seed_is_refused():
    with pytest.raises(BadParamsError, match="seed must be >= 0"):
        battery(-1, 20, 8)


def test_small_run_passes_every_check():
    report = run_suite(seed=21, n_graphs=15, max_m=7)
    assert report.ok
    assert [c.name for c in report.checks] == EXPECTED_CHECKS
    for c in report.checks:
        assert c.ok, c.summary()
        assert c.worst < max(c.threshold, 1e-13)
    # the empty-graph reference is one case; the population must add more
    maximal = report.checks[EXPECTED_CHECKS.index("maximal_entanglement")]
    assert maximal.cases > 1


def test_detects_a_perturbed_closed_form(monkeypatch):
    orig = entanglement.ed_closed_form
    monkeypatch.setattr(entanglement, "ed_closed_form", lambda g, th: orig(g, th) + 1e-6)
    report = run_suite(seed=21, n_graphs=15, max_m=7)
    assert not report.ok
    bad = {c.name for c in report.checks if not c.ok}
    assert "closed_form_agreement" in bad
