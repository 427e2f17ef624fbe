"""The property battery as a library: determinism, coverage, sensitivity."""

import numpy as np
import pytest

from digraph_ed import digraph, entanglement, statevector, suite
from digraph_ed.digraph import validate
from digraph_ed.errors import BadParamsError
from digraph_ed.suite import CHECKS, battery, population, run_check, run_suite

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


def test_no_graphs_is_refused():
    with pytest.raises(BadParamsError) as info:
        run_suite(0, 0)
    assert str(info.value) == "the suite needs at least 1 graph, got 0"


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


def test_battery_draws_p_as_rng_choice_does():
    # indexing the tuple by rng.integers(0, 3) takes the draw rng.choice takes
    for seed in range(200):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert (0.2, 0.5, 0.8)[a.integers(0, 3)] == float(b.choice([0.2, 0.5, 0.8]))
            assert a.integers(0, 2**63) == b.integers(0, 2**63)


@pytest.mark.parametrize("args", [(0, 200, 12), (1, 200, 12), (2, 200, 12), (21, 15, 7)])
def test_one_pass_matches_each_row_on_its_own(args):
    # population reads the battery and every row's cases in one pass; each
    # row's cases come back in order, each with the total it has when the
    # cases are read on their own, and run_suite is every row run over that
    # population
    pop = population(*args)
    for check in CHECKS:
        if check.cases:
            cases = check.cases(pop.seed, pop.cases)
            want = entanglement.ed_totals(cases)
            assert [case for case, _ in pop.read[check.name]] == cases
            assert [e.hex() for _, e in pop.read[check.name]] == [e.hex() for e in want]
    assert sorted(pop.read) == sorted(c.name for c in CHECKS if c.cases)

    def fields(results):
        return [(c.name, c.cases, c.threshold, c.worst.hex(), c.violations) for c in results]

    assert fields(run_suite(*args).checks) == fields(run_check(check, pop) for check in CHECKS)


def test_worst_is_a_python_float_in_every_row():
    # at seed 3 the worst errors of kernel_cross_validation and
    # pauli_closed_forms come from numpy scalars
    for check in run_suite(seed=3, n_graphs=15, max_m=7).checks:
        assert type(check.worst) is float, check.name


def test_one_pass_builds_in_few_batches(monkeypatch):
    batches, lone, walks = [], [], []
    real_batch, real_lone = statevector.build_graph_states, suite.build_graph_state
    real_walk = digraph._walk

    def count_batch(graphs, *args, **kwargs):
        batches.append(len(graphs))
        return real_batch(graphs, *args, **kwargs)

    def count_lone(*args, **kwargs):
        lone.append(1)
        return real_lone(*args, **kwargs)

    monkeypatch.setattr(statevector, "build_graph_states", count_batch)
    monkeypatch.setattr(suite, "build_graph_state", count_lone)
    monkeypatch.setattr(digraph, "_walk", lambda g: walks.append(g.M) or real_walk(g))
    assert run_suite(seed=0).ok
    # the battery and the antiparallel, orientation, relabeling, psi,
    # maximal-entanglement (174 graphs and the empty one at seed 0) and
    # degree-sufficiency cases share batches; the alpha sweep makes its own
    assert len(batches) <= 30, batches
    assert sum(batches) == 200 + 24 + 50 + 50 + 50 + 175 + 12 + 101
    # the oracle rows build their states one at a time
    assert len(lone) == 26
    # no graph is walked twice: the measures read the records its one walk kept
    assert len(walks) == 361
