"""Every input ends in a documented exit code and at most one error line.

Hypothesis draws argument lists for all six commands. Each option takes a
good value three draws in four; otherwise an integer past its bound, a
float (nan, the infinities, 1e308, -0.0 among them) or non-numeric text.
Graph files are well formed or of random shape, with M <= 8 or M >= 25 and
endpoints of any JSON type. Each run, in process, must exit 0, 1, 2 or 64,
print nothing on stderr on success and otherwise exactly one ``error:``
line, and never a traceback. The values keep each example cheap: no state
above M = 8, grids of at most 50 points, ``gen`` at M <= 10^4, and
``suite`` at 3 graphs of M <= 6.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from digraph_ed import cli, digraph

FUZZ = settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
TEXT = st.text(max_size=4)


def either(good, bad):
    """A value from ``good`` three draws in four, else one from ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 3 else good)


def integer(good, past) -> st.SearchStrategy[str]:
    """An integer option: ``good`` values, else one ``past`` its bounds, a float or text."""
    return either(good.map(str), st.one_of(st.sampled_from(past).map(str), FLOATS.map(repr), TEXT))


def real(good) -> st.SearchStrategy[str]:
    """A float option: ``good`` values, else nan, an infinity or another float, or text."""
    return either(good.map(repr), st.one_of(FLOATS.map(repr), TEXT))


def choice(values) -> st.SearchStrategy[str]:
    return either(st.sampled_from(values), TEXT)


ANGLE = real(st.one_of(st.floats(-10, 10), st.sampled_from([0.0, -0.0, 1e308])))
SEED = integer(st.sampled_from([0, 1, 2**63 - 1, 2**63, 10**30]), past=[-1])
KIND = choice(digraph.GENERATOR_KINDS)
P = real(st.floats(0, 1))
#: a state's M: at the low bound and past both, but no state over M = 8
STATE_M = integer(st.integers(1, 8), past=[0, -1, 25, 10**30])


def argv(*fixed, **values) -> st.SearchStrategy[list[str]]:
    """``fixed`` words, then ``--name=value`` for each strategy in ``values``.

    A name ending in ``_`` is optional: drawn or left out, half and half.
    A value of True is a bare flag.
    """
    parts = []
    for name, value in values.items():
        flag = "--" + name.rstrip("_").replace("_", "-")
        part = value.map(lambda v, f=flag: [f] if v is True else [f"{f}={v}"])
        parts.append(st.one_of(st.just([]), part) if name.endswith("_") else part)
    return st.tuples(*parts).map(lambda chosen: [*fixed, *(a for part in chosen for a in part)])


JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10), FLOATS.filter(math.isfinite), TEXT
)
WELL_FORMED = st.integers(1, 8).flatmap(
    lambda M: st.fixed_dictionaries(
        {
            "M": st.just(M),
            "edges": st.lists(st.lists(st.integers(0, M - 1), min_size=2, max_size=2), max_size=8),
        }
    )
)
ENDPOINT = st.one_of(JSON_SCALAR, st.lists(JSON_SCALAR, max_size=2))
RANDOM_SHAPE = st.one_of(
    st.fixed_dictionaries(
        {
            "M": st.one_of(st.integers(-1, 8), st.integers(25, 40), JSON_SCALAR),
            "edges": st.one_of(
                st.lists(st.lists(ENDPOINT, max_size=3), max_size=6),
                JSON_SCALAR,
            ),
        },
        optional={"labels_base": JSON_SCALAR, "extra": JSON_SCALAR},
    ),
    st.lists(JSON_SCALAR, max_size=3),
    JSON_SCALAR,
)
GRAPH_DOC = either(WELL_FORMED, RANDOM_SHAPE)


def check(words: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(words)
    text = err.getvalue()
    assert code in (0, 1, 2, 64), (words, code, text)
    assert "Traceback" not in text, (words, text)
    if code == 0:
        assert text == "", (words, text)
    else:
        assert text.startswith("error:") and text.endswith("\n"), (words, text)
        assert text.count("\n") == 1, (words, text)


def with_graph(tmp_path, doc, data, command, **values) -> list[str]:
    """``command`` on a ``--kind`` graph or on ``doc`` written to a file, with ``values``."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    source = data.draw(
        st.one_of(
            argv(kind=KIND, M=STATE_M, p_=P, seed_=SEED),
            argv("--graph", str(path)),
        )
    )
    rest = data.draw(argv(allow_antiparallel_=st.just(True), **values))
    return [command, *source, *rest]


@FUZZ
@given(
    words=argv(
        "gen",
        kind=KIND,
        M=integer(
            st.one_of(st.integers(1, 60), st.just(10**4)), past=[0, -1, 3001, 4_500_001, 10**30]
        ),
        p_=P,
        seed_=SEED,
    )
)
def test_gen(words):
    check(words)


@FUZZ
@given(command=st.sampled_from(["ed", "verify"]), doc=GRAPH_DOC, data=st.data())
def test_ed_and_verify(tmp_path, command, doc, data):
    check(with_graph(tmp_path, doc, data, command, theta=ANGLE, psi_=ANGLE, deg_=st.just(True)))


@FUZZ
@given(doc=GRAPH_DOC, data=st.data())
def test_sweep_theta(tmp_path, doc, data):
    grid = integer(st.integers(2, 50), past=[1, 0, cli.MAX_GRID + 1])
    fmt = choice(["csv", "json"])
    check(with_graph(tmp_path, doc, data, "sweep-theta", psi_=ANGLE, grid_=grid, format_=fmt))


@FUZZ
@given(
    words=argv(
        "sweep-alpha",
        theta=ANGLE,
        psi_=ANGLE,
        deg_=st.just(True),
        grid_=integer(st.integers(3, 50), past=[2, 0, cli.MAX_GRID + 1]),
        format_=choice(["csv", "json"]),
    )
)
def test_sweep_alpha(words):
    check(words)


@settings(FUZZ, max_examples=8)
@given(
    words=argv(
        "suite",
        seed_=SEED,
        graphs=integer(st.integers(1, 3), past=[0, -1, cli.MAX_GRAPHS + 1]),
        max_M=integer(st.integers(2, 6), past=[1, 0, -1, 25]),
        jobs_=integer(st.integers(1, 2), past=[0, -1]),
    )
)
def test_suite(words):
    check(words)


@FUZZ
@given(words=st.lists(st.one_of(TEXT, st.sampled_from(["-h", "--help", "--M", "gen"])), max_size=3))
def test_any_words(words):
    check(words)
