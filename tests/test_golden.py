"""Byte-identical CLI outputs: every case of ``golden.json`` replays to its digest.

A case whose output carries computed floats replays only on the install
the corpus was recorded on, since BLAS may round its last bits differently
on another numpy build or CPU; ``gen`` and the refusals replay everywhere.
Rebuild the corpus with ``tests/make_golden.py`` only when an output is
meant to change.
"""

import json

import pytest

import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
INSTALL = make_golden.install()


def test_the_corpus_is_the_tool_s():
    assert [case["argv"] for case in GOLDEN["cases"]] == make_golden.cases()


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(case["argv"]) for case in GOLDEN["cases"]]
)
def test_output_is_unchanged(case):
    if case["floats"] and INSTALL != GOLDEN["install"]:
        pytest.skip(
            f"float output recorded on another install ({GOLDEN['install']}; here {INSTALL})"
        )
    code, sha = make_golden.run(case["argv"])
    assert sha == case["sha256"], (
        f"digraph-ed {' '.join(case['argv'])}: exit code, stdout or stderr changed "
        f"(recorded with numpy {GOLDEN['install']['numpy']}, replayed with numpy "
        f"{INSTALL['numpy']})"
    )
    assert make_golden.carries_floats(case["argv"], code) == case["floats"]
