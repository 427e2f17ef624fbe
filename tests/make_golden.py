"""Rebuild ``tests/golden.json``: digests of CLI runs made in-process.

Each case runs ``cli.main(argv)`` with stdout and stderr captured, in a
fresh temporary directory that holds the graph files of :data:`FILES`, and
records the SHA-256 of its exit code, stdout and stderr. The graph files
are named by relative paths because a report's ``seed_info`` embeds the
``--graph`` path. ``tests/test_golden.py`` replays every case against its
recorded digest, so any change to any output shows.

Printed floats pass through BLAS, whose kernels (and so whose last bits)
depend on the numpy build and the CPU. The file therefore records the
install it was written on (:func:`install`), and marks each case whose
output carries computed floats; ``test_golden`` replays those cases only on
a matching install and the others (``gen``, refusals) everywhere. Rebuild
the file only when an output is meant to change::

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from digraph_ed import cli, digraph

GOLDEN = Path(__file__).with_name("golden.json")

#: Graph files the cases read, written into each case's directory: a document
#: as JSON, bytes as they are.
FILES = {
    # 1-based labels; (2, 1) is antiparallel to (1, 2)
    "pair.json": {"M": 4, "labels_base": 1, "edges": [[1, 2], [2, 3], [2, 1], [4, 3]]},
    # refused, each for its own reason
    "bad.json": b'{"M": 3, "edges": [[0, 1]]',
    "latin1.json": b'{"M": 3, "edges": [], "name": "\xe9"}',
    "loop.json": {"M": 3, "edges": [[0, 1], [2, 2]]},
    "dup.json": {"M": 3, "edges": [[0, 1], [1, 2], [0, 1]]},
    "range.json": {"M": 3, "edges": [[0, 3]]},
    "huge_M.json": b'{"M": ' + b"9" * 5000 + b', "edges": []}',
    "huge_end.json": b'{"M": 3, "edges": [[0, ' + b"9" * 5000 + b"]]}",
}

_ANGLES = ["--theta", "0.7", "--psi", "0.3"]
_KINDS = (["star_out"], ["erdos_renyi", "--p", "0.3"], ["complete_dag"])


def cases() -> list[list[str]]:
    """Every argv of the corpus, in a fixed order."""
    out = [["suite", "--seed", str(seed)] for seed in range(8)]
    for command in ("verify", "ed"):
        for kind, *params in _KINDS:
            for M in (3, 9, 12, 17):
                source = ["--kind", kind, "--M", str(M), *params, "--seed", "1"]
                out.append([command, *source, *_ANGLES])
        for allow in ([], ["--allow-antiparallel"]):
            out.append([command, "--graph", "pair.json", *_ANGLES, *allow])
    # the shapes the benchmark's verify_large times
    for kind, *params in _KINDS:
        out.append(["verify", "--kind", kind, "--M", "20", *params, "--seed", "1", *_ANGLES])
    for M in (14, 16, 18):
        out.append(
            ["verify", "--kind", "erdos_renyi", "--M", str(M), "--p", "0.3", "--seed", "1",
             *_ANGLES]
        )
    out.append(["ed", "--kind", "cycle", "--M", "5", "--theta", "40", "--psi", "10", "--deg"])
    for fmt in ("csv", "json"):
        out.append(
            ["sweep-theta", "--kind", "erdos_renyi", "--M", "6", "--p", "0.5", "--seed", "2",
             "--psi", "0.3", "--grid", "11", "--format", fmt]
        )
        out.append(["sweep-theta", "--graph", "pair.json", "--grid", "11", "--format", fmt,
                    "--allow-antiparallel"])
        out.append(
            ["sweep-alpha", "--theta", "1.2", "--psi", "0.4", "--grid", "11", "--format", fmt]
        )
        out.append(
            ["sweep-theta", "--kind", "erdos_renyi", "--M", "10", "--p", "0.3", "--seed", "1",
             "--grid", "101", "--format", fmt]
        )
        out.append(["sweep-alpha", *_ANGLES, "--grid", "101", "--format", fmt])
    # M=1 is the one-vertex empty graph for every kind but cycle, which
    # refuses it; only erdos_renyi reads --seed.
    out.append(["gen", "--kind", "path", "--M", "1"])
    out.append(["gen", "--kind", "cycle", "--M", "1"])
    for kind in digraph.GENERATOR_KINDS:
        params = ["--p", "0.3"] if kind == "erdos_renyi" else []
        for M in (2, 3, 6, 50):
            for seed in (0, 1) if kind == "erdos_renyi" else (0,):
                out.append(["gen", "--kind", kind, "--M", str(M), *params, "--seed", str(seed)])
    out.append(["verify", "--kind", "path", "--M", "3", "--theta", "nan"])  # exit 2
    out.append(["verify", "--kind", "path", "--M", "25", "--theta", "1"])  # exit 64
    # refusals, one per error class (exits 1 and 70 no input should reach)
    for name in ("bad.json", "latin1.json", "loop.json", "dup.json", "range.json",
                 "huge_M.json", "missing.json"):
        out.append(["verify", "--graph", name, "--theta", "1"])  # exit 2
    out.append(["ed", "--graph", "huge_end.json", "--theta", "1"])
    out.append(["gen", "--kind", "erdos_renyi", "--M", "3"])  # no --p
    out.append(["gen", "--kind", "erdos_renyi", "--M", "3", "--p", "1.5"])
    out.append(["sweep-alpha", "--theta", "1", "--grid", "2"])
    out.append(["--x", "suite"])
    word = "x" * 100  # argparse quotes a refused word; the line shows 40 characters of it
    out.append(["gen", "--kind", word, "--M", "3"])
    out.append(["verify", "--kind", "path", "--M", "3", "--theta", word])
    out.append(["suite", word])
    out.append(["suite", "--max-M", word])
    out.append(["sweep-theta", "--kind", "path", "--M", "3", "--format", word])
    out.append(["gen", "--kind", "path", "--M", "9" * 5000])  # past the int digit limit
    out.append(["suite", "--seed", "9" * 5000])
    out.append(["suite", "--max-M", "25"])  # exit 64
    out.append(["gen", "--kind", "complete_dag", "--M", "1000000"])  # exit 64
    return out


def install() -> dict:
    """What decides the last bits of a printed float: numpy, its BLAS and the CPU."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "simd": config.get("SIMD Extensions", {}).get("found", []),
    }


def carries_floats(argv: list[str], code: int) -> bool:
    """Whether a case's output holds computed floats: all but ``gen`` and refusals."""
    return argv[0] != "gen" and code not in (2, 64)


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and SHA-256 of exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, doc in FILES.items():
            data = doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8")
            Path(work, name).write_bytes(data)
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(home)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8")
    return code, hashlib.sha256(blob).hexdigest()


def main() -> None:
    rows = []
    for argv in cases():
        code, sha = run(argv)
        row = {"argv": argv, "floats": carries_floats(argv, code), "sha256": sha}
        rows.append(json.dumps(row))
    text = (
        f'{{"install": {json.dumps(install())}, "cases": [\n' + ",\n".join(rows) + "\n]}\n"
    )
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"{len(rows)} cases written to {GOLDEN.name} (numpy {np.__version__})")


if __name__ == "__main__":
    main()
