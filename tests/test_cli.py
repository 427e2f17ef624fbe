"""CLI behavior: artifacts, formats, determinism, and exit codes."""

import hashlib
import json
import math
import os
import tracemalloc

import pytest

from digraph_ed import cli, digraph, entanglement, statevector, suite
from digraph_ed.cli import EXIT_BAD_INPUT, EXIT_CAPABILITY, EXIT_OK, EXIT_VIOLATION


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_star_to_stdout(self, capsys):
        code, out, _ = run(["gen", "--kind", "star_out", "--M", "4"], capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {"M": 4, "edges": [[0, 1], [0, 2], [0, 3]]}

    def test_erdos_renyi_to_file_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--kind", "erdos_renyi", "--M", "8", "--p", "0.3", "--seed", "42"]
        assert cli.main(argv + ["--out", str(p1)]) == EXIT_OK
        assert cli.main(argv + ["--out", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_er_requires_p(self, capsys):
        code, _, err = run(["gen", "--kind", "erdos_renyi", "--M", "4"], capsys)
        assert code == EXIT_BAD_INPUT
        assert "requires --p" in err

    def test_qubit_cap_does_not_bound_gen(self, capsys):
        # gen builds no state: M above the qubit cap is generated as the library does
        argv = ["gen", "--kind", "erdos_renyi", "--M", "40", "--p", "0.3", "--seed", "7"]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert out == digraph.dump_graph(digraph.generate("erdos_renyi", 40, {"p": 0.3}, 7))

    @pytest.mark.parametrize(
        "kind,M,accepted",
        [
            ("erdos_renyi", 3000, True),  # up to 4498500 edges
            ("erdos_renyi", 3001, False),
            ("complete_dag", 3000, True),
            ("complete_dag", 3001, False),
            ("star_out", cli.MAX_GEN_EDGES, True),
            ("path", cli.MAX_GEN_EDGES + 1, False),
        ],
    )
    def test_edge_bound_is_checked_before_generating(self, kind, M, accepted, capsys, monkeypatch):
        made = []

        def fake(kind, M, params, seed):
            made.append(M)
            return digraph.DirectedGraph(2, ((0, 1),))

        monkeypatch.setattr(digraph, "generate", fake)
        p = ["--p", "0.5"] if kind == "erdos_renyi" else []
        code, _, err = run(["gen", "--kind", kind, "--M", str(M), *p], capsys)
        if accepted:
            assert code == EXIT_OK and made == [M]
        else:
            assert code == EXIT_CAPABILITY and made == []
            assert err.count("\n") == 1 and f"over the gen bound of {cli.MAX_GEN_EDGES}" in err

    def test_edge_bound_refuses_without_allocating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generated a graph over the edge bound")

        monkeypatch.setattr(digraph, "generate", refuse)
        tracemalloc.start()
        try:
            code, out, err = run(["gen", "--kind", "complete_dag", "--M", "1000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CAPABILITY and out == ""
        assert err == (
            "error: complete_dag at M=1000000 makes up to 499999500000 edges, "
            "over the gen bound of 4500000\n"
        )
        assert peak < 1 << 20


class TestEd:
    def test_prints_per_vertex_and_total(self, capsys):
        code, out, _ = run(
            ["ed", "--kind", "star_out", "--M", "3", "--theta", str(math.pi / 4)], capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("E(0) = ")
        total = float(lines[-1].split(" = ")[1])
        assert abs(total - 7.0 / 12.0) < 1e-9

    def test_reads_bloch_vectors_once_and_prints_library_values(self, capsys, monkeypatch):
        g = digraph.generate("erdos_renyi", 7, {"p": 0.4}, seed=3)
        state = statevector.build_graph_state(g, statevector.GateParams(0.9, 0.4))
        fmt = entanglement.fmt17
        want = "".join(
            f"E({i}) = {fmt(1.0 - v.norm_sq)}\n"
            for i, v in enumerate(statevector.bloch_vectors(state))
        ) + f"E_total = {fmt(entanglement.ed_total(state))}\n"
        # ed reads every qubit in one batched read of the one state
        calls = []
        real = statevector.bloch_arrays
        monkeypatch.setattr(
            statevector, "bloch_arrays", lambda amps: calls.append(amps.shape) or real(amps)
        )
        code, out, _ = run(
            ["ed", "--kind", "erdos_renyi", "--M", "7", "--p", "0.4", "--seed", "3",
             "--theta", "0.9", "--psi", "0.4"],
            capsys,
        )
        assert code == EXIT_OK
        assert out == want
        assert calls == [(1, 1 << 7)]

    def test_star_output_is_pinned(self, capsys):
        _, out, _ = run(
            ["ed", "--kind", "star_out", "--M", "3", "--theta", str(math.pi / 4)], capsys
        )
        assert out == "E(0) = 0.75\nE(1) = 0.5\nE(2) = 0.5\nE_total = 0.58333333333333326\n"

    def test_multi_block_output_is_pinned(self, capsys):
        # M=17 spans two 1 MiB blocks; SHA-256 of stdout as the standalone read printed it
        code, out, err = run(
            ["ed", "--kind", "erdos_renyi", "--M", "17", "--p", "0.3", "--seed", "1",
             "--theta", "0.7", "--psi", "0.3"],
            capsys,
        )
        assert code == EXIT_OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "13de031de87c3295bccdb82f2920afe100714c03e86303e2a88fb01e9bc245b6"
        )

    def test_one_based_pair_file_output_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(
            '{"M": 5, "edges": [[1, 2], [2, 1], [2, 3], [4, 5], [5, 1], [3, 4], [4, 3]], '
            '"labels_base": 1}'
        )
        argv = ["ed", "--graph", str(path), "--theta", "0.9", "--psi", "-0.2"]
        code, out, err = run(argv + ["--allow-antiparallel"], capsys)
        assert code == EXIT_OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b4129ffdf8b0ef9957d209c49c8f258ebb2fbff4a5f80c14fb62e0dad6bdb118"
        )

    def test_deg_flag(self, capsys):
        _, out_rad, _ = run(["ed", "--kind", "path", "--M", "2", "--theta", str(math.pi / 2)], capsys)
        _, out_deg, _ = run(["ed", "--kind", "path", "--M", "2", "--theta", "90", "--deg"], capsys)
        assert out_rad == out_deg

    def test_graph_file_source(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"M": 2, "edges": [[1, 2]], "labels_base": 1}')
        code, out, _ = run(["ed", "--graph", str(path), "--theta", str(math.pi / 2)], capsys)
        assert code == EXIT_OK
        assert abs(float(out.strip().splitlines()[-1].split(" = ")[1]) - 1.0) < 1e-12

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"M": 2, "edges": [[0, 1]]}')
        code, _, _ = run(["ed", "--theta", "0.5"], capsys)
        assert code == EXIT_BAD_INPUT
        code, _, _ = run(
            ["ed", "--graph", str(path), "--kind", "path", "--M", "2", "--theta", "0.5"], capsys
        )
        assert code == EXIT_BAD_INPUT

    def test_bad_graph_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"M": 2, "edges": [[0, 0]]}')
        code, _, err = run(["ed", "--graph", str(path), "--theta", "0.5"], capsys)
        assert code == EXIT_BAD_INPUT
        assert "self-loop" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(["ed", "--graph", "/nonexistent.json", "--theta", "0.5"], capsys)
        assert code == EXIT_BAD_INPUT


class TestVerify:
    def test_star_report(self, capsys):
        code, out, _ = run(
            ["verify", "--kind", "star_out", "--M", "3", "--theta", "0.785398", "--psi", "0.3"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert abs(doc["total_sv"] - 0.583333) < 1e-5
        assert doc["discrepancy"] < 1e-10
        assert doc["policy"] == "default"

    def test_byte_identical_artifacts(self, tmp_path):
        argv = [
            "verify", "--kind", "erdos_renyi", "--M", "6", "--p", "0.5",
            "--seed", "3", "--theta", "1.1", "--psi", "0.2",
        ]
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(argv + ["--out", str(p1)]) == EXIT_OK
        assert cli.main(argv + ["--out", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_and_trace_on_one_file_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # the trace file is opened first and written last, so it would overwrite the report
        def refuse(*args, **kwargs):
            raise AssertionError("started work with --out and --trace on one file")

        argv = ["verify", "--kind", "path", "--M", "3", "--theta", "1"]
        report = tmp_path / "report.json"
        assert cli.main(argv + ["--out", str(report)]) == EXIT_OK
        before = report.read_bytes()
        (tmp_path / "link.json").symlink_to(report)
        os.link(report, tmp_path / "hard.json")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(digraph, "generate", refuse)
        for out, trace in [(str(report), str(report)), ("report.json", "./link.json"),
                           ("report.json", "hard.json"), ("new.json", "new.json")]:
            code, stdout, err = run(argv + ["--out", out, "--trace", trace], capsys)
            assert (code, stdout) == (EXIT_BAD_INPUT, "")
            assert err.startswith("error: --out and --trace name one file, ")
            assert err.count("\n") == 1
        assert report.read_bytes() == before
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["hard.json", "link.json", "report.json"]

    def test_report_is_pinned(self, capsys):
        # every bit of a 9-qubit build and read, as the doubling build wrote
        # them one qubit at a time (a changed numpy loop shows in the last digit)
        code, out, _ = run(
            ["verify", "--kind", "erdos_renyi", "--M", "9", "--p", "0.5", "--seed", "4",
             "--theta", "0.9", "--psi", "0.3"],
            capsys,
        )
        assert code == EXIT_OK
        assert out == (
            '{"per_vertex": [0.99138649911091703, 0.99667175227777871, 0.97770827061012244, '
            "0.99871396856596251, 0.99667175227777871, 0.99667175227777871, 0.99138649911091703, "
            '0.99667175227777871, 0.9987139685659624], "total_sv": 0.99384402389722182, '
            '"total_cf": 0.99384402389722182, "discrepancy": 0, "theta": 0.90000000000000036, '
            '"psi": 0.29999999999999982, '
            '"graph_hash": "92d448e4ce03b8278994ae2b72e4c0cb5da1c74bdeb229fae3be17cfa485a217", '
            '"policy": "default", "seed_info": "kind=erdos_renyi M=9 seed=4"}\n'
        )

    def test_graph_file_is_walked_once(self, tmp_path, capsys, monkeypatch):
        # reading does not check the graph; the first validate walks it, and the
        # build, the closed form and the report read the records it kept, at
        # every point of a sweep too
        walks = []
        real = digraph._walk
        monkeypatch.setattr(digraph, "_walk", lambda g: walks.append(g.M) or real(g))
        path = tmp_path / "g.json"
        path.write_text('{"M": 4, "edges": [[0, 1], [2, 1], [3, 0]]}')
        code, _, _ = run(["verify", "--graph", str(path), "--theta", "0.5"], capsys)
        assert code == EXIT_OK
        assert walks == [4]
        code, out, _ = run(["sweep-theta", "--graph", str(path), "--grid", "5"], capsys)
        assert code == EXIT_OK and len(out.splitlines()) == 6
        assert walks == [4, 4]

    @pytest.mark.parametrize("command", ["ed", "verify", "sweep-theta"])
    def test_escape_hatch(self, command, tmp_path, capsys):
        # the CLI applies the edge policy for every command that builds a state
        path = tmp_path / "anti.json"
        path.write_text('{"M": 2, "edges": [[0, 1], [1, 0]]}')
        argv = [command, "--graph", str(path)]
        if command != "sweep-theta":
            argv += ["--theta", "0.5"]
        code, out, err = run(argv, capsys)
        assert code == EXIT_BAD_INPUT and out == ""  # rejected under default policy
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: antiparallel pair (0, 1)"), err
        assert "pass --allow-antiparallel to admit it" in err  # the flag, not the keyword
        code, out, _ = run(argv + ["--allow-antiparallel"], capsys)
        assert code == EXIT_OK
        want = 1.0 - math.cos(1.0) ** 2  # the pair at theta 0.5: a factor cos(2 theta)
        if command == "ed":
            assert abs(float(out.splitlines()[-1].split(" = ")[1]) - want) < 1e-12
        elif command == "verify":
            doc = json.loads(out)
            assert abs(doc["total_cf"] - want) < 1e-15
            assert doc["discrepancy"] < 1e-10 and doc["policy"] == "allow_antiparallel"
        else:
            rows = out.splitlines()[1:]
            assert len(rows) == 101
            assert all(float(row.split(",")[3]) < 1e-10 for row in rows)


class TestSweeps:
    def test_sweep_theta_csv(self, capsys):
        code, out, _ = run(
            ["sweep-theta", "--kind", "cycle", "--M", "3", "--grid", "5"], capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "theta,E_sv,E_cf,discrepancy"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # identity gate row
        last = lines[-1].split(",")
        assert abs(float(last[0]) - math.pi) < 1e-15
        for row in lines[1:]:
            assert float(row.split(",")[3]) < 1e-10

    def test_sweep_theta_json(self, capsys):
        code, out, _ = run(
            ["sweep-theta", "--kind", "path", "--M", "3", "--grid", "3", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 3
        assert set(rows[0]) == {"theta", "E_sv", "E_cf", "discrepancy"}

    def test_sweep_alpha_csv(self, capsys):
        code, out, _ = run(
            ["sweep-alpha", "--theta", str(math.pi / 2), "--grid", "11"], capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,E,S_nats,D_HS"
        assert len(lines) == 12
        t0 = lines[1].split(",")
        assert float(t0[0]) == 0.0 and float(t0[1]) == 0.0 and float(t0[2]) == 0.0
        assert abs(float(t0[3]) - 0.5) < 1e-15
        mid = lines[6].split(",")
        assert float(mid[0]) == 0.5
        assert abs(float(mid[1]) - 1.0) < 1e-12

    def test_sweep_alpha_golden(self, capsys):
        # recorded with the sweep that built and read one state per point
        code, out, _ = run(
            ["sweep-alpha", "--theta", "1.1", "--psi", "0.3", "--grid", "11"], capsys
        )
        assert code == EXIT_OK
        assert out == (
            "t,E,S_nats,D_HS\n"
            "0,0,0,0.5\n"
            "0.10000000000000001,0.10293487239814625,0.12211317017742765,0.47356761069615327\n"
            "0.20000000000000001,0.32532502881389447,0.30093152815890711,0.4106930031014972\n"
            "0.29999999999999999,0.5604231941676856,0.45349508182122855,0.33150294336261726\n"
            "0.40000000000000002,0.73198131483126305,0.552398901457122,0.2588526053416968\n"
            "0.5,0.79425055862767258,0.58641761739190368,0.22679806071278885\n"
            "0.59999999999999998,0.73198131483126294,0.55239890145712189,0.25885260534169685\n"
            "0.69999999999999996,0.56042319416768582,0.45349508182122866,0.33150294336261715\n"
            "0.80000000000000004,0.32532502881389469,0.30093152815890728,0.41069300310149714\n"
            "0.90000000000000002,0.10293487239814625,0.12211317017742779,0.47356761069615333\n"
            "1,0,0,0.5\n"
        )

    def test_sweep_byte_identical(self, tmp_path):
        argv = ["sweep-theta", "--kind", "star_out", "--M", "4", "--grid", "7"]
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli.main(argv + ["--out", str(p1)]) == EXIT_OK
        assert cli.main(argv + ["--out", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_alpha_escape_requires_theta(self, capsys):
        code, _, _ = run(["sweep-alpha", "--grid", "5"], capsys)
        assert code == EXIT_BAD_INPUT  # argparse: --theta is required


class TestCaps:
    """The engine's qubit cap is the CLI's one cap: no flag or variable sets it."""

    def test_flag_cap(self, capsys):
        # there is no --max-qubits: any use of it is a usage error that names it
        for flag in (["--max-qubits", "8"], ["--max-qubits=8"]):
            code, out, err = run(
                [*flag, "ed", "--kind", "path", "--M", "4", "--theta", "0.5"], capsys
            )
            assert code == EXIT_BAD_INPUT
            assert out == ""
            assert err == (
                "error: digraph-ed: unrecognized option '--max-qubits' before the command\n"
            )

    def test_env_cap(self, capsys, monkeypatch):
        # DIGRAPH_ED_MAX_QUBITS is not read: no value, not even a bad one, changes a run
        argv = ["ed", "--kind", "path", "--M", "4", "--theta", "0.5"]
        over = ["ed", "--kind", "path", "--M", "25", "--theta", "0.5"]
        _, want, _ = run(argv, capsys)
        for env in ("3", "abc", "-5", "25"):
            monkeypatch.setenv("DIGRAPH_ED_MAX_QUBITS", env)
            assert run(argv, capsys) == (EXIT_OK, want, ""), env
            assert run(over, capsys) == (
                EXIT_CAPABILITY, "", "error: M=25 qubits exceeds the cap of 24\n"
            ), env

    def test_default_cap_is_24(self, tmp_path, capsys, monkeypatch):
        assert statevector.DEFAULT_MAX_QUBITS == 24
        code, out, err = run(["ed", "--kind", "path", "--M", "21", "--theta", "0.5"], capsys)
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[-1].startswith("E_total = ")

        def refuse(*args, **kwargs):
            raise AssertionError("built a state over the qubit cap")

        monkeypatch.setattr(cli, "verify_graph", refuse)
        path = tmp_path / "g25.json"
        path.write_text('{"M": 25, "edges": [[0, 1]]}')
        report = tmp_path / "report.json"
        for source in (["--kind", "path", "--M", "25"], ["--graph", str(path)]):
            argv = ["verify", *source, "--theta", "0.5", "--out", str(report)]
            code, out, err = run(argv, capsys)
            assert code == EXIT_CAPABILITY
            assert out == ""
            assert err == "error: M=25 qubits exceeds the cap of 24\n"
            assert not report.exists()

    def test_engine_cap_governs_the_cli(self, tmp_path, capsys, monkeypatch):
        # one monkeypatch of the engine's cap moves the CLI's, for every source
        monkeypatch.setattr(statevector, "DEFAULT_MAX_QUBITS", 3)
        path = tmp_path / "g.json"
        path.write_text(digraph.dump_graph(digraph.generate("path", 4)))
        for argv in (
            ["ed", "--kind", "path", "--M", "4", "--theta", "0.5"],
            ["verify", "--graph", str(path), "--theta", "0.5"],
            ["suite", "--graphs", "1", "--max-M", "4"],
        ):
            code, out, err = run(argv, capsys)
            assert code == EXIT_CAPABILITY, argv
            assert out == ""
            assert err == "error: M=4 qubits exceeds the cap of 3\n"
        code, _, _ = run(["ed", "--kind", "path", "--M", "3", "--theta", "0.5"], capsys)
        assert code == EXIT_OK


class TestSuiteCommand:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(
            ["suite", "--seed", "11", "--graphs", "12", "--max-M", "6"], capsys
        )
        assert code == EXIT_OK
        assert "suite: PASS" in out
        assert out.count(": ok") == len(suite.CHECKS)  # one line per check

    def test_injected_closed_form_perturbation_fails_suite(self, capsys, monkeypatch):
        orig = entanglement.ed_closed_form
        monkeypatch.setattr(
            entanglement, "ed_closed_form", lambda g, theta: orig(g, theta) + 1e-6
        )
        code, out, _ = run(
            ["suite", "--seed", "11", "--graphs", "12", "--max-M", "6"], capsys
        )
        assert code == EXIT_VIOLATION
        assert "suite: FAIL" in out
        assert "closed_form_agreement: VIOLATION" in out

    def test_jobs_do_not_change_result(self, capsys):
        _, out1, _ = run(["suite", "--seed", "4", "--graphs", "8", "--max-M", "5"], capsys)
        _, out4, _ = run(
            ["suite", "--seed", "4", "--graphs", "8", "--max-M", "5", "--jobs", "4"], capsys
        )
        assert out1 == out4


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == EXIT_BAD_INPUT

    def test_missing_required_angle(self, capsys):
        assert cli.main(["ed", "--kind", "path", "--M", "2"]) == EXIT_BAD_INPUT

    def test_bad_grid(self, capsys):
        code, _, _ = run(
            ["sweep-theta", "--kind", "path", "--M", "2", "--grid", "1"], capsys
        )
        assert code == EXIT_BAD_INPUT


class TestInternalErrors:
    def test_unexpected_exception_is_one_line_and_exit_70(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("kernel\nfailed")

        monkeypatch.setattr(cli, "cmd_verify", broken)
        code, out, err = run(["verify", "--kind", "path", "--M", "3", "--theta", "0.4"], capsys)
        assert code == cli.EXIT_INTERNAL == 70
        assert out == ""
        assert err == "error: internal: RuntimeError: kernel failed\n"


class TestInputHardening:
    """Bad numbers and bad bytes end in exit 2 and one ``error:`` line."""

    @pytest.mark.parametrize("word", ["\n", "a\r\nb", "x\u2028y"])
    def test_a_line_break_in_an_argument_stays_on_the_error_line(self, word, capsys):
        # argparse quotes unrecognized arguments raw: a newline once split the error
        code, out, err = run(["suite", word], capsys)
        assert code == EXIT_BAD_INPUT and out == ""
        assert err.startswith("error: digraph-ed: unrecognized arguments:")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--graphs", "4", "--max-M", "1"],
            ["verify", "--graph", "NON_UTF8", "--theta", "0.5"],
            # there is no --max-qubits: any value of it is a usage error
            ["--max-qubits", "-5", "ed", "--kind", "path", "--M", "3", "--theta", "0.5"],
            ["suite", "--graphs", "0"],
            ["suite", "--jobs", "0"],
            ["suite", "--jobs", "-4"],
            ["--max-qubits", "25", "ed", "--kind", "path", "--M", "3", "--theta", "0.5"],
            ["--jobs", "2", "suite"],
            ["-x", "ed", "--kind", "path", "--M", "3", "--theta", "0.5"],
            ["gen", "--kind", "path", "--M", "0"],
            ["verify", "--kind", "path", "--M", "-3", "--theta", "0.5"],
            ["gen", "--kind", "erdos_renyi", "--M", "3", "--p", "0.5", "--seed", "-1"],
            ["verify", "--kind", "erdos_renyi", "--M", "3", "--p", "0.5",
             "--theta", "0.5", "--seed", "-5"],
            ["suite", "--seed", "-1"],
            ["sweep-alpha", "--theta", "1", "--grid", "2"],
            ["sweep-alpha", "--theta", "1", "--grid", "ten"],
        ],
        ids=["suite_max_m_1", "non_utf8_graph_file",
             "negative_max_qubits", "suite_zero_graphs", "suite_zero_jobs",
             "suite_negative_jobs", "max_qubits_over_engine_cap",
             "jobs_before_the_command", "unknown_short_option_before_the_command",
             "gen_zero_M", "verify_negative_M",
             "gen_negative_seed", "verify_negative_seed", "suite_negative_seed",
             "sweep_alpha_grid_2", "sweep_alpha_grid_not_an_integer"],
    )
    def test_one_error_line_and_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"M": 2, "edges": [], "labels_base": 0} \xe9'.encode("latin-1"))
        argv = [str(path) if a == "NON_UTF8" else a for a in argv]
        code, out, err = run(argv, capsys)
        assert code == EXIT_BAD_INPUT
        assert "suite: PASS" not in out
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        if argv[0].startswith("-"):
            # the option is named, not its value taken for the command
            assert lines[0] == (
                f"error: digraph-ed: unrecognized option {argv[0]!r} before the command"
            )

    def test_kind_without_M(self, capsys):
        code, out, err = run(["verify", "--kind", "path", "--theta", "1"], capsys)
        assert (code, out, err) == (EXIT_BAD_INPUT, "", "error: --kind requires --M\n")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he", "ed"], ["-h", "--M", "3"]])
    def test_help_before_the_command(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_OK and err == ""
        assert out.startswith("usage: digraph-ed ")

    @pytest.mark.parametrize(
        "max_m,env,engine_cap",
        [
            (25, None, None),
            (21, None, 8),
            # a set DIGRAPH_ED_MAX_QUBITS does not lower the cap
            (25, "8", None),
        ],
        ids=["suite_max_m_over_default_cap", "suite_max_m_over_patched_cap",
             "suite_max_m_over_env_cap"],
    )
    def test_suite_max_m_is_checked_before_the_battery(
        self, max_m, env, engine_cap, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("built a battery over the qubit cap")

        if env is not None:
            monkeypatch.setenv("DIGRAPH_ED_MAX_QUBITS", env)
        if engine_cap is not None:
            monkeypatch.setattr(statevector, "DEFAULT_MAX_QUBITS", engine_cap)
        monkeypatch.setattr(suite, "population", refuse)
        code, out, err = run(["suite", "--graphs", "1", "--max-M", str(max_m)], capsys)
        assert code == EXIT_CAPABILITY
        assert out == ""
        cap = engine_cap or 24
        assert err == f"error: M={max_m} qubits exceeds the cap of {cap}\n"

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            # gen is bounded by its edges, not by the qubit cap
            (["gen", "--kind", "complete_dag", "--M", "1000000"], "over the gen bound of"),
            (["verify", "--kind", "complete_dag", "--M", "25", "--theta", "1"],
             "error: M=25 qubits exceeds the cap of 24"),
            (["ed", "--kind", "star_out", "--M", "25", "--theta", "1"],
             "error: M=25 qubits exceeds the cap of 24"),
            (["sweep-theta", "--kind", "erdos_renyi", "--M", "25", "--p", "0.5"],
             "error: M=25 qubits exceeds the cap of 24"),
        ],
        ids=["gen", "verify", "ed", "sweep_theta"],
    )
    def test_cap_is_checked_before_generating(self, argv, refusal, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generated a graph over its bound")

        monkeypatch.setattr(digraph, "generate", refuse)
        code, _, err = run(argv, capsys)
        assert code == EXIT_CAPABILITY
        lines = err.strip().splitlines()
        assert len(lines) == 1 and refusal in lines[0], err

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["sweep-theta", "--kind", "erdos_renyi", "--M", "4", "--p", "0.5", "--grid", "1"],
             "must be >= 2, got 1"),
            (["sweep-theta", "--kind", "erdos_renyi", "--M", "4", "--p", "0.5",
              "--grid", str(cli.MAX_GRID + 1)],
             f"must be <= {cli.MAX_GRID}, got {cli.MAX_GRID + 1}"),
            (["sweep-alpha", "--theta", "1", "--grid", "1000000000"],
             f"must be <= {cli.MAX_GRID}, got 1000000000"),
            # past Python's 4300-digit limit for reading an int, still an integer
            (["sweep-alpha", "--theta", "1", "--grid", "9" * 5000],
             f"out of range, got '{'9' * 36}..."),
        ],
        ids=["sweep_theta_grid_1", "sweep_theta_grid_over_max", "sweep_alpha_grid_1e9",
             "sweep_alpha_grid_5000_digits"],
    )
    def test_grid_is_checked_before_any_work(self, argv, bound, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("started a sweep with a bad --grid")

        monkeypatch.setattr(digraph, "generate", refuse)
        monkeypatch.setattr(cli, "alpha_sweep", refuse)
        code, out, err = run(argv, capsys)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == f"error: digraph-ed {argv[0]}: argument --grid: {bound}\n"

    def test_suite_graphs_is_checked_before_the_battery(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a battery for a bad --graphs")

        monkeypatch.setattr(suite, "population", refuse)
        code, out, err = run(["suite", "--graphs", "100000000"], capsys)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == (
            f"error: digraph-ed suite: argument --graphs: "
            f"must be <= {cli.MAX_GRAPHS}, got 100000000\n"
        )
        assert cli.build_parser().parse_args(
            ["suite", "--graphs", str(cli.MAX_GRAPHS)]
        ).graphs == cli.MAX_GRAPHS

    @pytest.mark.parametrize(
        "document,message",
        [
            ("[" * 200_000, "JSON nested too deeply to parse"),
            ('{"M": 2, "edges": [[1, 2]], "labels_base": true}',
             "'labels_base' must be 0 or 1, got True"),
            ('{"M": 2, "edges": [[1, 2]], "labels_base": 1.0}',
             "'labels_base' must be 0 or 1, got 1.0"),
            ('{"M": ' + "9" * 5000 + ', "edges": []}',
             "graph.json: a JSON integer has more than 4300 digits"),
            ('{"M": 3, "edges": [[0, ' + "9" * 5000 + "]]}",
             "graph.json: a JSON integer has more than 4300 digits"),
        ],
        ids=["deeply_nested_json", "bool_labels_base", "float_labels_base",
             "M_past_the_int_digit_limit", "endpoint_past_the_int_digit_limit"],
    )
    def test_bad_graph_document_is_a_parse_error(self, document, message, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text(document, encoding="utf-8")
        code, out, err = run(["verify", "--graph", str(path), "--theta", "0.5"], capsys)
        assert code == EXIT_BAD_INPUT and out == ""
        assert err.endswith(f"{message}\n") and err.count("\n") == 1, err
        assert err.startswith("error: ")

    @pytest.mark.parametrize("value", ["-1e-3", "-.5e2", "-2E+1", "-1", "-2.5"])
    @pytest.mark.parametrize("option", ["--theta", "--psi"])
    def test_a_negative_float_is_an_option_value(self, option, value, capsys):
        # argparse itself reads only -1 and -2.5 as numbers, -1e-3 as an option
        angles = {"--theta": "1", "--psi": "0", option: value}
        spaced = [word for pair in angles.items() for word in pair]
        joined = [f"{name}={v}" for name, v in angles.items()]
        code, out, err = run(["sweep-alpha", "--grid", "3", *spaced], capsys)
        assert (code, out, err) == run(["sweep-alpha", "--grid", "3", *joined], capsys)
        assert code == EXIT_OK and len(out.splitlines()) == 4
        args = cli.build_parser().parse_args(["sweep-alpha", *spaced])
        assert getattr(args, option[2:]) == float(value)

    @pytest.mark.parametrize("command", ["gen", "verify"])
    def test_a_negative_p_reaches_the_generator(self, command, capsys):
        argv = [command, "--kind", "erdos_renyi", "--M", "3", "--p", "-1e-3"]
        code, out, err = run(argv + (["--theta", "1"] if command == "verify" else []), capsys)
        assert code == EXIT_BAD_INPUT and out == ""
        assert err == "error: edge probability p=-0.001 outside [0, 1]\n"

    @pytest.mark.parametrize(
        "angles,shown",
        [(["--theta", "-inf"], "(-inf, 0.0)"), (["--theta", "1", "--psi", "-inf"], "(1.0, -inf)"),
         (["--theta", "-Infinity", "--deg"], "(-inf, 0.0)")],
    )
    def test_a_non_finite_angle_is_refused(self, angles, shown, capsys):
        code, out, err = run(["sweep-alpha", "--grid", "3", *angles], capsys)
        assert code == EXIT_BAD_INPUT and out == ""
        assert err == f"error: gate angles must be finite, got {shown}\n"

    def test_grid_bounds_are_accepted(self, capsys):
        code, out, _ = run(["sweep-theta", "--kind", "path", "--M", "2", "--grid", "2"], capsys)
        assert code == EXIT_OK and len(out.splitlines()) == 3
        code, out, _ = run(["sweep-alpha", "--theta", "1", "--grid", "3"], capsys)
        assert code == EXIT_OK and len(out.splitlines()) == 4

    WORD, NINES = "x" * 2000, "9" * 2000

    @pytest.mark.parametrize(
        "huge,short,code",
        [
            (["gen", "--kind", "path", "--M", WORD], ["gen", "--kind", "path", "--M", "x"],
             EXIT_BAD_INPUT),
            (["gen", "--kind", "path", "--M", "3", "--seed", WORD],
             ["gen", "--kind", "path", "--M", "3", "--seed", "x"], EXIT_BAD_INPUT),
            (["gen", "--kind", "path", "--M", "3", "--seed", "-" + NINES],
             ["gen", "--kind", "path", "--M", "3", "--seed", "-9"], EXIT_BAD_INPUT),
            (["sweep-alpha", "--theta", "1", "--grid", NINES],
             ["sweep-alpha", "--theta", "1", "--grid", "999999"], EXIT_BAD_INPUT),
            (["--" + WORD, "suite"], ["--x", "suite"], EXIT_BAD_INPUT),
            (["gen", "--kind", "path", "--M", NINES],
             ["gen", "--kind", "path", "--M", str(cli.MAX_GEN_EDGES + 1)], EXIT_CAPABILITY),
            # M (M - 1) / 2 has about 8000 digits, past Python's int-to-str limit
            (["gen", "--kind", "complete_dag", "--M", "9" * 4000],
             ["gen", "--kind", "complete_dag", "--M", "1000000"], EXIT_CAPABILITY),
            (["verify", "--kind", "path", "--M", NINES, "--theta", "1"],
             ["verify", "--kind", "path", "--M", "25", "--theta", "1"], EXIT_CAPABILITY),
            (["suite", "--max-M", NINES], ["suite", "--max-M", "25"], EXIT_CAPABILITY),
            # argparse's own messages, which quote the word
            (["gen", "--kind", WORD, "--M", "3"], ["gen", "--kind", "x", "--M", "3"],
             EXIT_BAD_INPUT),
            (["verify", "--kind", "path", "--M", "3", "--theta", WORD],
             ["verify", "--kind", "path", "--M", "3", "--theta", "x"], EXIT_BAD_INPUT),
            (["suite", WORD], ["suite", "x"], EXIT_BAD_INPUT),
            (["suite", "--max-M", WORD], ["suite", "--max-M", "x"], EXIT_BAD_INPUT),
            (["sweep-theta", "--kind", "path", "--M", "3", "--format", WORD],
             ["sweep-theta", "--kind", "path", "--M", "3", "--format", "x"], EXIT_BAD_INPUT),
            # past Python's 4300-digit limit for reading an int
            (["gen", "--kind", "path", "--M", "9" * 5000], ["gen", "--kind", "path", "--M", "0"],
             EXIT_BAD_INPUT),
            (["suite", "--seed", "9" * 5000], ["suite", "--seed", "-1"], EXIT_BAD_INPUT),
            # many short words, each quoted by argparse
            (["suite", *map(str, range(1, 1001))], ["suite", "1"], EXIT_BAD_INPUT),
            (["gen", "--kind", "x " * 1000, "--M", "3"], ["gen", "--kind", "x ", "--M", "3"],
             EXIT_BAD_INPUT),
        ],
        ids=["gen_M_word", "gen_seed_word", "gen_seed_negative", "sweep_alpha_grid",
             "top_level_option", "gen_path_M", "gen_complete_dag_M", "verify_M", "suite_max_M",
             "gen_kind_word", "verify_theta_word", "suite_stray_word", "suite_max_M_word",
             "sweep_theta_format_word", "gen_M_5000_digits", "suite_seed_5000_digits",
             "suite_1000_stray_words", "gen_kind_1000_short_words"],
    )
    def test_a_huge_argument_gets_its_short_form_s_code_and_one_short_line(
        self, huge, short, code, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("started work on a refused argument")

        monkeypatch.setattr(digraph, "generate", refuse)
        monkeypatch.setattr(suite, "population", refuse)
        for argv in (short, huge):
            got, out, err = run(argv, capsys)
            assert (got, out) == (code, "")
            line = err.encode("utf-8")
            assert line.startswith(b"error: ") and line.count(b"\n") == 1
            assert len(line.rstrip(b"\n")) <= 200, err

    LONG_PATH = "d" * 3000 + ".json"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--graph", LONG_PATH, "--theta", "1"],
            ["verify", "--kind", "path", "--M", "3", "--theta", "1", "--out", LONG_PATH],
            ["verify", "--kind", "path", "--M", "3", "--theta", "1", "--trace", LONG_PATH],
        ],
        ids=["graph", "out", "trace"],
    )
    def test_a_long_path_gets_one_line_of_at_most_200_bytes(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        # the OSError names the path in full; every exit path cuts its line to 200 bytes.
        # --trace is opened before the command runs, so nothing reaches stdout
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        line = err.encode("utf-8")
        assert line.startswith(b"error: ") and line.count(b"\n") == 1
        assert len(line) == 201 and line.endswith(b"...\n"), err
        assert list(tmp_path.iterdir()) == []

    def test_an_internal_error_line_is_cut_to_200_bytes(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("x" + "\u00e9" * 3000)

        monkeypatch.setattr(cli, "cmd_verify", broken)
        code, _, err = run(["verify", "--kind", "path", "--M", "3", "--theta", "0.4"], capsys)
        assert code == cli.EXIT_INTERNAL
        # the cut drops a two-byte character it would split
        assert err == "error: internal: RuntimeError: x" + "\u00e9" * 82 + "...\n"

    def test_a_huge_edge_bound_is_named_by_its_power_of_two(self, capsys):
        code, _, err = run(["gen", "--kind", "complete_dag", "--M", "9" * 4000], capsys)
        assert code == EXIT_CAPABILITY
        assert err == (
            f"error: complete_dag at M={'9' * 38}...{'9' * 39} makes up to at least 2^26574 "
            "edges, over the gen bound of 4500000\n"
        )
