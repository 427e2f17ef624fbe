"""Spans: ``verify --trace PATH`` and the recorder in digraph_ed.trace."""

import json
import sys
import threading

import pytest

from digraph_ed import cli, trace

KEYS = {
    "id": (int,),
    "parent": (int, type(None)),
    "name": (str,),
    "thread": (str,),
    "M": (int, type(None)),
    "L": (int, type(None)),
    "G": (int, type(None)),
    "start_s": (float,),
    "end_s": (float,),
}


def _verify_trace(tmp_path, M):
    path = tmp_path / "trace.jsonl"
    argv = ["verify", "--kind", "erdos_renyi", "--p", "0.3", "--M", str(M), "--seed", "1",
            "--theta", "0.7", "--psi", "0.3", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv + ["--trace", str(path)]) == cli.EXIT_OK
    *spans, last = [json.loads(line) for line in path.read_text().splitlines()]
    return spans, last


def _overlap(a, b):
    return max(a["start_s"], b["start_s"]) < min(a["end_s"], b["end_s"])


def test_a_verify_trace_holds_every_stage_nested_and_both_threads_overlapping(tmp_path):
    spans, last = _verify_trace(tmp_path, 20)
    for i, s in enumerate(spans):
        assert list(s) == list(KEYS)
        for key, types in KEYS.items():
            assert type(s[key]) in types, (key, s)
        assert s["id"] == i and s["start_s"] <= s["end_s"]
        if s["parent"] is None:
            continue
        parent = spans[s["parent"]]
        assert parent["start_s"] <= s["start_s"] and s["end_s"] <= parent["end_s"], s
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    assert [s["name"] for s in spans if s["parent"] is None] == ["cli.verify"]
    for name in ("digraph.degrees", "statevector.build", "statevector.read",
                 "entanglement.closed_form", "entanglement.report"):
        assert [spans[s["parent"]]["name"] for s in by_name[name]] == ["cli.verify"], name
    build, read = by_name["statevector.build"][0], by_name["statevector.read"][0]
    assert (build["M"], build["G"], build["L"]) == (20, 1, by_name["digraph.degrees"][0]["L"])
    # the build's top qubits on two threads, the Gram and qubit 5 beside the walk
    halves = by_name["statevector.build_half"]
    assert len(halves) == 2 and {s["parent"] for s in halves} == {build["id"]}
    assert len({s["thread"] for s in halves}) == 2 and _overlap(*halves)
    gram, walk = by_name["statevector.gram"] + by_name["statevector.walk"]
    assert gram["parent"] == walk["parent"] == read["id"]
    assert gram["thread"] != walk["thread"] == build["thread"] and _overlap(gram, walk)
    assert list(last) == ["summary"]
    assert list(last["summary"]) == list(by_name)
    for name, entry in last["summary"].items():
        assert entry["count"] == len(by_name[name])
        assert entry["total_s"] == pytest.approx(
            sum(s["end_s"] - s["start_s"] for s in by_name[name])
        )


def test_a_small_verify_traces_one_thread(tmp_path):
    spans, _ = _verify_trace(tmp_path, 12)
    assert {s["thread"] for s in spans} == {spans[0]["thread"]}
    assert "statevector.build_half" not in {s["name"] for s in spans}


def test_tracing_off_is_one_shared_context_and_records_nothing():
    assert trace.span("x", M=3) is trace.span("y") is trace._OFF
    assert trace._records is None


def test_a_failed_command_leaves_the_trace_empty(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    argv = ["verify", "--kind", "path", "--M", "3", "--theta", "nan", "--trace", str(path)]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert path.read_bytes() == b"" and trace._records is None
    assert capsys.readouterr().err.startswith("error: ")


def test_spans_from_many_threads_keep_unique_ids_and_their_parents(tmp_path):
    # more threads than cores, switching often: every record keeps its place and parent
    path = tmp_path / "trace.jsonl"
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with trace.recording(path), trace.span("root"):
            def work():
                for _ in range(200):
                    with trace.span("outer"), trace.span("inner"):
                        pass

            threads = [threading.Thread(target=trace.carry(work)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    *spans, last = [json.loads(line) for line in path.read_text().splitlines()]
    assert [s["id"] for s in spans] == list(range(len(spans))) and len(spans) == 1 + 8 * 400
    for s in spans[1:]:
        parent = spans[s["parent"]]
        assert parent["name"] == {"outer": "root", "inner": "outer"}[s["name"]]
        assert s["name"] == "outer" or parent["thread"] == s["thread"]
    assert last["summary"]["inner"]["count"] == 8 * 200
