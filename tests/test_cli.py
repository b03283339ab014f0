from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from oracles import pool_documents, print_map_document, rose_map_xyz
from traintrack.catalog import SINGLE_FOLD_DOCUMENT
from traintrack.cli import main
from traintrack.reports import certify_json


@pytest.fixture()
def reference_file(tmp_path):
    path = tmp_path / "g.map"
    path.write_text(SINGLE_FOLD_DOCUMENT, encoding="utf-8")
    return str(path)


def test_certify_reference(reference_file, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = main(["certify", reference_file, "--json", str(out_json)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "verdict: PRINCIPAL" in captured
    assert "x^5 - x - 1" in captured
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == "1"
    assert payload["principal"]["verdict"] is True
    assert payload["principal"]["index"] == "-3/2"
    assert payload["spectral"]["characteristic_polynomial"] == [-1, -1, 0, 0, 0, 1]
    assert payload["spectral"]["first_positive_power"] == 17
    assert len(payload["taken_turn_closure"]) == 10


# sha256 of the reference document's ``certify --json`` file
REFERENCE_CERTIFY_JSON_SHA256 = "a790ab7ccb26b57889b4cd23b0eea516ab8e7d45f61a445c30d98bac7b245e7c"


def test_certify_json_built_only_under_json_flag(reference_file, tmp_path, capsys, monkeypatch):
    calls = []

    def counted(report):
        calls.append(report)
        return certify_json(report)

    monkeypatch.setattr("traintrack.reports.certify_json", counted)
    assert main(["certify", reference_file]) == 0
    assert calls == []
    out_json = tmp_path / "report.json"
    assert main(["certify", reference_file, "--json", str(out_json)]) == 0
    assert len(calls) == 1
    assert hashlib.sha256(out_json.read_bytes()).hexdigest() == REFERENCE_CERTIFY_JSON_SHA256


UNTIGHT_DOCUMENT = """\
vertices v
edge a = v -> v
edge b = v -> v

map
a -> a b ~b a
b -> b a
"""

# ``certify`` stdout and the sha256 of its ``--json`` file for two maps that
# are not train track maps: one with an untight edge image, whose witness is
# the edge and which lists no illegal turns, and psi, whose witness is an
# illegal taken turn
NOT_TRAIN_TRACK_GOLDENS = {
    "untight": (
        UNTIGHT_DOCUMENT,
        "graph: 1 vertices, 2 edges, rank 2\n"
        "train track: NO\n"
        "  not a train track map: image of edge a is not tight\n"
        "gates: 3\n"
        "expanding: no\n"
        "transition matrix: irreducible=True primitive=True PF=True trace=3\n"
        "characteristic polynomial: x^2 - 3x\n"
        "stretch factor: 3.0000000000 (exact interval width 0.00e+00)\n"
        "first strictly positive power: 1\n"
        "verdict: NOT-TRAIN-TRACK\n",
        "d257e10f846947d9d5acb24967d1221cd268ede6abffb9e7653e54633cb98f42",
    ),
    "psi": (
        print_map_document(rose_map_xyz()),
        "graph: 1 vertices, 3 edges, rank 3\n"
        "train track: NO\n"
        "  not a train track map: taken turn {~z,~x} is illegal\n"
        "illegal turns: {x,y}, {x,z}, {y,z}, {~x,x}, {~x,y}, {~x,z}, {~y,x}, {~y,y}, {~y,z}, "
        "{~y,~x}, {~z,x}, {~z,y}, {~z,z}, {~z,~x}, {~z,~y}\n"
        "taken turns (5): {x,z}, {y,z}, {~y,x}, {~z,y}, {~z,~x}\n"
        "gates: 1\n"
        "expanding: no\n"
        "transition matrix: irreducible=True primitive=True PF=True trace=1\n"
        "characteristic polynomial: x^3 - x^2 - 1\n"
        "stretch factor: 1.4655712319 (exact interval width 9.09e-13)\n"
        "first strictly positive power: 4\n"
        "verdict: NOT-TRAIN-TRACK\n",
        "0c132279e9fcb32409164c106c707c9665320fc2be55ba715658d69f7604deaf",
    ),
}


@pytest.mark.parametrize(
    "document, stdout, json_sha256",
    NOT_TRAIN_TRACK_GOLDENS.values(),
    ids=NOT_TRAIN_TRACK_GOLDENS.keys(),
)
def test_certify_not_train_track_golden(document, stdout, json_sha256, tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(document, encoding="utf-8")
    out_json = tmp_path / "report.json"
    assert main(["certify", str(path), "--json", str(out_json)]) == 4
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(out_json.read_bytes()).hexdigest() == json_sha256


# sha256 over the benchmark's 120 pool documents of each one's exit code,
# stdout and ``--json`` bytes under ``certify``, then under ``decompose``
POOL_OUTPUTS_SHA256 = "72e66455cc0507e24170d4fa9a6770a1d05b7a5cc64f5bb6b480fbf706a521b2"


def test_certify_and_decompose_outputs_on_the_pool_documents(tmp_path, capsys):
    digest = hashlib.sha256()
    for k, document in enumerate(pool_documents()):
        path = tmp_path / f"doc{k:03d}.map"
        path.write_text(document, encoding="utf-8")
        for command in ("certify", "decompose"):
            out_json = tmp_path / f"doc{k:03d}.{command}.json"
            code = main([command, str(path), "--json", str(out_json)])
            stdout = capsys.readouterr().out.encode()
            for part in (str(code).encode(), stdout, out_json.read_bytes()):
                digest.update(len(part).to_bytes(8, "big") + part)
    assert digest.hexdigest() == POOL_OUTPUTS_SHA256


def test_main_parses_with_the_module_parser(reference_file, capsys, monkeypatch):
    def no_parser():
        raise AssertionError("the parser was rebuilt")

    monkeypatch.setattr("traintrack.cli.build_parser", no_parser)
    assert main(["certify", reference_file]) == 0


@pytest.mark.parametrize("command", ["certify", "decompose"])
def test_unwritable_json_path_exits_2(command, reference_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, reference_file, "--json", str(tmp_path / "missing" / "out.json")])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["certify", "decompose"])
def test_file_that_is_not_utf8_exits_2(command, tmp_path, capsys):
    path = tmp_path / "latin1.map"
    path.write_bytes("vertices v\nedge \u00e9 = v -> v\n\nmap\n\u00e9 -> \u00e9\n".encode("latin-1"))
    with pytest.raises(SystemExit) as err:
        main([command, str(path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text (invalid continuation byte at byte 16)\n"


@pytest.mark.parametrize("command", ["certify", "decompose"])
def test_file_with_a_byte_order_mark_reads_as_without(command, reference_file, tmp_path, capsys):
    path = tmp_path / "bom.map"
    path.write_bytes(b"\xef\xbb\xbf" + SINGLE_FOLD_DOCUMENT.encode("utf-8"))
    plain_json, bom_json = tmp_path / "plain.json", tmp_path / "bom.json"
    assert main([command, reference_file, "--json", str(plain_json)]) == 0
    plain = capsys.readouterr()
    assert main([command, str(path), "--json", str(bom_json)]) == 0
    assert capsys.readouterr() == plain
    assert bom_json.read_bytes() == plain_json.read_bytes()


def test_certify_non_principal_exit_code(psi, tmp_path, capsys):
    path = tmp_path / "psi.map"
    path.write_text(print_map_document(psi), encoding="utf-8")
    code = main(["certify", str(path)])
    captured = capsys.readouterr().out
    assert code == 4
    assert "NOT-TRAIN-TRACK" in captured


@pytest.mark.parametrize(
    "text, verdict_before",
    [
        # degree 2 on a rank-1 graph
        ("vertices v\nedge a = v -> v\n\nmap\na -> a a\n", "FULLY-IRREDUCIBLE"),
        # stretch factor 3, abelianisation of determinant -3
        ("vertices v\nedge a = v -> v\nedge b = v -> v\n\nmap\na -> a b a\nb -> b a b\n",
         "NOT-PRINCIPAL"),
    ],
)
def test_certify_rejects_train_track_maps_that_are_not_homotopy_equivalences(
    text, verdict_before, tmp_path, capsys
):
    """Both maps are train track maps that ``certify`` once gave the verdict
    shown; folding ends in no graph isomorphism, as ``decompose`` finds."""
    path = tmp_path / "g.map"
    path.write_text(text, encoding="utf-8")
    message = "precondition: residual map after folding is not a graph isomorphism\n"
    for command in ("certify", "decompose"):
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


def test_certify_parse_error(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("vertices v\nedge a = v -> v\n\nmap\na -> b\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["certify", str(path)])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "text, line, message",
    [
        # undeclared vertex: the offending edge line
        ("vertices v0 v1\nedge a = v0 -> v1\nedge b = v1 -> vX\n\nmap\na -> a\nb -> b\n",
         3, "undeclared vertex 'vX'"),
        # isolated vertex: the vertices line
        ("# header\n\nvertices v0 v1 v9\nedge a = v0 -> v1\nedge b = v1 -> v0\n\nmap\n"
         "a -> a\nb -> b\n", 3, "vertex 'v9' is isolated"),
        # two components: the vertices line
        ("# two roses\nvertices p q\nedge a = p -> p\nedge b = q -> q\n\nmap\na -> b\nb -> a\n",
         2, "graph is not connected"),
        ("vertices v0 v0\nedge a = v0 -> v0\n\nmap\na -> a\n", 1, "duplicate vertex 'v0'"),
        ("vertices v0 v1\nedge a = v0 -> v1\nedge a = v1 -> v0\n\nmap\na -> a\n",
         3, "duplicate edge 'a'"),
        # image that is not a path: its own map line
        ("vertices v0 v1\nedge a = v0 -> v1\nedge b = v1 -> v0\n\nmap\nb -> b\na -> a a\n",
         7, "path breaks at a -> a in image of 'a'"),
        # a map directive with trailing tokens: its line and first extra token
        ("vertices v\nedge a = v -> v\n\nmap extra tokens\na -> a a\n",
         4, "column 5: unexpected 'extra' after 'map'"),
        # an edge name that reads as a reversed edge: its edge line
        ("vertices v\nedge ~a = v -> v\nedge b = v -> v\n\nmap\n~a -> b\nb -> ~~a ~~a b\n",
         2, "column 6: edge name '~a' begins with '~'"),
        # an undeclared edge in an image: its line and the token's column;
        # a bare '~' has no stem, so the token itself is named
        ("vertices v\nedge a = v -> v\nmap\n  a -> a ~\n",
         4, "column 10: undeclared edge '~' in image of 'a'"),
        ("vertices v\nedge a = v -> v\nedge b = v -> v\nmap\na -> ~\nb -> b\n",
         5, "column 6: undeclared edge '~' in image of 'a'"),
        ("vertices v\nedge a = v -> v\nmap\na -> a ~c\n",
         4, "column 8: undeclared edge 'c' in image of 'a'"),
    ],
)
def test_certify_parse_error_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.map"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["certify", str(path)])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"line {line}," in stderr
    assert message in stderr


def test_decompose_reference(reference_file, tmp_path, capsys):
    out_json = tmp_path / "decomp.json"
    code = main(["decompose", reference_file, "--json", str(out_json)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "1 fold(s)" in captured
    assert "proper full fold of d over ~c" in captured
    payload = json.loads(out_json.read_text())
    assert payload["folds"] == [{"kind": "proper_full", "e1": "d", "e0": "~c"}]
    assert payload["relabeling"] == {
        "a": "~b", "b": "~d", "c": "e", "d": "~c", "e": "a",
    }
    assert payload["recomposes_exactly"] is True


def test_search_single_fold_rank3(capsys, tmp_path):
    out_json = tmp_path / "search.json"
    code = main(["search", "single-fold", "--rank", "3", "--json", str(out_json)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "1 relabeling class(es)" in captured
    payload = json.loads(out_json.read_text())
    assert payload["classes"] == 1
    assert payload["principal"] == 8


def test_search_single_fold_rank4(capsys):
    code = main(["search", "single-fold", "--rank", "4"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "0 relabeling class(es)" in captured


VERIFY_THEOREM_A_STDOUT = """\
PASS characteristic polynomial: char poly = x^5 - x - 1
PASS dominant root below smaller-degree minima: root in [1.1673039775, 1.1673039785]; \
root < 1.221 (degree 4): True; root < 1.325 (degree 3): True; root < 1.618 (degree 2): True
PASS trace obstruction: x^5 + x^4 - x^2 - x - 1 needs trace -1; x^5 - x - 1 has trace 0
PASS fold bookkeeping on trivalent graphs: 5 trivalent graphs; 108 proper full folds keep \
6 edges, reaching valence 4 except over a loop (12 cases, graph unchanged); 92 complete folds \
drop to 5 edges, reaching valence 5 except with a loop (24 cases, valence 4)
PASS loop folds carry no expanding irreducible map: 368 (loop fold, isomorphism) \
compositions, 0 expanding irreducible train track maps among them
theorem-a: PASS
"""


def test_verify_theorem_a(capsys):
    code = main(["verify", "theorem-a"])
    assert code == 0
    assert capsys.readouterr().out == VERIFY_THEOREM_A_STDOUT


def test_verify_theorem_b_limited_ranks(capsys):
    code = main(["verify", "theorem-b", "--ranks", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "theorem-b: PASS" in captured


@pytest.mark.parametrize("ranks", ["6", "x", "3,,4", "3,3"])
def test_verify_theorem_b_rejects_bad_ranks(ranks, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "theorem-b", "--ranks", ranks])
    assert err.value.code == 2
    assert "--ranks" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_automaton_build_rejects_loop_bound_below_one(bound, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the automaton was built")

    monkeypatch.setattr("traintrack.automaton.build_automaton", no_build)
    with pytest.raises(SystemExit) as err:
        main(["automaton", "build", "--loop-bound", bound])
    assert err.value.code == 2
    assert "--loop-bound" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(jobs, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("traintrack.search.single_fold_search", no_search)
    with pytest.raises(SystemExit) as err:
        main(["--jobs", jobs, "verify", "theorem-b", "--ranks", "3"])
    assert err.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "theorem-b", "--ranks", "3", "--jobs", "0"],
    ["search", "single-fold", "--rank", "3", "--jobs", "0"],
])
def test_jobs_below_one_rejected_after_the_subcommand(argv, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("traintrack.search.single_fold_search", no_search)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_one_before_the_subcommand_changes_nothing(tmp_path, capsys):
    # the benchmark's exact argv against the same command without --jobs
    def run(*prefix):
        path = tmp_path / "search.json"
        code = main([*prefix, "search", "single-fold", "--rank", "3", "--json", str(path)])
        return code, capsys.readouterr().out, path.read_bytes()

    assert run("--jobs", "1") == run()


@pytest.mark.parametrize("argv", [
    ["--jobs", "2", "verify", "theorem-b", "--ranks", "3"],
    ["verify", "theorem-b", "--ranks", "3", "--jobs", "1"],
])
def test_jobs_rejected_unless_one_before_the_subcommand(argv, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("traintrack.search.single_fold_search", no_search)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_console_entry_point(reference_file):
    result = subprocess.run(
        [sys.executable, "-m", "traintrack.cli", "certify", reference_file],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "PRINCIPAL" in result.stdout


def test_package_runs_as_a_module(reference_file, psi, tmp_path):
    # ``python -m traintrack`` exits with the code ``cli.main`` returns or
    # its parser exits with
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "traintrack", *argv], capture_output=True, text=True
        )

    certified = run("certify", reference_file)
    assert certified.returncode == 0
    assert "PRINCIPAL" in certified.stdout
    psi_path = tmp_path / "psi.map"
    psi_path.write_text(print_map_document(psi), encoding="utf-8")
    assert run("certify", str(psi_path)).returncode == 4
    rejected = run("--jobs", "0", "verify", "theorem-a")
    assert rejected.returncode == 2
    assert "--jobs" in rejected.stderr


def test_automaton_build(tmp_path, capsys):
    dot = tmp_path / "a.dot"
    out_json = tmp_path / "a.json"
    code = main([
        "automaton", "build", "--rank", "3", "--loop-bound", "2",
        "--dot", str(dot), "--json", str(out_json),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "relabeling classes: 17" in captured
    assert captured.endswith(
        "reference map's Stallings decomposition: a loop of 1 fold(s) through the reference node\n"
    )
    text = dot.read_text()
    assert text.startswith("digraph principal_stratum {")
    assert "color=green" in text and "color=black" in text
    # deterministic emission
    code2 = main([
        "automaton", "build", "--rank", "3", "--loop-bound", "2",
        "--dot", str(tmp_path / "b.dot"),
    ])
    capsys.readouterr()
    assert code2 == 0
    assert (tmp_path / "b.dot").read_text() == text
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == "3"
    assert payload["classes"] == 17
    assert payload["fold_edges"] == 86400
    assert payload["loop_scc_count"] == 1
    assert payload["reference_analysis"]["entering_folds"] == 4
    assert payload["reference_analysis"]["loop_bound"] == 2


AUTOMATON_BUILD_STDOUT = """\
nodes: 24000; fold edges: 86400; relabeling classes: 17
class-level components: [1, 1, 1, 14]; components with loops: 1
reference class 13: removing it strands 2 further classes; residual loop part has 11 classes
residual loops up to length 4: 732, all reducible: True
folds entering the reference node: 4
reference map's Stallings decomposition: a loop of 1 fold(s) through the reference node
"""
# sha256 of the ``--dot`` and ``--json`` files of ``automaton build --loop-bound 4``;
# classes are numbered in universe order, each class's graph by its position
AUTOMATON_BUILD_DOT_SHA256 = "0d239c9fd620a8c40caa870cf8134b9ccab596f59493dc659e3384f6c139b999"
AUTOMATON_BUILD_JSON_SHA256 = "fb99f09cdd2e3683de3bda3854448febbfc6e622eb2ebd857b72f9a25c4c2a1d"


def test_automaton_build_golden(tmp_path, capsys):
    dot = tmp_path / "a.dot"
    out_json = tmp_path / "a.json"
    code = main([
        "automaton", "build", "--loop-bound", "4", "--dot", str(dot), "--json", str(out_json),
    ])
    assert code == 0
    assert capsys.readouterr().out == AUTOMATON_BUILD_STDOUT
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == AUTOMATON_BUILD_DOT_SHA256
    assert hashlib.sha256(out_json.read_bytes()).hexdigest() == AUTOMATON_BUILD_JSON_SHA256


def test_automaton_build_fails_without_the_reference_loop(capsys, monkeypatch):
    monkeypatch.setattr("traintrack.automaton.decomposition_to_loop", lambda automaton, seq: None)
    assert main(["automaton", "build", "--loop-bound", "1"]) == 4
    out = capsys.readouterr().out
    # the residual loops pass, so the exit code comes from the cross-check
    assert ", all reducible: True\n" in out
    assert out.endswith(
        "reference map's Stallings decomposition: no loop through the reference node\n"
    )


def test_automaton_build_fails_at_loop_bound_five(capsys):
    # the residual loops are all reducible only up to length 4
    assert main(["automaton", "build", "--loop-bound", "5"]) == 4
    assert "residual loops up to length 5: 2352, all reducible: False\n" in capsys.readouterr().out
