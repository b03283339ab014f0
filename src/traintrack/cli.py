"""Command-line front end.

Exit codes: 0 success (for ``certify``: the map is principal); 2 unreadable
file (among them one that is not UTF-8 text), unwritable ``--json`` or
``--dot`` path, parse error or bad usage (among them a rank other than 3, 4
or 5 for ``search single-fold --rank`` or ``verify theorem-b --ranks``, a
``--loop-bound`` below 1, and a ``--jobs`` value other than 1); 3
precondition violation (``decompose`` on a map it cannot fold, ``certify``
on a train track map that is not a homotopy equivalence, ``automaton build
--rank`` other than 3); 4 verification failed (for ``certify``: any verdict
other than PRINCIPAL; for ``automaton build``: a residual loop is
irreducible, or the reference map's fold decomposition is not a loop
through the reference node).

Each command imports only the layers it runs, in its handler: ``certify``
and ``decompose`` load neither ``search`` nor ``automaton``.
"""

from __future__ import annotations

import argparse
import json
import sys


def __getattr__(name: str):
    """``cli.certify_map``, which the benchmark's tracer test reads: the
    function in ``reports`` now, as ``cmd_certify`` reads it when it runs."""
    if name != "certify_map":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .reports import certify_map

    return certify_map


EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4

# theorem B: relabeling classes of principal single-fold maps, by rank
EXPECTED_CLASSES = {3: 1, 4: 0, 5: 0}


def _read_map(path: str):
    from .mapdoc import ParseError, parse_map_document

    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        return parse_map_document(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _write_json(path: str, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_certify(args) -> int:
    from .graphs import GraphStructureError
    from .reports import certify_json, certify_map, certify_text

    g = _read_map(args.file)
    try:
        report = certify_map(g)
    except GraphStructureError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    sys.stdout.write(certify_text(report))
    if args.json:
        _write_json(args.json, certify_json(report))
    return 0 if report.verdict == "PRINCIPAL" else EXIT_VERIFICATION


def cmd_decompose(args) -> int:
    from .folds import stallings_decompose
    from .graphs import GraphStructureError
    from .reports import decompose_json, decompose_text

    g = _read_map(args.file)
    try:
        seq = stallings_decompose(g)
    except GraphStructureError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    sys.stdout.write(decompose_text(seq))
    if args.json:
        _write_json(args.json, decompose_json(seq))
    return 0


def cmd_automaton_build(args) -> int:
    from .automaton import (
        automaton_json, automaton_to_dot, build_automaton, decomposition_to_loop, loop_to_map,
        node_one_analysis,
    )
    from .catalog import single_fold_map
    from .folds import stallings_decompose
    from .graphs import GraphStructureError

    try:
        automaton = build_automaton(args.rank)
    except GraphStructureError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    analysis = node_one_analysis(automaton, loop_bound=args.loop_bound)
    print(
        f"nodes: {automaton.n_nodes}; fold edges: {automaton.n_fold_edges}; "
        f"relabeling classes: {automaton.n_classes}"
    )
    print(
        f"class-level components: {sorted(len(s) for s in automaton.sccs)}; "
        f"components with loops: {len(automaton.loop_sccs())}"
    )
    print(
        f"reference class {analysis.node_one_class}: removing it strands "
        f"{len(analysis.also_disconnected)} further classes; residual loop part has "
        f"{len(analysis.residual_loop_classes)} classes"
    )
    print(
        f"residual loops up to length {args.loop_bound}: {analysis.loops_checked}, "
        f"all reducible: {analysis.obstruction_holds}"
    )
    print(f"folds entering the reference node: {analysis.entering_folds}")
    # cross-check: the reference map's fold decomposition walks the automaton
    g = single_fold_map()
    loop = decomposition_to_loop(automaton, stallings_decompose(g))
    through = (
        loop is not None
        and loop.nodes[0] == automaton.node_one
        and loop_to_map(automaton, loop).edge_images == g.edge_images
    )
    if through:
        print(f"reference map's Stallings decomposition: a loop of {len(loop.folds)} "
              "fold(s) through the reference node")
    else:
        print("reference map's Stallings decomposition: no loop through the reference node")
    if args.dot:
        _write(args.dot, automaton_to_dot(automaton))
    if args.json:
        _write_json(args.json, automaton_json(automaton, analysis))
    return 0 if analysis.obstruction_holds and through else EXIT_VERIFICATION


def cmd_search_single_fold(args) -> int:
    from .search import single_fold_search

    summary = single_fold_search(args.rank)
    print(
        f"rank {summary.rank}: {summary.universe_size} graphs, "
        f"{summary.candidates} candidates, {summary.tt_count} train track, "
        f"{summary.irreducible_count} irreducible, {summary.fic_count} fully irreducible, "
        f"{summary.principal_count} principal"
    )
    print(f"{summary.class_count} relabeling class(es)")
    for idx in summary.class_representatives:
        rep = summary.survivors[idx]
        print("representative:")
        for line in rep.map.describe().splitlines():
            print("  " + line)
    if args.json:
        _write_json(
            args.json,
            {
                "schema": "1",
                "kind": "single-fold-search",
                "rank": summary.rank,
                "universe": summary.universe_size,
                "candidates": summary.candidates,
                "train_track": summary.tt_count,
                "irreducible": summary.irreducible_count,
                "fully_irreducible": summary.fic_count,
                "principal": summary.principal_count,
                "classes": summary.class_count,
            },
        )
    return 0 if summary.class_count == EXPECTED_CLASSES[args.rank] else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    from .search import single_fold_search, verify_minimal_stretch_argument

    if args.target == "theorem-a":
        report = verify_minimal_stretch_argument()
        for step in report.steps:
            print(("PASS " if step.passed else "FAIL ") + step.name + ": " + step.detail)
        print("theorem-a: " + ("PASS" if report.passed else "FAIL"))
        return 0 if report.passed else EXIT_VERIFICATION
    ok = True
    for rank in args.ranks:
        summary = single_fold_search(rank)
        expected = EXPECTED_CLASSES[rank]
        good = summary.class_count == expected
        ok = ok and good
        print(
            f"rank {rank}: {summary.class_count} class(es), expected {expected}: "
            + ("PASS" if good else "FAIL")
        )
    print("theorem-b: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else EXIT_VERIFICATION


def _rank_list(text: str) -> list[int]:
    """A comma-separated list of distinct search ranks."""
    items = text.split(",")
    if not all(item.strip().isdigit() and int(item) in EXPECTED_CLASSES for item in items):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of 3, 4, 5")
    ranks = [int(item) for item in items]
    if len(set(ranks)) < len(ranks):
        raise argparse.ArgumentTypeError(f"{text!r} repeats a rank")
    return ranks


def _positive_int(text: str) -> int:
    if not (text.strip().isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traintrack",
        description="Train track maps: certification, fold decompositions, "
        "the rank-3 principal stratum automaton, and exhaustive searches.",
    )
    # read by nothing; perfbench/workloads.py runs `--jobs 1 search single-fold ...` in-process
    parser.add_argument("--jobs", type=int, choices=(1,), help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="full pipeline report for a map document")
    p.add_argument("file")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("decompose", help="Stallings fold decomposition")
    p.add_argument("file")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("automaton", help="automaton commands")
    asub = p.add_subparsers(dest="subcommand", required=True)
    pb = asub.add_parser("build", help="build the principal stratum automaton")
    pb.add_argument("--rank", type=int, default=3)
    pb.add_argument("--loop-bound", type=_positive_int, default=3)
    pb.add_argument("--dot", metavar="PATH")
    pb.add_argument("--json", metavar="PATH")
    pb.set_defaults(func=cmd_automaton_build)

    p = sub.add_parser("search", help="exhaustive searches")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    ps = ssub.add_parser("single-fold", help="single-fold uniqueness search")
    ps.add_argument("--rank", type=int, required=True, choices=EXPECTED_CLASSES)
    ps.add_argument("--json", metavar="PATH")
    ps.set_defaults(func=cmd_search_single_fold)

    p = sub.add_parser("verify", help="acceptance drivers")
    p.add_argument("target", choices=("theorem-a", "theorem-b"))
    p.add_argument("--ranks", type=_rank_list, default="3,4,5",
                   help="comma-separated ranks for theorem-b")
    p.set_defaults(func=cmd_verify)

    return parser


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
