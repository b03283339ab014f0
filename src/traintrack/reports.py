"""Aggregated pipeline reports with stable text and JSON renderings.

The JSON schema is versioned ("1"); golden tests diff the structured form,
so key order and value formatting are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certify import MapAnalysis, PnpSearchResult, TtCertificate
from .folds import FoldSequence, stallings_decompose
from .graphs import GraphMap, signed_images
from .spectral import SpectralReport, minimal_polynomial_degree
from .whitehead import PrincipalReport, is_principal

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class CertifyReport:
    map: GraphMap
    tt: TtCertificate
    illegal: frozenset[tuple[int, int]]
    gate_count: int
    expanding: bool
    spectral: SpectralReport
    pnp: PnpSearchResult | None
    principal: PrincipalReport | None

    @property
    def verdict(self) -> str:
        if not self.tt.is_train_track:
            return "NOT-TRAIN-TRACK"
        if self.principal is not None and self.principal.is_principal:
            return "PRINCIPAL"
        if self.principal is not None and self.principal.fic.passed:
            return "FULLY-IRREDUCIBLE"
        return "NOT-PRINCIPAL"


def certify_map(g: GraphMap) -> CertifyReport:
    """Run the whole pipeline on a self-map, on one analysis of it.

    A train track map must also be a homotopy equivalence: its images are
    tight, so Stallings folding decides that, and a ``GraphStructureError``
    with the folding's message is raised when it is not.  The single-fold
    search and the automaton build homotopy equivalences by construction
    and do not call this.
    """
    a = MapAnalysis(g)
    train_track = a.tt.is_train_track
    if train_track:
        stallings_decompose(g)
    expanding = train_track and a.expanding
    return CertifyReport(
        map=g,
        tt=a.tt,
        illegal=frozenset() if isinstance(a.tt.witness, str) else a.illegal,
        gate_count=len(a.gates),
        expanding=expanding,
        spectral=a.spectral,
        pnp=a.pnp if expanding else None,
        principal=is_principal(a) if train_track else None,
    )


def _turn_names(graph, turns) -> list[str]:
    return sorted(graph.turn_name(t) for t in turns)


def _fraction_pair(interval: tuple[Fraction, Fraction]) -> dict:
    lo, hi = interval
    return {
        "low": f"{lo.numerator}/{lo.denominator}",
        "high": f"{hi.numerator}/{hi.denominator}",
        "approx": float((lo + hi) / 2),
    }


def certify_json(report: CertifyReport) -> dict:
    g = report.map
    graph = g.source
    out = {
        "schema": SCHEMA_VERSION,
        "kind": "certify",
        "graph": {
            "vertices": list(graph.vertex_names),
            "edges": [
                {
                    "name": graph.edge_names[i],
                    "from": graph.vertex_names[graph.ends[i][0]],
                    "to": graph.vertex_names[graph.ends[i][1]],
                }
                for i in range(graph.n_edges)
            ],
        },
        "map": {
            graph.edge_names[i]: graph.path_name(g.edge_images[i])
            for i in range(graph.n_edges)
        },
        "train_track": report.tt.is_train_track,
        "witness": (
            report.tt.witness
            if isinstance(report.tt.witness, (str, type(None)))
            else graph.turn_name(report.tt.witness)
        ),
        "illegal_turns": _turn_names(graph, report.illegal),
        "taken_turn_closure": _turn_names(graph, report.tt.closure),
        "gates": report.gate_count,
        "expanding": report.expanding,
        "verdict": report.verdict,
    }
    s = report.spectral
    out["spectral"] = {
        "transition_matrix": [list(row) for row in s.matrix.rows],
        "characteristic_polynomial": list(s.characteristic_polynomial.coefficients),
        "dominant_root": _fraction_pair(s.dominant_root),
        "irreducible": s.irreducible,
        "primitive": s.primitive,
        "perron_frobenius": s.primitive,
        "minimal_polynomial_degree": minimal_polynomial_degree(
            s.characteristic_polynomial, s.dominant_root
        ),
        "trace": s.trace,
        "first_positive_power": s.positive_power,
    }
    if report.pnp is not None:
        out["periodic_nielsen_paths"] = {
            "verdict": report.pnp.verdict,
            "length_bound": report.pnp.length_bound,
            "period_bound": report.pnp.period_bound,
            "path": graph.path_name(report.pnp.path) if report.pnp.path else None,
            "period": report.pnp.period,
        }
    if report.principal is not None:
        p = report.principal
        out["full_irreducibility"] = {
            "train_track": p.fic.train_track,
            "pnp_clean": p.fic.pnp_clean,
            "irreducible": p.fic.irreducible,
            "perron_frobenius": p.fic.primitive,
            "whitehead_connected": p.fic.whitehead_connected,
            "passed": p.fic.passed,
            "invariant_edges": (
                [graph.edge_names[i] for i in p.fic.invariant_edges]
                if p.fic.invariant_edges is not None
                else None
            ),
        }
        out["principal"] = {
            "verdict": p.is_principal,
            "ideal_whitehead_components": (
                list(p.ideal.component_sizes()) if p.ideal is not None else None
            ),
            "index": (
                f"{p.index.numerator}/{p.index.denominator}" if p.index is not None else None
            ),
        }
    return out


def certify_text(report: CertifyReport) -> str:
    g = report.map
    graph = g.source
    lines = []
    lines.append(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges, rank {graph.rank()}")
    lines.append("train track: " + ("yes" if report.tt.is_train_track else "NO"))
    if not report.tt.is_train_track:
        lines.append("  " + report.tt.describe(graph))
    if report.illegal:
        lines.append("illegal turns: " + ", ".join(_turn_names(graph, report.illegal)))
    if report.tt.closure:
        lines.append(
            f"taken turns ({len(report.tt.closure)}): "
            + ", ".join(_turn_names(graph, report.tt.closure))
        )
    lines.append(f"gates: {report.gate_count}")
    lines.append("expanding: " + ("yes" if report.expanding else "no"))
    s = report.spectral
    lo, hi = s.dominant_root
    lines.append(
        "transition matrix: irreducible=%s primitive=%s PF=%s trace=%d"
        % (s.irreducible, s.primitive, s.primitive, s.trace)
    )
    lines.append("characteristic polynomial: " + s.characteristic_polynomial.pretty())
    lines.append(
        f"stretch factor: {float((lo + hi) / 2):.10f} "
        f"(exact interval width {float(hi - lo):.2e})"
    )
    if s.positive_power is not None:
        lines.append(f"first strictly positive power: {s.positive_power}")
    if report.pnp is not None:
        lines.append(
            "periodic Nielsen paths: %s (length bound %d, period bound %d)"
            % (report.pnp.verdict, report.pnp.length_bound, report.pnp.period_bound)
        )
    if report.principal is not None:
        p = report.principal
        lines.append("full irreducibility criterion: " + ("passed" if p.fic.passed else "failed"))
        if not p.fic.passed:
            flags = {
                "train-track": p.fic.train_track,
                "pnp-clean": p.fic.pnp_clean,
                "irreducible": p.fic.irreducible,
                "perron-frobenius": p.fic.primitive,
                "whitehead-connected": p.fic.whitehead_connected,
            }
            lines.append("  failing: " + ", ".join(k for k, v in flags.items() if not v))
            if p.fic.invariant_edges is not None:
                lines.append(
                    "  invariant edge set: "
                    + ", ".join(graph.edge_names[i] for i in p.fic.invariant_edges)
                )
        if p.ideal is not None:
            lines.append(
                "ideal Whitehead graph components: "
                + str(list(p.ideal.component_sizes()))
                + f"; index {p.index}"
            )
    lines.append("verdict: " + report.verdict)
    return "\n".join(lines) + "\n"


# -- decomposition reports -------------------------------------------------------


def decompose_json(seq: FoldSequence) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "decompose",
        "folds": [
            {
                "kind": move.kind,
                "e1": move.source.direction_name(move.e1),
                "e0": move.source.direction_name(move.e0),
            }
            for move in seq.moves
        ],
        "relabeling": {
            seq.final.source.edge_names[i]: seq.final.target.direction_name(s)
            for i, s in enumerate(signed_images(seq.final))
        },
        "recomposes_exactly": True,
    }


def decompose_text(seq: FoldSequence) -> str:
    return seq.describe() + "\nrecomposes exactly: yes\n"
