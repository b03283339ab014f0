from __future__ import annotations

import pytest

from oracles import print_map_document
from traintrack.catalog import SINGLE_FOLD_DOCUMENT, single_fold_map
from traintrack.mapdoc import ParseError, parse_map_document


def test_parse_reference_document(gmap):
    assert gmap.describe().splitlines() == [
        "a -> ~b", "b -> ~d", "c -> e", "d -> ~e ~c", "e -> a",
    ]
    assert gmap.vertex_map == (1, 2, 0)


def test_round_trip_is_identity(gmap):
    text = print_map_document(gmap)
    assert parse_map_document(text) == gmap
    assert print_map_document(parse_map_document(text)) == text


def test_comments_and_blank_lines_ignored():
    decorated = "# a map\n\n" + SINGLE_FOLD_DOCUMENT.replace(
        "map\n", "map  # images follow\n"
    )
    assert parse_map_document(decorated) == single_fold_map()


def test_undeclared_edge_in_image():
    bad = SINGLE_FOLD_DOCUMENT.replace("d -> ~e ~c", "d -> ~e x")
    with pytest.raises(ParseError) as err:
        parse_map_document(bad)
    assert "x" in str(err.value)
    assert err.value.line == 12


def test_endpoint_mismatch():
    bad = SINGLE_FOLD_DOCUMENT.replace("c -> e", "c -> ~e")
    with pytest.raises(ParseError, match="mismatch|wrong vertex"):
        parse_map_document(bad)


def test_empty_image_rejected():
    bad = SINGLE_FOLD_DOCUMENT.replace("c -> e\n", "c -> \n")
    with pytest.raises(ParseError):
        parse_map_document(bad)


def test_missing_image_rejected():
    bad = SINGLE_FOLD_DOCUMENT.replace("c -> e\n", "")
    with pytest.raises(ParseError, match="missing image") as err:
        parse_map_document(bad)
    # line 4 declares edge c
    assert err.value.line == 4


def test_duplicate_image_rejected():
    bad = SINGLE_FOLD_DOCUMENT + "e -> a\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_map_document(bad)


def test_missing_map_section():
    bad = SINGLE_FOLD_DOCUMENT.split("map")[0]
    with pytest.raises(ParseError, match="map section"):
        parse_map_document(bad)


def test_reversed_edge_name_rejected():
    # "~a" reads as the reversal of an edge "a", and its own reversal as "~~a"
    bad = "vertices v\nedge b = v -> v\nedge ~a = v -> v\n\nmap\nb -> b ~~a\n~a -> b\n"
    with pytest.raises(ParseError, match="'~a' begins with '~'") as err:
        parse_map_document(bad)
    assert err.value.line == 3
    assert err.value.column == 6


def test_unknown_directive_position():
    bad = "vertices v\nedgy a = v -> v\n\nmap\na -> a\n"
    with pytest.raises(ParseError) as err:
        parse_map_document(bad)
    assert err.value.line == 2
    assert err.value.column == 1


@pytest.mark.parametrize("line, column", [(" edgy#note", 2), ("edgy#note a edgy", 1)])
def test_unknown_directive_glued_to_a_comment_position(line, column):
    # the column is the directive's own, not that of a later equal token
    bad = f"vertices v\n{line}\n\nmap\na -> a\n"
    with pytest.raises(ParseError, match="unexpected directive 'edgy'") as err:
        parse_map_document(bad)
    assert (err.value.line, err.value.column) == (2, column)


@pytest.mark.parametrize("line, column", [("map extra tokens", 5), ("map   map", 7)])
def test_map_directive_takes_no_tokens(line, column):
    # the column is the first extra token's, also when it repeats "map"
    bad = SINGLE_FOLD_DOCUMENT.replace("map\n", line + "\n")
    lineno = SINGLE_FOLD_DOCUMENT.splitlines().index("map") + 1
    with pytest.raises(ParseError, match="after 'map'") as err:
        parse_map_document(bad)
    assert (err.value.line, err.value.column) == (lineno, column)


def test_syntax_token_edge_name_rejected():
    # an edge named "->" would make the map line "-> -> b" parse
    bad = "vertices v\nedge -> = v -> v\nedge b = v -> v\n\nmap\n-> -> b\nb -> -> b\n"
    with pytest.raises(ParseError, match="edge name '->' is document syntax") as err:
        parse_map_document(bad)
    assert (err.value.line, err.value.column) == (2, 6)


def test_syntax_token_vertex_name_rejected():
    bad = "vertices w =\nedge a = = -> w\nedge b = w -> w\n\nmap\na -> a\nb -> b\n"
    with pytest.raises(ParseError, match="vertex name '=' is document syntax") as err:
        parse_map_document(bad)
    assert (err.value.line, err.value.column) == (1, 12)


def test_disconnected_graph_rejected():
    # two roses, each edge image a path, but no edge joins p to q
    bad = (
        "vertices p q\nedge a = p -> p\nedge b = p -> p\nedge c = q -> q\nedge d = q -> q\n"
        "\nmap\na -> c\nb -> d\nc -> a b\nd -> b\n"
    )
    with pytest.raises(ParseError, match="graph is not connected") as err:
        parse_map_document(bad)
    assert err.value.line == 1
