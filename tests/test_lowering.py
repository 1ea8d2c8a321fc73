"""Lowering: constructor walks, label rules, registry, inline fragments.

The expected coordinates in this file were worked out by hand from the
constructor definitions and are frozen; a change in any walk is a
regression even if the picture still looks plausible.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diagramc.errors import DiagnosticError
from diagramc.lowering import Lowerer, tex_div, twoar_end
from diagramc.model import (
    LEFT,
    MID,
    NO_SIDE,
    RIGHT,
    LogicalPoint,
    resolve_label_side,
)
from diagramc.parser import Statement, parse_document


def lower(source):
    return Lowerer().lower_document(parse_document(source))


def lower_figure(body):
    scenes = lower('\\bfig\n%s\n\\efig' % body)
    assert len(scenes) == 1
    return scenes[0]


def arrow_tuples(scene):
    return [((a.src.x, a.src.y), (a.dst.x, a.dst.y), a.label, a.label_rule)
            for a in scene.arrows]


def node_tuples(scene):
    return [((n.pos.x, n.pos.y), n.text) for n in scene.nodes]


# ---- little arithmetic oracles ----------------------------------------

def test_tex_div_truncates_toward_zero():
    assert tex_div(7, 2) == 3
    assert tex_div(-7, 2) == -3
    assert tex_div(7, -2) == -3
    assert tex_div(-7, -2) == 3
    assert tex_div(6, 3) == 2


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
def test_tex_div_matches_rational_truncation(a, b):
    assert tex_div(a, b) == math.trunc(Fraction(a, b))


TWOAR_TABLE = [
    ((1, 0), (1000, 0)),
    ((0, 1), (0, 1000)),
    ((0, -3), (0, -1000)),
    ((1, 1), (708, 708)),
    ((2, 1), (894, 447)),
    ((-2, 1), (-894, 447)),
]


@pytest.mark.parametrize('direction, end', TWOAR_TABLE)
def test_twoar_end_frozen(direction, end):
    assert twoar_end(*direction) == LogicalPoint(*end)


def test_twoar_end_axis_length():
    # axis-aligned double arrows come out exactly two spans long
    for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (0, -4)]:
        end = twoar_end(dx, dy)
        assert abs(end.x) + abs(end.y) == 1000


SIDE_TABLE = [
    ('l', 0, 1, LEFT), ('l', 0, -1, RIGHT), ('l', 1, 0, RIGHT),
    ('r', 0, -1, LEFT), ('r', 0, 1, RIGHT), ('r', 1, 0, RIGHT),
    ('a', 1, 0, LEFT), ('a', -1, 0, RIGHT), ('a', 0, 1, RIGHT),
    ('b', -1, 0, LEFT), ('b', 1, 0, RIGHT), ('b', 0, 1, RIGHT),
    ('m', 3, -4, MID),
    ('none', 1, 1, NO_SIDE),
    ('x', 1, 1, NO_SIDE),
]


@pytest.mark.parametrize('rule, dx, dy, side', SIDE_TABLE)
def test_resolve_label_side(rule, dx, dy, side):
    assert resolve_label_side(rule, dx, dy) == side


# ---- single morphisms --------------------------------------------------

def test_morphism_basic():
    scene = lower_figure('\\morphism(100,-200)[A`B;f]')
    assert node_tuples(scene) == [((100, -200), 'A'), ((600, -200), 'B')]
    assert arrow_tuples(scene) == [((100, -200), (600, -200), 'f', 'a')]
    arrow = scene.arrows[0]
    assert (arrow.src_text, arrow.dst_text) == ('A', 'B')
    assert arrow.style.head == 'normal'


def test_morphism_strips_one_brace_level():
    scene = lower_figure('\\morphism[{A\\times B}`{{B}};{f;g}]')
    assert scene.nodes[0].text == 'A\\times B'
    assert scene.nodes[1].text == '{B}'
    assert scene.arrows[0].label == 'f;g'


def test_empty_spec_and_label_omits_arrow():
    scene = lower_figure('\\morphism/{}/[A`B;]')
    assert len(scene.nodes) == 2
    assert scene.arrows == ()


def test_invisible_spec_with_label_keeps_arrow():
    scene = lower_figure('\\morphism/{}/[A`B;f]')
    assert len(scene.arrows) == 1
    assert scene.arrows[0].style.shaft == 'invisible'
    assert scene.arrows[0].label == 'f'


@pytest.mark.parametrize('body, arrows', [
    # an invisible shaft drops the arrow only with no label, mark or
    # offset (the two tests above hold the labelled and the bare spec)
    ('\\morphism/@{}@<2pt>/[A`B;]', 1),
    ('\\morphism/@{}|-*@{|}/[A`B;]', 1),
    ('\\vect(0,0)/@{}@<2pt>/<1,1>', 1),
    # an arrow is degenerate only when both coordinates meet, and a
    # dropped one never is
    ('\\morphism<0,500>[A`B;f]', 1),
    ('\\morphism/{}/<0,0>[A`B;]', 0),
    ('\\morphism/{}/<0,0>[A`B;f]', 'DegenerateArrow'),
    ('\\square<0,0>[A`B`C`D;f`g`h`k]', 'DegenerateArrow'),
])
def test_arrows_dropped_and_degenerate(body, arrows):
    try:
        got = len(lower_figure(body).arrows)
    except DiagnosticError as err:
        got = err.code
    assert got == arrows


def test_unknown_placement_letter_drops_label():
    scene = lower_figure('\\morphism|x|[A`B;f]')
    assert (scene.arrows[0].label, scene.arrows[0].label_rule) == ('', 'none')


def test_mid_rule_with_blank_label_resolves_to_none():
    scene = lower_figure('\\morphism|m|[A`B;{}]')
    assert (scene.arrows[0].label, scene.arrows[0].label_rule) == ('', 'none')
    scene = lower_figure('\\morphism|m|[A`B;f]')
    assert scene.arrows[0].label_rule == 'm'


def test_zero_span_morphism_is_degenerate():
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\morphism<0,0>[A`B;f]')
    assert info.value.code == 'DegenerateArrow'
    assert info.value.constructor == 'morphism'


def test_vect():
    scene = lower_figure('\\vect(10,20)/-->/<300,-200>')
    assert scene.nodes == ()
    arrow = scene.arrows[0]
    assert (arrow.src, arrow.dst) == (LogicalPoint(10, 20),
                                      LogicalPoint(310, -180))
    assert arrow.style.shaft == 'dashed'
    assert arrow.src_text is None and arrow.dst_text is None
    # a blank vector is dropped entirely
    assert lower_figure('\\vect(0,0)/{}/<1,1>').arrows == ()
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\vect(0,0)/>/<0,0>')
    assert info.value.code == 'DegenerateArrow'


def test_place_keeps_anchor():
    scene = lower_figure('\\place[ru](40,50)[X]')
    node = scene.nodes[0]
    assert (node.pos, node.text, node.anchor) == \
        (LogicalPoint(40, 50), 'X', 'ru')


# ---- the square family -------------------------------------------------

def test_square_walk_frozen():
    scene = lower_figure('\\square(100,200)<600,400>[A`B`C`D;f`g`h`k]')
    assert node_tuples(scene) == [
        ((100, 200), 'C'), ((700, 200), 'D'),
        ((100, 600), 'A'), ((700, 600), 'B'),
    ]
    assert arrow_tuples(scene) == [
        ((100, 200), (700, 200), 'k', 'b'),
        ((100, 600), (100, 200), 'g', 'l'),
        ((100, 600), (700, 600), 'f', 'a'),
        ((700, 600), (700, 200), 'h', 'r'),
    ]


def test_square_custom_placements_follow_slots():
    scene = lower_figure('\\square|mmmm|[A`B`C`D;f`g`h`k]')
    assert [a.label_rule for a in scene.arrows] == ['m'] * 4


def test_auto_square_width():
    scene = lower_figure('\\Square[{AAAA}`{BBBB}`C`D;f`g`h`k]')
    # top edge measures (2000 + 2*500 + 2000)/2 -> 250 units + 350 pad
    assert node_tuples(scene) == [
        ((0, 0), 'C'), ((600, 0), 'D'),
        ((0, 500), 'AAAA'), ((600, 500), 'BBBB'),
    ]


def test_auto_square_span_sets_height():
    scene = lower_figure('\\Square<700>[A`B`C`D;f`g`h`k]')
    positions = {n.text: (n.pos.x, n.pos.y) for n in scene.nodes}
    assert positions == {'C': (0, 0), 'D': (500, 0),
                         'A': (0, 700), 'B': (500, 700)}


def test_auto_square_clamps_at_default_span():
    scene = lower_figure('\\Square[A`B`C`D;f`g`h`k]')
    assert {n.pos.x for n in scene.nodes} == {0, 500}


def test_diamond_walk_frozen():
    scene = lower_figure('\\Diamond[A`B`C`D;f`g`h`k]')
    assert arrow_tuples(scene) == [
        ((0, 400), (400, 0), 'h', 'l'),
        ((800, 400), (400, 0), 'k', 'r'),
        ((400, 800), (0, 400), 'f', 'l'),
        ((400, 800), (800, 400), 'g', 'r'),
    ]
    assert node_tuples(scene) == [
        ((0, 400), 'B'), ((400, 0), 'D'), ((800, 400), 'C'),
        ((400, 800), 'A'),
    ]


# ---- triangles ----------------------------------------------------------

TRIANGLE_WALKS = {
    'ptriangle': [
        ((0, 500), (500, 500), 'f', 'a'),
        ((0, 500), (0, 0), 'g', 'l'),
        ((500, 500), (0, 0), 'h', 'r'),
    ],
    'qtriangle': [
        ((0, 500), (500, 500), 'f', 'a'),
        ((0, 500), (500, 0), 'g', 'l'),
        ((500, 500), (500, 0), 'h', 'r'),
    ],
    'dtriangle': [
        ((0, 0), (500, 0), 'h', 'b'),
        ((500, 500), (0, 0), 'f', 'l'),
        ((500, 500), (500, 0), 'g', 'r'),
    ],
    'btriangle': [
        ((0, 0), (500, 0), 'h', 'b'),
        ((0, 500), (0, 0), 'f', 'l'),
        ((0, 500), (500, 0), 'g', 'r'),
    ],
    'Atriangle': [
        ((0, 0), (1000, 0), 'h', 'b'),
        ((500, 500), (0, 0), 'f', 'l'),
        ((500, 500), (1000, 0), 'g', 'r'),
    ],
    'Vtriangle': [
        ((0, 500), (500, 0), 'g', 'l'),
        ((0, 500), (1000, 500), 'f', 'a'),
        ((1000, 500), (500, 0), 'h', 'b'),
    ],
    'Ctriangle': [
        ((0, 500), (500, 0), 'h', 'b'),
        ((500, 1000), (0, 500), 'f', 'a'),
        ((500, 1000), (500, 0), 'g', 'r'),
    ],
    # D hands its first two label slots to the opposite edges
    'Dtriangle': [
        ((500, 500), (0, 0), 'h', 'b'),
        ((0, 1000), (500, 500), 'g', 'a'),
        ((0, 1000), (0, 0), 'f', 'l'),
    ],
}

TRIANGLE_EDGES = {
    'ptriangle': [('B', 'C'), ('A', 'B'), ('A', 'C')],
    'qtriangle': [('B', 'C'), ('A', 'B'), ('A', 'C')],
}


@pytest.mark.parametrize('keyword', sorted(TRIANGLE_WALKS))
def test_triangle_walks_frozen(keyword):
    scene = lower_figure('\\%s[A`B`C;f`g`h]' % keyword)
    assert arrow_tuples(scene) == TRIANGLE_WALKS[keyword]


def test_triangle_endpoint_texts():
    scene = lower_figure('\\ptriangle[A`B`C;f`g`h]')
    pairs = [(a.src_text, a.dst_text) for a in scene.arrows]
    assert pairs == [('A', 'B'), ('A', 'C'), ('B', 'C')]
    scene = lower_figure('\\Dtriangle[A`B`C;f`g`h]')
    pairs = [(a.src_text, a.dst_text) for a in scene.arrows]
    assert pairs == [('B', 'C'), ('A', 'B'), ('A', 'C')]


PAIR_WALKS = {
    'Atrianglepair': [
        ((0, 0), (500, 0), 'k', 'b'),
        ((500, 0), (1000, 0), 'm', 'b'),
        ((500, 500), (0, 0), 'f', 'l'),
        ((500, 500), (500, 0), 'g', 'm'),
        ((500, 500), (1000, 0), 'h', 'r'),
    ],
    'Vtrianglepair': [
        ((0, 500), (500, 500), 'f', 'a'),
        ((0, 500), (500, 0), 'h', 'l'),
        ((500, 500), (1000, 500), 'g', 'a'),
        ((500, 500), (500, 0), 'k', 'm'),
        ((1000, 500), (500, 0), 'm', 'r'),
    ],
    'Ctrianglepair': [
        ((0, 500), (0, 0), 'm', 'r'),
        ((-500, 500), (0, 500), 'h', 'm'),
        ((-500, 500), (0, 0), 'k', 'l'),
        ((0, 1000), (-500, 500), 'f', 'l'),
        ((0, 1000), (0, 500), 'g', 'r'),
    ],
    'Dtrianglepair': [
        ((0, 500), (500, 500), 'h', 'm'),
        ((0, 500), (0, 0), 'k', 'l'),
        ((0, 1000), (0, 500), 'f', 'l'),
        ((0, 1000), (500, 500), 'g', 'r'),
        ((500, 500), (0, 0), 'm', 'r'),
    ],
}


@pytest.mark.parametrize('keyword', sorted(PAIR_WALKS))
def test_triangle_pair_walks_frozen(keyword):
    scene = lower_figure('\\%s[A`B`C`D;f`g`h`k`m]' % keyword)
    assert arrow_tuples(scene) == PAIR_WALKS[keyword]


# ---- pullback and cube ---------------------------------------------------

def test_pullback_frozen():
    scene = lower_figure('\\pullback[A`B`C`D;f`g`h`k]<400,300>[E;p`q`r]')
    assert arrow_tuples(scene)[4:] == [
        ((-400, 800), (500, 500), 'p', 'a'),
        ((-400, 800), (0, 500), 'q', 'm'),
        ((-400, 800), (0, 0), 'r', 'b'),
    ]
    assert node_tuples(scene) == [
        ((0, 0), 'C'), ((500, 0), 'D'), ((0, 500), 'A'),
        ((500, 500), 'B'), ((-400, 800), 'E'),
    ]
    apex_targets = [a.dst_text for a in scene.arrows[4:]]
    assert apex_targets == ['B', 'A', 'C']


def test_pullback_contains_its_square():
    full = lower_figure('\\pullback(1,2)[A`B`C`D;f`g`h`k][E;p`q`r]')
    square = lower_figure('\\square(1,2)[A`B`C`D;f`g`h`k]')
    assert full.arrows[:4] == square.arrows


def test_cube_frozen():
    scene = lower_figure(
        '\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][x`y`z`w]')
    assert len(scene.nodes) == 8
    assert len(scene.arrows) == 12
    positions = {n.text: (n.pos.x, n.pos.y) for n in scene.nodes}
    assert positions == {
        'C': (0, 0), 'D': (1500, 0), 'A': (0, 1500), 'B': (1500, 1500),
        'c': (500, 500), 'd': (1000, 500), 'a': (500, 1000),
        'b': (1000, 1000),
    }
    # connectors run outer corner to inner, top-right first
    assert arrow_tuples(scene)[8:] == [
        ((1500, 1500), (1000, 1000), 'y', 'm'),
        ((0, 1500), (500, 1000), 'x', 'm'),
        ((0, 0), (500, 500), 'z', 'm'),
        ((1500, 0), (1000, 500), 'w', 'm'),
    ]
    assert all(not n.phantom for n in scene.nodes)


# ---- composite squares ---------------------------------------------------

def test_hsquares_equals_two_squares():
    composite = lower_figure('\\hsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    panes = lower_figure(
        '\\square|almb|[A`B`D`E;f`h`k`n]\n'
        '\\square(500,0)|amrb|/>``>`>/[B`C`E`F;g``m`p]')
    assert composite == panes


def test_vsquares_equals_two_squares():
    composite = lower_figure('\\vsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    panes = lower_figure(
        '\\square|mrbb|/`>`>`>/[C`D`E`F;`m`n`p]\n'
        '\\square(0,500)|aalm|[A`B`C`D;f`g`h`k]')
    assert composite == panes


def test_hsquares_shares_middle_edge_once():
    scene = lower_figure('\\hsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    middle = [a for a in scene.arrows
              if (a.src.x, a.dst.x) == (500, 500) and a.src.y != a.dst.y]
    assert len(middle) == 1
    assert middle[0].label == 'k'
    assert len(scene.nodes) == 6
    assert len(scene.arrows) == 7


def test_h_auto_squares_widths():
    scene = lower_figure('\\hSquares[{AAAA}`B`C`D`E`F;f`g`h`k`m`n`p]')
    positions = {n.text: n.pos.x for n in scene.nodes}
    assert positions['AAAA'] == 0
    assert positions['B'] == 525
    assert positions['C'] == 1025


def test_v_auto_squares_upper_height_comes_first():
    scene = lower_figure('\\vSquares<700,300>[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    heights = {n.text: n.pos.y for n in scene.nodes}
    assert heights['E'] == 0
    assert heights['C'] == 300
    assert heights['A'] == 1000


# ---- grids ----------------------------------------------------------------

GRID_PAYLOAD_3X3 = '[A`B`C`D`E`F`G`H`I;a`b`c`d`e`f`g`h`i`j`k`l]'
GRID_PAYLOAD_3X2 = '[A`B`C`D`E`F;a`b`c`d`e`f`g]'


def test_grid3x3_mask0_walk():
    scene = lower_figure('\\iiixiii' + GRID_PAYLOAD_3X3)
    assert [a.label for a in scene.arrows] == \
        ['f', 'g', 'a', 'c', 'b', 'd', 'e', 'k', 'l', 'h', 'i', 'j']
    assert arrow_tuples(scene) == [
        ((0, 500), (500, 500), 'f', 'm'),
        ((500, 500), (1000, 500), 'g', 'm'),
        ((0, 1000), (500, 1000), 'a', 'a'),
        ((0, 1000), (0, 500), 'c', 'l'),
        ((500, 1000), (1000, 1000), 'b', 'a'),
        ((500, 1000), (500, 500), 'd', 'm'),
        ((1000, 1000), (1000, 500), 'e', 'r'),
        ((0, 0), (500, 0), 'k', 'b'),
        ((500, 0), (1000, 0), 'l', 'b'),
        ((0, 500), (0, 0), 'h', 'l'),
        ((500, 500), (500, 0), 'i', 'm'),
        ((1000, 500), (1000, 0), 'j', 'r'),
    ]
    assert [n.text for n in scene.nodes] == \
        ['D', 'E', 'F', 'A', 'B', 'C', 'G', 'H', 'I']


FULL_GRID_ENDPOINTS = [
    ((-400, 500), (0, 500)),
    ((0, 500), (500, 500)),
    ((500, 500), (1000, 500)),
    ((1000, 500), (1400, 500)),
    ((-400, 1000), (0, 1000)),
    ((0, 1400), (0, 1000)),
    ((0, 1000), (500, 1000)),
    ((0, 1000), (0, 500)),
    ((500, 1000), (1000, 1000)),
    ((500, 1000), (500, 500)),
    ((500, 1400), (500, 1000)),
    ((1000, 1000), (1000, 500)),
    ((1000, 1400), (1000, 1000)),
    ((1000, 1000), (1400, 1000)),
    ((-400, 0), (0, 0)),
    ((0, 0), (0, -400)),
    ((0, 0), (500, 0)),
    ((500, 0), (1000, 0)),
    ((500, 0), (500, -400)),
    ((1000, 0), (1400, 0)),
    ((1000, 0), (1000, -400)),
    ((0, 500), (0, 0)),
    ((500, 500), (500, 0)),
    ((1000, 500), (1000, 0)),
]


def test_grid3x3_full_mask_walk():
    scene = lower_figure('\\iiixiii(0,0){4095}' + GRID_PAYLOAD_3X3)
    assert len(scene.arrows) == 24
    assert len(scene.nodes) == 21
    endpoints = [((a.src.x, a.src.y), (a.dst.x, a.dst.y))
                 for a in scene.arrows]
    assert endpoints == FULL_GRID_ENDPOINTS
    borders = [a for a in scene.arrows if '0' in (a.src_text, a.dst_text)]
    assert len(borders) == 12
    assert all(a.label == '' for a in borders)
    # incoming borders are stored forward, out of the blank node
    incoming = [a for a in borders if a.src_text == '0']
    assert len(incoming) == 6


def test_grid3x3_mask_popcount_drives_arrow_count():
    for mask in (0, 1, 32, 33, 2048, 4095):
        scene = lower_figure('\\iiixiii(0,0){%d}%s'
                             % (mask, GRID_PAYLOAD_3X3))
        assert len(scene.arrows) == 12 + bin(mask).count('1')


def test_grid3x3_border_length():
    # a span group after the mask overrides the border reach
    scene = lower_figure('\\iiixiii(0,0){32}' + GRID_PAYLOAD_3X3)
    assert (scene.arrows[0].src.x, scene.arrows[0].src.y) == (-400, 500)
    scene = lower_figure('\\iiixiii(0,0){32}<250,300>' + GRID_PAYLOAD_3X3)
    assert (scene.arrows[0].src.x, scene.arrows[0].src.y) == (-250, 500)


def test_grid3x2_full_mask_walk():
    scene = lower_figure('\\iiixii(0,0){15}' + GRID_PAYLOAD_3X2)
    assert len(scene.arrows) == 11
    assert len(scene.nodes) == 10
    endpoints = [((a.src.x, a.src.y), (a.dst.x, a.dst.y))
                 for a in scene.arrows]
    assert endpoints == [
        ((-400, 0), (0, 0)),
        ((0, 0), (500, 0)),
        ((500, 0), (1000, 0)),
        ((1000, 0), (1400, 0)),
        ((-400, 500), (0, 500)),
        ((0, 500), (500, 500)),
        ((0, 500), (0, 0)),
        ((500, 500), (1000, 500)),
        ((500, 500), (500, 0)),
        ((1000, 500), (1000, 0)),
        ((1000, 500), (1400, 500)),
    ]
    # the two left borders come in from blank nodes emitted first
    assert scene.nodes[0].text == '0'
    assert scene.arrows[0].src_text == '0'


def test_grid_mask_out_of_range():
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\iiixiii(0,0){4096}' + GRID_PAYLOAD_3X3)
    assert info.value.code == 'MaskOutOfRange'
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\iiixii(0,0){16}' + GRID_PAYLOAD_3X2)
    assert info.value.code == 'MaskOutOfRange'
    assert info.value.constructor == 'iiixii'

    # no source writes a negative mask, but a statement built by hand can
    begin, grid, end = parse_document(
        '\\bfig\n\\iiixii(0,0){5}%s\n\\efig' % GRID_PAYLOAD_3X2)
    negative = Statement(grid.constructor, grid.origin,
                         grid.placements, grid.specs, grid.spans, grid.nodes,
                         grid.labels, -1, grid.border, loc=grid.loc)
    with pytest.raises(DiagnosticError) as info:
        Lowerer().lower_document([begin, negative, end])
    assert info.value.code == 'MaskOutOfRange'
    assert info.value.message == 'grid mask -1 does not fit in 4 bits'
    # the same grid, mask 5
    assert Lowerer().lower_document([begin, grid, end])


# ---- named nodes ----------------------------------------------------------

def test_node_registry_and_arrow():
    scene = lower_figure(
        '\\node p(0,0)[P]\n\\node q(500,300)[Q]\n\\arrow|a|/->/[p`q;f]')
    assert node_tuples(scene) == [((0, 0), 'P'), ((500, 300), 'Q')]
    assert arrow_tuples(scene) == [((0, 0), (500, 300), 'f', 'a')]
    assert not scene.nodes[0].phantom


def test_registry_spans_figures():
    scenes = lower(
        '\\bfig \\node p(0,0)[P] \\node q(500,0)[Q] \\efig\n'
        '\\bfig \\arrow/->/[p`q;f] \\efig')
    second = scenes[1]
    assert arrow_tuples(second) == [((0, 0), (500, 0), 'f', 'a')]
    # referenced endpoints come back as phantoms so they do not repaint
    assert all(n.phantom for n in second.nodes)


def test_registry_is_per_document():
    lower('\\bfig \\node p(0,0)[P] \\efig')
    with pytest.raises(DiagnosticError) as info:
        lower('\\bfig \\arrow/->/[p`q;f] \\efig')
    assert info.value.code == 'UnknownNode'


def test_duplicate_node():
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\node p(0,0)[P]\n\\node p(1,1)[Q]')
    assert info.value.code == 'DuplicateNode'
    assert "'p'" in info.value.message


def test_unknown_node_named():
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\node p(0,0)[P]\n\\arrow/->/[p`nope;f]')
    assert info.value.code == 'UnknownNode'
    assert "'nope'" in info.value.message


def test_arrow_between_same_point_is_degenerate():
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\node p(0,0)[P]\n\\node q(0,0)[Q]\n'
                     '\\arrow/->/[p`q;f]')
    assert info.value.code == 'DegenerateArrow'


# ---- loops -----------------------------------------------------------------

def test_loop():
    scene = lower_figure('\\Loop(100,200){A}(ul,ur)')
    assert node_tuples(scene) == [((100, 200), 'A')]
    arrow = scene.arrows[0]
    assert arrow.src == arrow.dst == LogicalPoint(100, 200)
    assert (arrow.loop_out, arrow.loop_in) == ('ul', 'ur')
    assert arrow.is_loop


def test_loop_same_direction_is_degenerate():
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\Loop(0,0){A}(r,r)')
    assert info.value.code == 'DegenerateLoop'


def test_loop_bad_direction():
    with pytest.raises(DiagnosticError) as info:
        lower_figure('\\Loop(0,0){A}(xx,d)')
    assert info.value.code == 'BadDirection'
    assert info.value.constructor == 'Loop'


def test_inline_loop_is_its_own_unit():
    scenes = lower('\\iloop{x}(d,r)')
    assert len(scenes) == 1
    arrow = scenes[0].arrows[0]
    assert arrow.src == LogicalPoint(0, 0)
    assert (arrow.loop_out, arrow.loop_in) == ('d', 'r')


# ---- figure bookkeeping ------------------------------------------------

def test_figures_do_not_nest():
    with pytest.raises(DiagnosticError) as info:
        lower('\\bfig \\bfig')
    assert info.value.code == 'UnbalancedFigure'
    assert 'nest' in info.value.message


def test_stray_efig():
    with pytest.raises(DiagnosticError) as info:
        lower('\\efig')
    assert info.value.code == 'UnbalancedFigure'


def test_unclosed_figure_reports_the_opener():
    with pytest.raises(DiagnosticError) as info:
        lower('\\bfig \\square[A`B`C`D;f`g`h`k]')
    err = info.value
    assert err.code == 'UnbalancedFigure'
    assert err.constructor == 'bfig'
    assert (err.loc.line, err.loc.col) == (1, 1)


def test_shape_outside_figure():
    with pytest.raises(DiagnosticError) as info:
        lower('\\square[A`B`C`D;f`g`h`k]')
    err = info.value
    assert err.code == 'MisplacedConstructor'
    assert '\\square' in err.message


def test_inline_inside_figure():
    # each running-text constructor is named for what it is
    for source, line in [
            ('\\bfig \\to \\efig',
             '<input>:1:7: error: MisplacedConstructor: inline arrows live '
             'in running text, not inside a figure [in \\to]'),
            ('\\bfig \\iloop{x}(d,r) \\efig',
             '<input>:1:7: error: MisplacedConstructor: inline loops live '
             'in running text, not inside a figure [in \\iloop]')]:
        with pytest.raises(DiagnosticError) as info:
            lower(source)
        assert info.value.format() == line


def test_empty_figure_is_an_empty_scene():
    scenes = lower('\\bfig\\efig')
    assert scenes == [type(scenes[0])()]


def test_multiple_units_in_order():
    scenes = lower('\\bfig \\place(0,0)[A] \\efig \\to '
                   '\\bfig \\place(1,1)[B] \\efig')
    assert len(scenes) == 3
    assert scenes[0].nodes[0].text == 'A'
    assert scenes[1].inlines[0].kind == 'to'
    assert scenes[2].nodes[0].text == 'B'


# ---- inline fragments ----------------------------------------------------

def inline(source):
    scenes = lower(source)
    assert len(scenes) == 1
    assert len(scenes[0].inlines) == 1
    return scenes[0].inlines[0]


def test_to_default_length():
    frag = inline('\\to')
    assert frag.end == LogicalPoint(150, 0)
    assert len(frag.parts) == 1
    assert frag.parts[0].style.head == 'normal'
    assert frag.unit_scale == 1.0 and frag.raise_pt == 0.0


def test_to_length_tracks_labels():
    assert inline('\\to^f_g').end == LogicalPoint(200, 0)
    assert inline('\\to<321>^f').end == LogicalPoint(321, 0)
    part = inline('\\to^f_g').parts[0]
    assert (part.sup, part.sub) == ('f', 'g')


def test_two_offsets_and_floor():
    frag = inline('\\two^f_g')
    assert frag.end == LogicalPoint(200, 0)
    top, bottom = frag.parts
    assert top.style.parallel_offset_pt == 2.5
    assert bottom.style.parallel_offset_pt == -2.5
    assert (top.sup, bottom.sub) == ('f', 'g')
    assert inline('\\two^{fff}_g').end == LogicalPoint(300, 0)


def test_three_order_and_mid():
    frag = inline('\\three/>`-->`>/^f|m_g')
    assert frag.end == LogicalPoint(300, 0)
    middle, top, bottom = frag.parts
    assert middle.style.shaft == 'dashed'
    assert middle.mid == 'm'
    assert top.style.parallel_offset_pt == 4.5
    assert bottom.style.parallel_offset_pt == -4.5
    assert inline('\\three^{ffff}|{}_g').end == LogicalPoint(350, 0)
    assert inline('\\three^f|{}_g').parts[0].mid == ''


@pytest.mark.parametrize('keyword, check', [
    ('mon', lambda s: s.tail == 'mono'),
    ('epi', lambda s: s.head == 'double_head'),
    ('toleft', lambda s: s.reversed),
    ('monleft', lambda s: s.tail == 'mono' and s.reversed),
    ('epileft', lambda s: s.head == 'double_head' and s.reversed),
])
def test_inline_presets(keyword, check):
    frag = inline('\\%s' % keyword)
    assert frag.end == LogicalPoint(150, 0)
    assert check(frag.parts[0].style)


def test_twoar_fragment():
    frag = inline('\\twoar(2,1)')
    assert frag.kind == 'twoar'
    assert frag.end == LogicalPoint(894, 447)
    assert frag.unit_scale == 0.1
    assert frag.parts[0].style.shaft == 'double'
    with pytest.raises(DiagnosticError) as info:
        lower('\\twoar(0,0)')
    assert info.value.code == 'DegenerateArrow'


def test_limit_arrows():
    right = inline('\\rlimto')
    assert right.end == LogicalPoint(100, 0)
    assert (right.tip_scale, right.raise_pt) == (0.8, 2.0)
    assert not right.parts[0].style.reversed
    left = inline('\\llimto')
    assert left.parts[0].style.reversed


def test_lowerer_reuse_forgets_named_nodes():
    # a named node lasts for its own document, however the Lowerer is kept
    lowerer = Lowerer()
    lowerer.lower_document(parse_document('\\bfig \\node p(0,0)[P] \\efig'))
    with pytest.raises(DiagnosticError) as info:
        lowerer.lower_document(parse_document(
            '\\bfig \\node q(9,9)[Q] \\arrow/->/[p`q;f] \\efig'))
    assert info.value.code == 'UnknownNode'
    assert "'p'" in info.value.message


@pytest.mark.parametrize('source, message', [
    ('\\bfig \\node p(0,0)[P] \\morphism[A`B;f] \\efig \\to', None),
    # raised with a figure open and four arrows lowered in it
    ('\\bfig\\square[A`B`C`D;f`g`h`k]\\bfig', 'figures do not nest'),
    # raised after the last statement
    ('\\bfig \\node p(0,0)[P] \\square[A`B`C`D;f`g`h`k]', 'never closed'),
])
def test_lowerer_keeps_no_document_state(source, message):
    # named nodes, the open figure and the statement being lowered live in
    # the call; the Lowerer keeps its settings and its spec memo alone
    kept = {'metrics', 'config', '_styles'}
    lowerer = Lowerer()
    assert set(vars(lowerer)) == kept
    if message is None:
        assert len(lowerer.lower_document(parse_document(source))) == 2
    else:
        with pytest.raises(DiagnosticError) as info:
            lowerer.lower_document(parse_document(source))
        assert info.value.code == 'UnbalancedFigure'
        assert message in info.value.message
    assert set(vars(lowerer)) == kept


def test_lowerer_lowers_the_same_document_twice():
    lowerer = Lowerer()
    source = parse_document('\\bfig \\node a(0,0)[A] \\node b(500,0)[B] '
                            '\\arrow/->/[a`b;f] \\efig')
    first = lowerer.lower_document(source)
    assert lowerer.lower_document(source) == first
    # a name defined twice in one document is still an error
    with pytest.raises(DiagnosticError) as info:
        lowerer.lower_document(
            parse_document('\\bfig \\node a(0,0)[A] \\node a(1,1)[B] \\efig'))
    assert info.value.code == 'DuplicateNode'
