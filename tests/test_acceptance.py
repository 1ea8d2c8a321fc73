"""Acceptance suite: the ten numbered criteria this compiler ships under.

Every block freezes its expectations as hand-computed tables or as
independent re-transcriptions of the width and coordinate arithmetic,
so a pipeline regression cannot re-derive its way past them.  Criterion
N is the set of functions named ``test_cNN_*``; conftest.py folds their
outcomes into one pass/fail line per criterion at the end of the run.

Tolerances, pinned once here: logical coordinates, spans, widths and
mask arithmetic are exact integer comparisons; resolved (physical)
geometry is float and compared within 1e-9 pt; emitted files are
compared byte for byte.
"""
from __future__ import annotations

import json
import math
import random
import time
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from diagramc import compile_source
from diagramc.cli import main as cli_main
from diagramc.layout import node_box, resolve_scene
from diagramc.lowering import twoar_end
from diagramc.metrics import MetricsTable
from diagramc.model import LEFT, MID, RIGHT, RenderConfig, resolve_label_side
from diagramc.parser import parse_document
from diagramc.scenefile import dump_scene
from diagramc.svg import render

CORPUS_DIR = Path(__file__).parent / 'corpus'


def one_scene(source):
    scenes = compile_source(source)
    assert len(scenes) == 1
    return scenes[0]


def figure(body):
    return one_scene('\\bfig\n%s\n\\efig\n' % body)


def node_set(scene):
    return {((n.pos.x, n.pos.y), n.text, n.anchor, n.phantom)
            for n in scene.nodes}


def positions(scene):
    return {(n.pos.x, n.pos.y) for n in scene.nodes}


def walk(scene):
    """Arrows in draw order as ((sx, sy), (dx, dy), label, rule)."""
    return [((a.src.x, a.src.y), (a.dst.x, a.dst.y), a.label, a.label_rule)
            for a in scene.arrows]


def astuple(style):
    """Every field of an arrow style, in field order."""
    return tuple(getattr(style, name) for name in type(style).__slots__)


def arrow_set(scene):
    """Arrows as an order-free set carrying everything that draws."""
    return {((a.src.x, a.src.y), (a.dst.x, a.dst.y), a.label, a.label_rule,
             a.src_text, a.dst_text, astuple(a.style), a.loop_out, a.loop_in)
            for a in scene.arrows}


# =========================================================================
# C1  Constructor defaults.  Parsing with every optional group omitted
#     must fill the documented placements, specs, spans, masks and
#     borders, and lowering must land the nodes on the documented
#     lattice.  All comparisons are exact integers.
#
#     The constructor surface has 23 entries; triangle and triangle-pair
#     kinds and the inline-arrow family are spelled out per kind below,
#     which covers each entry at least once.
# =========================================================================

TRIANGLE_DEFAULTS = {
    # kind: placements, node positions, arrow walk
    'ptriangle': ('alr', {(0, 500), (500, 500), (0, 0)}, [
        ((0, 500), (500, 500), 'f', 'a'),
        ((0, 500), (0, 0), 'g', 'l'),
        ((500, 500), (0, 0), 'h', 'r'),
    ]),
    'qtriangle': ('alr', {(0, 500), (500, 500), (500, 0)}, [
        ((0, 500), (500, 500), 'f', 'a'),
        ((0, 500), (500, 0), 'g', 'l'),
        ((500, 500), (500, 0), 'h', 'r'),
    ]),
    'dtriangle': ('lrb', {(500, 500), (0, 0), (500, 0)}, [
        ((0, 0), (500, 0), 'h', 'b'),
        ((500, 500), (0, 0), 'f', 'l'),
        ((500, 500), (500, 0), 'g', 'r'),
    ]),
    'btriangle': ('lrb', {(0, 500), (0, 0), (500, 0)}, [
        ((0, 0), (500, 0), 'h', 'b'),
        ((0, 500), (0, 0), 'f', 'l'),
        ((0, 500), (500, 0), 'g', 'r'),
    ]),
    'Atriangle': ('lrb', {(500, 500), (0, 0), (1000, 0)}, [
        ((0, 0), (1000, 0), 'h', 'b'),
        ((500, 500), (0, 0), 'f', 'l'),
        ((500, 500), (1000, 0), 'g', 'r'),
    ]),
    'Vtriangle': ('alb', {(0, 500), (1000, 500), (500, 0)}, [
        ((0, 500), (500, 0), 'g', 'l'),
        ((0, 500), (1000, 500), 'f', 'a'),
        ((1000, 500), (500, 0), 'h', 'b'),
    ]),
    'Ctriangle': ('arb', {(500, 1000), (0, 500), (500, 0)}, [
        ((0, 500), (500, 0), 'h', 'b'),
        ((500, 1000), (0, 500), 'f', 'a'),
        ((500, 1000), (500, 0), 'g', 'r'),
    ]),
    'Dtriangle': ('lab', {(0, 1000), (500, 500), (0, 0)}, [
        ((500, 500), (0, 0), 'h', 'b'),
        ((0, 1000), (500, 500), 'g', 'a'),
        ((0, 1000), (0, 0), 'f', 'l'),
    ]),
}

PAIR_DEFAULTS = {
    'Atrianglepair': ('lmrbb',
                      {(500, 500), (0, 0), (500, 0), (1000, 0)}),
    'Vtrianglepair': ('aalmr',
                      {(0, 500), (500, 500), (1000, 500), (500, 0)}),
    'Ctrianglepair': ('lrmlr',
                      {(0, 1000), (-500, 500), (0, 500), (0, 0)}),
    'Dtrianglepair': ('lrmlr',
                      {(0, 1000), (0, 500), (500, 500), (0, 0)}),
}

SQUARE_CORNERS = {(0, 500), (500, 500), (0, 0), (500, 0)}

LATTICE_2X3 = {(0, 0), (500, 0), (1000, 0), (0, 500), (500, 500), (1000, 500)}
LATTICE_3X2 = {(0, 0), (500, 0), (0, 500), (500, 500), (0, 1000), (500, 1000)}
LATTICE_3X3 = {(x, y) for x in (0, 500, 1000) for y in (0, 500, 1000)}


def statement(source):
    stmts = parse_document(source)
    assert len(stmts) == 1
    return stmts[0]


def test_c01_defaults_morphism():
    stmt = statement('\\morphism[A`B;f]')
    assert (stmt.placements, stmt.specs, stmt.spans) == ('a', ('>',), (500, 0))
    scene = figure('\\morphism[A`B;f]')
    assert positions(scene) == {(0, 0), (500, 0)}
    assert walk(scene) == [((0, 0), (500, 0), 'f', 'a')]


def test_c01_defaults_vect():
    # both groups of \vect are mandatory; the default is the bare segment
    scene = figure('\\vect(0,0)/>/<500,0>')
    assert walk(scene) == [((0, 0), (500, 0), '', 'none')]
    assert scene.nodes == ()


def test_c01_defaults_square():
    stmt = statement('\\square[A`B`C`D;f`g`h`k]')
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        ('alrb', ('>',) * 4, (500, 500))
    scene = figure('\\square[A`B`C`D;f`g`h`k]')
    assert positions(scene) == SQUARE_CORNERS
    assert walk(scene) == [
        ((0, 0), (500, 0), 'k', 'b'),
        ((0, 500), (0, 0), 'g', 'l'),
        ((0, 500), (500, 500), 'f', 'a'),
        ((500, 500), (500, 0), 'h', 'r'),
    ]


def test_c01_defaults_auto_square():
    stmt = statement('\\Square[A`B`C`D;f`g`h`k]')
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        ('alrb', ('>',) * 4, (500,))
    # one-glyph rows measure under the floor, so the width clamps to 500
    scene = figure('\\Square[A`B`C`D;f`g`h`k]')
    assert positions(scene) == SQUARE_CORNERS


def test_c01_defaults_diamond():
    stmt = statement('\\Diamond[A`B`C`D;f`g`h`k]')
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        ('lrlr', ('>',) * 4, (400, 400))
    scene = figure('\\Diamond[A`B`C`D;f`g`h`k]')
    texts = {n.text: (n.pos.x, n.pos.y) for n in scene.nodes}
    assert texts == {'A': (400, 800), 'B': (0, 400), 'C': (800, 400),
                     'D': (400, 0)}


@pytest.mark.parametrize('kind', sorted(TRIANGLE_DEFAULTS))
def test_c01_defaults_triangle(kind):
    placements, corners, arrows = TRIANGLE_DEFAULTS[kind]
    stmt = statement('\\%s[A`B`C;f`g`h]' % kind)
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        (placements, ('>',) * 3, (500, 500))
    scene = figure('\\%s[A`B`C;f`g`h]' % kind)
    assert positions(scene) == corners
    assert walk(scene) == arrows


@pytest.mark.parametrize('kind', sorted(PAIR_DEFAULTS))
def test_c01_defaults_triangle_pair(kind):
    placements, corners = PAIR_DEFAULTS[kind]
    stmt = statement('\\%s[A`B`C`D;f`g`h`k`m]' % kind)
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        (placements, ('>',) * 5, (500, 500))
    scene = figure('\\%s[A`B`C`D;f`g`h`k`m]' % kind)
    assert positions(scene) == corners
    assert len(scene.arrows) == 5


def test_c01_defaults_pullback():
    stmt = statement('\\pullback[A`B`C`D;f`g`h`k][E;u`m`v]')
    assert stmt.inner.placements == 'alrb'
    assert stmt.inner.spans == (500, 500)
    assert stmt.trident.placements == 'amb'
    assert stmt.trident.specs == ('>',) * 3
    assert stmt.trident.spans == (500, 500)
    scene = figure('\\pullback[A`B`C`D;f`g`h`k][E;u`m`v]')
    assert positions(scene) == SQUARE_CORNERS | {(-500, 1000)}


def test_c01_defaults_hsquares():
    stmt = statement('\\hsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        ('aalmrbb', ('>',) * 7, (500, 500, 500))
    scene = figure('\\hsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert positions(scene) == LATTICE_2X3
    assert len(scene.arrows) == 7


def test_c01_defaults_h_auto_squares():
    stmt = statement('\\hSquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        ('aalmrbb', ('>',) * 7, (500,))
    scene = figure('\\hSquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert positions(scene) == LATTICE_2X3


def test_c01_defaults_vsquares():
    stmt = statement('\\vsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        ('aalmrbb', ('>',) * 7, (500, 500, 500))
    scene = figure('\\vsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert positions(scene) == LATTICE_3X2
    assert len(scene.arrows) == 7


def test_c01_defaults_v_auto_squares():
    stmt = statement('\\vSquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert (stmt.placements, stmt.specs, stmt.spans) == \
        ('alrmlrb', ('>',) * 7, (500, 500))
    scene = figure('\\vSquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert positions(scene) == LATTICE_3X2


def test_c01_defaults_cube():
    stmt = statement('\\cube[A`B`C`D;f`g`h`k][W`X`Y`Z;p`q`r`s][a`b`c`d]')
    assert stmt.placements == 'alrb'
    assert stmt.spans == (1500, 1500)
    assert (stmt.inner.origin.x, stmt.inner.origin.y) == (500, 500)
    assert stmt.inner.spans == (500, 500)
    assert stmt.connector.placements == 'mmmm'
    assert stmt.connector.specs == ('>',) * 4
    scene = figure('\\cube[A`B`C`D;f`g`h`k][W`X`Y`Z;p`q`r`s][a`b`c`d]')
    outer = {(0, 0), (1500, 0), (0, 1500), (1500, 1500)}
    inner = {(500, 500), (1000, 500), (500, 1000), (1000, 1000)}
    assert positions(scene) == outer | inner
    assert len(scene.arrows) == 12
    # the top-left connector runs outward corner to inward corner
    assert ((0, 1500), (500, 1000)) in {(s, d) for s, d, _, _ in walk(scene)}


GRID_3X3_SRC = '\\iiixiii[A`B`C`D`E`F`G`H`I;a`b`c`d`e`f`g`h`i`j`k`l]'
GRID_3X2_SRC = '\\iiixii[A`B`C`D`E`F;a`b`c`d`e`f`g]'


def test_c01_defaults_grid3x3():
    stmt = statement(GRID_3X3_SRC)
    assert stmt.placements == 'aalmrmmlmrbb'
    assert stmt.specs == ('>',) * 12
    assert stmt.spans == (500, 500)
    assert stmt.mask == 0
    assert stmt.border == (400, 400)
    scene = figure(GRID_3X3_SRC)
    assert positions(scene) == LATTICE_3X3
    assert len(scene.arrows) == 12


def test_c01_defaults_grid3x2():
    stmt = statement(GRID_3X2_SRC)
    assert stmt.placements == 'aalmrbb'
    assert stmt.specs == ('>',) * 7
    assert stmt.spans == (500, 500)
    assert stmt.mask == 0
    assert stmt.border == (400,)
    scene = figure(GRID_3X2_SRC)
    assert positions(scene) == LATTICE_2X3
    assert len(scene.arrows) == 7


def test_c01_defaults_place():
    stmt = statement('\\place(100,200)[X]')
    assert stmt.anchor == 'center'
    scene = figure('\\place(100,200)[X]')
    assert node_set(scene) == {((100, 200), 'X', 'center', False)}


def test_c01_defaults_node_and_arrow():
    stmt = statement('\\arrow[a`b;f]')
    assert (stmt.placements, stmt.specs) == ('a', ('>',))
    scene = figure('\\node a(0,0)[A]\n\\node b(600,0)[B]\n\\arrow[a`b;f]')
    assert walk(scene) == [((0, 0), (600, 0), 'f', 'a')]


def test_c01_defaults_loop():
    scene = figure('\\Loop(0,0)A(ur,dr)')
    [arrow] = scene.arrows
    assert arrow.is_loop
    assert (arrow.loop_out, arrow.loop_in) == ('ur', 'dr')


def test_c01_defaults_inline_loop():
    scenes = compile_source('\\iloop e(u,l)')
    [arrow] = scenes[0].arrows
    assert arrow.is_loop
    assert (arrow.loop_out, arrow.loop_in) == ('u', 'l')


def test_c01_defaults_inline_arrow():
    stmt = statement('\\to')
    assert stmt.specs == ('>',)
    assert stmt.length == 0          # 0 means "measure the labels"
    scenes = compile_source('\\to')
    [fragment] = scenes[0].inlines
    assert (fragment.end.x, fragment.end.y) == (150, 0)
    assert fragment.unit_scale == 1.0


def test_c01_defaults_figure_pair():
    scenes = compile_source('\\bfig\\efig')
    assert len(scenes) == 1
    assert scenes[0].nodes == () and scenes[0].arrows == ()


# =========================================================================
# C2  Label side resolution.  The full rule-letter-by-sign table,
#     transcribed by hand: l takes the left of the direction exactly
#     when dy > 0, r exactly when dy < 0, a exactly when dx > 0, b
#     exactly when dx < 0; every other defined case is the right side.
#     (0, 0) has no direction and is excluded.  All 32 cases must match.
# =========================================================================

SIDE_TRUTH = [
    ('l', -1, -1, RIGHT), ('l', -1, 0, RIGHT), ('l', -1, 1, LEFT),
    ('l', 0, -1, RIGHT), ('l', 0, 1, LEFT),
    ('l', 1, -1, RIGHT), ('l', 1, 0, RIGHT), ('l', 1, 1, LEFT),

    ('r', -1, -1, LEFT), ('r', -1, 0, RIGHT), ('r', -1, 1, RIGHT),
    ('r', 0, -1, LEFT), ('r', 0, 1, RIGHT),
    ('r', 1, -1, LEFT), ('r', 1, 0, RIGHT), ('r', 1, 1, RIGHT),

    ('a', -1, -1, RIGHT), ('a', -1, 0, RIGHT), ('a', -1, 1, RIGHT),
    ('a', 0, -1, RIGHT), ('a', 0, 1, RIGHT),
    ('a', 1, -1, LEFT), ('a', 1, 0, LEFT), ('a', 1, 1, LEFT),

    ('b', -1, -1, LEFT), ('b', -1, 0, LEFT), ('b', -1, 1, LEFT),
    ('b', 0, -1, RIGHT), ('b', 0, 1, RIGHT),
    ('b', 1, -1, RIGHT), ('b', 1, 0, RIGHT), ('b', 1, 1, RIGHT),
]


def test_c02_side_table_is_complete():
    covered = {(rule, sx, sy) for rule, sx, sy, _ in SIDE_TRUTH}
    wanted = {(rule, sx, sy)
              for rule in 'lrab'
              for sx in (-1, 0, 1)
              for sy in (-1, 0, 1)
              if (sx, sy) != (0, 0)}
    assert covered == wanted and len(SIDE_TRUTH) == 32


@pytest.mark.parametrize('rule,sx,sy,expected',
                         SIDE_TRUTH,
                         ids=['%s_dx%+d_dy%+d' % (r, x, y)
                              for r, x, y, _ in SIDE_TRUTH])
def test_c02_side_table(rule, sx, sy, expected):
    # sides depend on the signs only, so any magnitude must agree
    assert resolve_label_side(rule, sx, sy) == expected
    assert resolve_label_side(rule, 400 * sx, 400 * sy) == expected


def test_c02_mid_and_unlabeled():
    assert resolve_label_side('m', 1, 0) == MID
    assert resolve_label_side('x', 1, 0) not in (LEFT, RIGHT, MID)


# =========================================================================
# C3  Composition.  The pasted constructors must equal the deduplicated
#     union of their constituent squares: same node set, same arrow set,
#     exactly.  Shared edges are drawn by one pane; the other pane leaves
#     the slot's spec and label empty, which suppresses that arrow.
# =========================================================================

COMPOSITES = {
    'hsquares': (
        '\\hsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]',
        '\\square|almb|[A`B`D`E;f`h`k`n]\n'
        '\\square(500,0)|amrb|/>``>`>/[B`C`E`F;g``m`p]',
    ),
    'vsquares': (
        '\\vsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]',
        '\\square|mrbb|/`>`>`>/[C`D`E`F;`m`n`p]\n'
        '\\square(0,500)|aalm|[A`B`C`D;f`g`h`k]',
    ),
    'grid3x2': (
        GRID_3X2_SRC,
        '\\square|almb|[A`B`D`E;a`c`d`f]\n'
        '\\square(500,0)|amrb|/>``>`>/[B`C`E`F;b``e`g]',
    ),
    'grid3x3': (
        GRID_3X3_SRC,
        '\\square(0,500)|almm|[A`B`D`E;a`c`d`f]\n'
        '\\square(500,500)|amrm|/>``>`>/[B`C`E`F;b``e`g]\n'
        '\\square(0,0)|mlmb|/`>`>`>/[D`E`G`H;`h`i`k]\n'
        '\\square(500,0)|mmrb|/``>`>/[E`F`H`I;``j`l]',
    ),
}


@pytest.mark.parametrize('name', sorted(COMPOSITES))
def test_c03_composition(name):
    composite_src, squares_src = COMPOSITES[name]
    composite = figure(composite_src)
    squares = figure(squares_src)
    assert node_set(composite) == node_set(squares)
    assert arrow_set(composite) == arrow_set(squares)
    # same cardinality too: nothing hides behind deduplication
    assert len(composite.arrows) == len(squares.arrows)


# =========================================================================
# C4  Auto width.  morphism_width must equal the step-by-step
#     transcription of the width chain: measure node + doubled label +
#     node, halve, convert to units, pad by 350, raise to at least 500,
#     every division truncating, in that order.  Exact integers.
# =========================================================================

def _trunc_div(a, b):
    """Truncating integer division, written independently of the code
    under test (Fraction -> int truncates toward zero)."""
    return int(Fraction(a, b))


def _transcribed_width(chars_a, chars_label, chars_b):
    # in the builtin table every printable glyph advances 500 milli-em
    width = 500 * chars_a + 2 * (500 * chars_label) + 500 * chars_b
    width = _trunc_div(width, 2)
    width = _trunc_div(width, 10)
    width = width + 350
    if width < 500:
        width = 500
    return width


def test_c04_auto_width_randomized():
    metrics = MetricsTable.builtin()
    cfg = RenderConfig()
    rng = random.Random(0x5eed)
    for _ in range(50):
        la = rng.randint(1, 12)
        lb = rng.randint(1, 12)
        ll = rng.randint(0, 40)
        got = metrics.morphism_width('A' * la, 'B' * lb, 'f' * ll, cfg)
        assert got == _transcribed_width(la, ll, lb)


def test_c04_clamp_boundary():
    metrics = MetricsTable.builtin()
    cfg = RenderConfig()
    # 6 glyphs in the box is the exact boundary: the unclamped chain
    # gives 500; one glyph less must be pulled up, one more must clear it
    assert metrics.morphism_width('A', 'B', 'ff', cfg) == 500
    assert _transcribed_width(1, 2, 1) == 500
    assert metrics.morphism_width('A', 'B', 'f', cfg) == 500
    assert 500 * 1 + 1000 * 1 + 500 * 1 < 3000   # raw 475, ratchet engaged
    assert metrics.morphism_width('AB', 'B', 'ff', cfg) == 525


# =========================================================================
# C5  twoar arithmetic.  The endpoint of the free-direction double arrow
#     must match this independent transcription of the integer sequence
#     for every direction in [-5, 5]^2 except the origin.  Exact.
# =========================================================================

def _transcribed_twoar(dx, dy):
    big_x, big_y = abs(dx), abs(dy)
    norm = (dx * dx + dy * dy) * 3
    if big_x > big_y:
        denom = 3 * big_x + big_y
    else:
        denom = big_x + 3 * big_y
    sx, sy = 500 * dx, 500 * dy
    x = _trunc_div(sx * 3, denom) + _trunc_div(sx * denom, norm)
    y = _trunc_div(sy * 3, denom) + _trunc_div(sy * denom, norm)
    return x, y


def test_c05_twoar_sweep():
    for dx in range(-5, 6):
        for dy in range(-5, 6):
            if (dx, dy) == (0, 0):
                continue
            end = twoar_end(dx, dy)
            assert (end.x, end.y) == _transcribed_twoar(dx, dy), (dx, dy)


def test_c05_twoar_through_pipeline():
    scenes = compile_source('\\twoar(2,1)')
    [fragment] = scenes[0].inlines
    assert (fragment.end.x, fragment.end.y) == _transcribed_twoar(2, 1)
    assert fragment.unit_scale == 0.1


# =========================================================================
# C6  Grid masks.  On a fixed 3x3 instance, every mask in 0..4095 must
#     add exactly popcount(mask) border arrows, each with the endpoints
#     this bit table assigns.  Exact, and the sweep must finish within
#     the pinned 5 second budget.
# =========================================================================

# mask 0 arrows of the fixed instance (origin (0,0), spans <500,500>)
GRID_BASE_PAIRS = [
    ((0, 500), (500, 500)), ((500, 500), (1000, 500)),      # middle row
    ((0, 1000), (500, 1000)), ((0, 1000), (0, 500)),        # top row, col 1
    ((500, 1000), (1000, 1000)), ((500, 1000), (500, 500)),
    ((1000, 1000), (1000, 500)),
    ((0, 0), (500, 0)), ((500, 0), (1000, 0)),              # bottom row
    ((0, 500), (0, 0)), ((500, 500), (500, 0)),             # lower columns
    ((1000, 500), (1000, 0)),
]

# bit k set -> one border arrow; default border reach is <400,400>.
# Up and left borders come in from a zero object (the source wrote them
# with a reversed spec, so the stored arrow points at the grid node);
# right and down borders go out to one.
GRID_BIT_PAIRS = {
    0: ((0, 1400), (0, 1000)),        # into A from above
    1: ((500, 1400), (500, 1000)),    # into B from above
    2: ((1000, 1400), (1000, 1000)),  # into C from above
    3: ((-400, 1000), (0, 1000)),     # into A from the left
    4: ((1000, 1000), (1400, 1000)),  # C out right
    5: ((-400, 500), (0, 500)),       # into D from the left
    6: ((1000, 500), (1400, 500)),    # F out right
    7: ((-400, 0), (0, 0)),           # into G from the left
    8: ((1000, 0), (1400, 0)),        # I out right
    9: ((0, 0), (0, -400)),           # G down
    10: ((500, 0), (500, -400)),      # H down
    11: ((1000, 0), (1000, -400)),    # I down
}


def test_c06_all_masks():
    base = Counter(GRID_BASE_PAIRS)
    template = ('\\bfig\\iiixiii{%d}'
                '[A`B`C`D`E`F`G`H`I;a`b`c`d`e`f`g`h`i`j`k`l]\\efig')
    started = time.monotonic()
    for mask in range(4096):
        scene = one_scene(template % mask)
        pairs = Counter(
            ((a.src.x, a.src.y), (a.dst.x, a.dst.y)) for a in scene.arrows)
        border = pairs - base
        popcount = bin(mask).count('1')
        assert sum(border.values()) == popcount, mask
        expected = Counter(GRID_BIT_PAIRS[bit]
                           for bit in range(12) if mask & (1 << bit))
        assert border == expected, mask
    assert time.monotonic() - started < 5.0


# =========================================================================
# C7  Pullback corner.  For random parameterizations, the extra node
#     must sit at (x - dx, y + h + dy) and its three arrows must end on
#     the square's top-right, top-left and bottom-left nodes.  Exact.
# =========================================================================

def test_c07_pullback_randomized():
    rng = random.Random(2718)
    for _ in range(20):
        x = rng.randint(-2000, 2000)
        y = rng.randint(-2000, 2000)
        w = rng.randint(200, 1200)
        h = rng.randint(200, 1200)
        tw = rng.randint(200, 1200)
        th = rng.randint(200, 1200)
        source = ('\\pullback(%d,%d)<%d,%d>[A`B`C`D;f`g`h`k]'
                  '<%d,%d>[E;u`m`v]' % (x, y, w, h, tw, th))
        scene = figure(source)
        corner = (x - tw, y + h + th)
        assert corner in positions(scene)
        [e_node] = [n for n in scene.nodes if n.text == 'E']
        assert (e_node.pos.x, e_node.pos.y) == corner
        trident = [a for a in scene.arrows
                   if (a.src.x, a.src.y) == corner]
        assert len(trident) == 3
        targets = {((a.dst.x, a.dst.y), a.dst_text) for a in trident}
        assert targets == {((x + w, y + h), 'B'),
                           ((x, y + h), 'A'),
                           ((x, y), 'C')}


# =========================================================================
# C8  Geometry.  (a) every origin-taking constructor translates rigidly
#     under random origins, exactly, at the logical level; (b) resolved
#     shaft endpoints land on the clip boxes' boundaries within 1e-9 pt;
#     (c) label anchors project onto the shaft midpoint within 1e-9 pt.
# =========================================================================

# {x},{y} is the shifted origin; the cube names two origins in its
# source (the inner square's default is the absolute point (500,500)),
# so equivariance there means shifting both, via {ix},{iy}
ORIGIN_TEMPLATES = {
    'morphism': '\\morphism({x},{y})[A`B;f]',
    'vect': '\\vect({x},{y})/>/<500,100>',
    'square': '\\square({x},{y})[A`B`C`D;f`g`h`k]',
    'auto-square': '\\Square({x},{y})[A`B`C`D;f`g`h`k]',
    'diamond': '\\Diamond({x},{y})[A`B`C`D;f`g`h`k]',
    'ptriangle': '\\ptriangle({x},{y})[A`B`C;f`g`h]',
    'qtriangle': '\\qtriangle({x},{y})[A`B`C;f`g`h]',
    'dtriangle': '\\dtriangle({x},{y})[A`B`C;f`g`h]',
    'btriangle': '\\btriangle({x},{y})[A`B`C;f`g`h]',
    'Atriangle': '\\Atriangle({x},{y})[A`B`C;f`g`h]',
    'Vtriangle': '\\Vtriangle({x},{y})[A`B`C;f`g`h]',
    'Ctriangle': '\\Ctriangle({x},{y})[A`B`C;f`g`h]',
    'Dtriangle': '\\Dtriangle({x},{y})[A`B`C;f`g`h]',
    'Atrianglepair': '\\Atrianglepair({x},{y})[A`B`C`D;f`g`h`k`m]',
    'Vtrianglepair': '\\Vtrianglepair({x},{y})[A`B`C`D;f`g`h`k`m]',
    'Ctrianglepair': '\\Ctrianglepair({x},{y})[A`B`C`D;f`g`h`k`m]',
    'Dtrianglepair': '\\Dtrianglepair({x},{y})[A`B`C`D;f`g`h`k`m]',
    'pullback': '\\pullback({x},{y})[A`B`C`D;f`g`h`k][E;u`m`v]',
    'hsquares': '\\hsquares({x},{y})[A`B`C`D`E`F;f`g`h`k`m`n`p]',
    'hSquares': '\\hSquares({x},{y})[A`B`C`D`E`F;f`g`h`k`m`n`p]',
    'vsquares': '\\vsquares({x},{y})[A`B`C`D`E`F;f`g`h`k`m`n`p]',
    'vSquares': '\\vSquares({x},{y})[A`B`C`D`E`F;f`g`h`k`m`n`p]',
    'cube': '\\cube({x},{y})[A`B`C`D;f`g`h`k]'
            '({ix},{iy})[W`X`Y`Z;p`q`r`s][a`b`c`d]',
    'grid3x3': '\\iiixiii({x},{y})'
               '[A`B`C`D`E`F`G`H`I;a`b`c`d`e`f`g`h`i`j`k`l]',
    'grid3x2': '\\iiixii({x},{y})[A`B`C`D`E`F;a`b`c`d`e`f`g]',
    'place': '\\place({x},{y})[X]',
    'node': '\\node n({x},{y})[N]',
    'loop': '\\Loop({x},{y})A(ur,dr)',
}


def _shifted_form(scene, ox, oy):
    nodes = sorted((n.pos.x - ox, n.pos.y - oy, n.text, n.anchor, n.phantom)
                   for n in scene.nodes)
    arrows = sorted(
        (a.src.x - ox, a.src.y - oy, a.dst.x - ox, a.dst.y - oy,
         a.label, a.label_rule, astuple(a.style), a.loop_out, a.loop_in)
        for a in scene.arrows)
    return nodes, arrows


def _at_origin(template, ox, oy):
    return template.format(x=ox, y=oy, ix=ox + 500, iy=oy + 500)


@pytest.mark.parametrize('name', sorted(ORIGIN_TEMPLATES))
def test_c08_translation_equivariance(name):
    template = ORIGIN_TEMPLATES[name]
    rng = random.Random(name)   # str seeding is stable across runs
    reference = _shifted_form(figure(_at_origin(template, 0, 0)), 0, 0)
    for _ in range(5):
        ox = rng.randint(-3000, 3000)
        oy = rng.randint(-3000, 3000)
        moved = figure(_at_origin(template, ox, oy))
        assert _shifted_form(moved, ox, oy) == reference, (ox, oy)


GEOMETRY_SOURCES = [
    '\\square[A`B`C`D;f`g`h`k]',
    '\\Diamond[A`B`C`D;f`g`h`k]',
    '\\pullback[AAA`B`C`D;f`g`h`k][E;u`m`v]',
    '\\morphism(0,0)|a|/>/<700,400>[X`Y;f]',
    '\\morphism(0,0)|b|/>/<-500,300>[P`Q;g]',
    '\\morphism(0,0)|m|/>/<600,-600>[M`N;h]',
    '\\node a(0,0)[Left]\n\\node b(900,200)[Right]\n\\arrow|l|/>/[a`b;f]',
]


def _boxes_by_position(scene, metrics, cfg):
    by_pos = {}
    for node in scene.nodes:
        box = node_box(node, metrics, cfg)
        by_pos.setdefault((node.pos.x, node.pos.y), box)
    return by_pos


def _on_boundary(point, box, tol=1e-9):
    x, y = point
    inside = (box.min_x - tol <= x <= box.max_x + tol
              and box.min_y - tol <= y <= box.max_y + tol)
    edge = min(abs(x - box.min_x), abs(x - box.max_x),
               abs(y - box.min_y), abs(y - box.max_y))
    return inside and edge <= tol


@pytest.mark.parametrize('source', GEOMETRY_SOURCES,
                         ids=range(len(GEOMETRY_SOURCES)))
def test_c08_endpoints_on_box_boundaries(source):
    metrics = MetricsTable.builtin()
    cfg = RenderConfig()
    scene = figure(source)
    resolved = resolve_scene(scene, metrics, cfg)
    by_pos = _boxes_by_position(scene, metrics, cfg)
    checked = 0
    for logical, drawn in zip(scene.arrows, resolved.arrows):
        if logical.is_loop or logical.style.parallel_offset_pt:
            continue
        if logical.src_text is not None:
            box = by_pos.get((logical.src.x, logical.src.y))
            if box is not None:
                assert _on_boundary(drawn.start, box), (source, drawn.start)
                checked += 1
        if logical.dst_text is not None:
            box = by_pos.get((logical.dst.x, logical.dst.y))
            if box is not None:
                assert _on_boundary(drawn.end, box), (source, drawn.end)
                checked += 1
    assert checked > 0


LABELED_SOURCES = GEOMETRY_SOURCES + [
    '\\morphism(0,0)|l|/>/<0,-800>[U`V;q]',
    '\\morphism(0,0)|r|/>/<0,700>[U`V;r]',
]


@pytest.mark.parametrize('source', LABELED_SOURCES,
                         ids=range(len(LABELED_SOURCES)))
def test_c08_label_anchors_at_midpoints(source):
    cfg = RenderConfig()
    scene = figure(source)
    resolved = resolve_scene(scene, MetricsTable.builtin(), cfg)
    checked = 0
    for drawn in resolved.arrows:
        if drawn.is_loop:
            continue
        mx = (drawn.start[0] + drawn.end[0]) / 2.0
        my = (drawn.start[1] + drawn.end[1]) / 2.0
        dx = drawn.end[0] - drawn.start[0]
        dy = drawn.end[1] - drawn.start[1]
        length = math.hypot(dx, dy)
        for label in drawn.labels:
            ax, ay = label.x - mx, label.y - my
            # no drift along the shaft: the anchor projects onto the mid
            assert abs(ax * dx + ay * dy) / length < 1e-9, source
            if label.side == MID:
                assert math.hypot(ax, ay) < 1e-9
            else:
                reach = label.height / 2.0 + 2.0
                assert abs(math.hypot(ax, ay) - reach) < 1e-9
            checked += 1
    assert checked > 0


def test_c08_inline_label_anchors():
    cfg = RenderConfig()
    scenes = compile_source('\\two^{f}_{g}')
    resolved = resolve_scene(scenes[0], MetricsTable.builtin(), cfg)
    checked = 0
    for drawn in resolved.arrows:
        mx = (drawn.start[0] + drawn.end[0]) / 2.0
        for label in drawn.labels:
            assert abs(label.x - mx) < 1e-9
            checked += 1
    assert checked == 2


# =========================================================================
# C9  Determinism.  The bundled corpus (exactly 30 files) must compile
#     to byte-identical scene and SVG outputs on a second pass, and the
#     second pass runs in reverse file order to prove no state leaks
#     between documents.  Every SVG must parse as XML.
# =========================================================================

def _compile_corpus(paths):
    produced = {}
    for path in paths:
        text = path.read_text(encoding='utf-8')
        scenes = compile_source(text, str(path))
        produced[path.name] = [
            (dump_scene(s).encode('utf-8'), render(s).encode('utf-8'))
            for s in scenes]
    return produced


def test_c09_corpus_size():
    assert len(sorted(CORPUS_DIR.glob('*.dxy'))) == 30


def test_c09_corpus_determinism():
    paths = sorted(CORPUS_DIR.glob('*.dxy'))
    first = _compile_corpus(paths)
    second = _compile_corpus(list(reversed(paths)))
    assert first == second
    for name, units in first.items():
        for scene_bytes, svg_bytes in units:
            json.loads(scene_bytes)
            root = ET.fromstring(svg_bytes)
            assert root.tag.endswith('svg'), name


# =========================================================================
# C10 Error paths.  Each of the five documented failure modes must leave
#     its diagnostic code on stderr and exit with status 1, writing no
#     output files.
# =========================================================================

ERROR_CASES = {
    'unknown-node': (
        '\\bfig\n\\arrow[a`b;f]\n\\efig\n', 'UnknownNode'),
    'unbalanced-group': (
        '\\bfig\n\\square[A`B`C`D;f`g`h`k\n\\efig\n', 'UnbalancedGroup'),
    'arity-error': (
        '\\bfig\n\\square[A`B`C;f`g`h`k]\n\\efig\n', 'ArityError'),
    'mask-overflow': (
        '\\bfig\n\\iiixiii{4096}'
        '[A`B`C`D`E`F`G`H`I;a`b`c`d`e`f`g`h`i`j`k`l]\n\\efig\n',
        'MaskOutOfRange'),
    'zero-span-arrow': (
        '\\bfig\n\\morphism<0,0>[A`B;f]\n\\efig\n', 'DegenerateArrow'),
}


@pytest.mark.parametrize('name', sorted(ERROR_CASES))
def test_c10_error_paths(name, tmp_path, capsys):
    source, code = ERROR_CASES[name]
    src = tmp_path / (name + '.dxy')
    src.write_text(source, encoding='utf-8')
    out = tmp_path / 'out'
    status = cli_main([str(src), '-o', str(out)])
    captured = capsys.readouterr()
    assert status == 1
    assert 'error: %s:' % code in captured.err
    if out.exists():
        assert not list(out.iterdir())
