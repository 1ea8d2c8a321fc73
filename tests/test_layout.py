"""Layout geometry: boxes, clipping, label anchors, loops, inlines.

Default configuration throughout: 10pt em, so one logical unit is
0.1pt; axis height 2.5pt; 3pt object margin; builtin metrics where
every glyph advances half an em (5pt) with 7pt ascent and 3pt descent.
"""

import math

import pytest

from diagramc import compile_source
from diagramc.errors import DiagnosticError
from diagramc.layout import node_box, resolve_scene
from diagramc.metrics import MetricsTable
from diagramc.model import (
    ArrowInstance,
    ArrowStyle,
    LogicalPoint,
    NodeInstance,
    RenderConfig,
    Scene,
)

METRICS = MetricsTable.builtin()
CFG = RenderConfig()

approx = lambda *xs: pytest.approx(xs, abs=1e-9)


def resolve_source(source):
    scenes = compile_source(source)
    assert len(scenes) == 1
    return resolve_scene(scenes[0])


# ---- node boxes --------------------------------------------------------

def test_centered_box():
    box = node_box(NodeInstance(LogicalPoint(0, 0), 'A'), METRICS, CFG)
    assert (box.min_x, box.min_y, box.max_x, box.max_y) == \
        approx(-5.5, -8.5, 5.5, 7.5)
    assert (box.text_x, box.baseline_y) == approx(0.0, -2.5)


def test_box_tracks_position_and_text_width():
    box = node_box(NodeInstance(LogicalPoint(100, 200), 'ABC'), METRICS, CFG)
    assert (box.min_x, box.max_x) == approx(10.0 - 10.5, 10.0 + 10.5)
    assert box.baseline_y == pytest.approx(20.0 - 2.5)


def test_empty_text_box_is_margin_only():
    box = node_box(NodeInstance(LogicalPoint(0, 0), ''), METRICS, CFG)
    assert (box.min_x, box.min_y, box.max_x, box.max_y) == \
        approx(-3.0, -5.5, 3.0, 0.5)


@pytest.mark.parametrize('anchor, text_x, baseline_y', [
    ('l', 2.5, -2.5),    # reference point at the left edge of the text
    ('r', -2.5, -2.5),
    ('u', 0.0, -7.0),    # text hangs below the point
    ('d', 0.0, 3.0),
    ('lu', 2.5, -7.0),
    ('rd', -2.5, 3.0),
])
def test_anchored_boxes(anchor, text_x, baseline_y):
    node = NodeInstance(LogicalPoint(0, 0), 'A', anchor)
    box = node_box(node, METRICS, CFG)
    assert (box.text_x, box.baseline_y) == approx(text_x, baseline_y)


def test_anchor_u_puts_text_top_at_the_point():
    box = node_box(NodeInstance(LogicalPoint(0, 0), 'A', 'u'), METRICS, CFG)
    assert box.max_y == pytest.approx(3.0)   # 0 + margin
    box = node_box(NodeInstance(LogicalPoint(0, 0), 'A', 'd'), METRICS, CFG)
    assert box.min_y == pytest.approx(-3.0)


def test_margin_inflates_all_sides():
    cfg = RenderConfig(object_margin_pt=5)
    box = node_box(NodeInstance(LogicalPoint(0, 0), 'A'), METRICS, cfg)
    assert (box.min_x, box.min_y, box.max_x, box.max_y) == \
        approx(-7.5, -10.5, 7.5, 9.5)


def test_em_size_scales_the_box():
    cfg = RenderConfig(em_pt=20)
    box = node_box(NodeInstance(LogicalPoint(0, 0), 'A'), METRICS, cfg)
    # 10pt glyph, 5pt axis, 14pt ascent, 6pt descent, 3pt margin
    assert (box.min_x, box.min_y, box.max_x, box.max_y) == \
        approx(-8.0, -14.0, 8.0, 12.0)


# ---- shaft clipping ------------------------------------------------------

def test_horizontal_clip_exact():
    resolved = resolve_source(
        '\\bfig\\morphism(0,400)<600,0>[A`B;f]\\efig')
    arrow = resolved.arrows[0]
    assert arrow.start == approx(5.5, 40.0)
    assert arrow.end == approx(54.5, 40.0)


def test_vertical_clip_exact():
    resolved = resolve_source(
        '\\bfig\\morphism(0,400)|l|<0,-400>[A`C;g]\\efig')
    arrow = resolved.arrows[0]
    assert arrow.start == approx(0.0, 31.5)
    assert arrow.end == approx(0.0, 7.5)


def test_diagonal_clip_leaves_on_the_near_side():
    resolved = resolve_source(
        '\\bfig\\morphism(0,0)<1000,200>[A`B;f]\\efig')
    (x, y) = resolved.arrows[0].start
    # slope 0.2: the ray crosses x = 5.5 while still inside vertically
    assert x == pytest.approx(5.5, abs=1e-9)
    assert y == pytest.approx(1.1, abs=1e-9)


def test_wide_text_clips_farther_out():
    resolved = resolve_source(
        '\\bfig\\morphism(0,0)<2000,0>[{MMMM}`B;f]\\efig')
    assert resolved.arrows[0].start[0] == pytest.approx(13.0)  # 10/2 + 3


def test_bare_vector_is_not_clipped():
    resolved = resolve_source('\\bfig\\vect(0,0)/>/<600,0>\\efig')
    arrow = resolved.arrows[0]
    assert arrow.start == approx(0.0, 0.0)
    assert arrow.end == approx(60.0, 0.0)


def test_phantom_endpoints_still_clip():
    resolved = resolve_source(
        '\\bfig\\node p(0,0)[A]\\node q(600,0)[B]\\arrow/->/[p`q;f]\\efig')
    assert resolved.arrows[0].start == approx(5.5, 0.0)


def test_first_node_at_a_position_wins_clipping():
    nodes = (NodeInstance(LogicalPoint(0, 0), 'MMMM'),
             NodeInstance(LogicalPoint(0, 0), 'I'),
             NodeInstance(LogicalPoint(600, 0), 'B'))
    arrow = ArrowInstance(LogicalPoint(0, 0), LogicalPoint(600, 0),
                          ArrowStyle(), src_text='MMMM', dst_text='B')
    resolved = resolve_scene(Scene(nodes, (arrow,)))
    assert resolved.arrows[0].start[0] == pytest.approx(13.0)


def test_an_arrow_is_clipped_by_its_own_node_not_by_another_text_there():
    resolved = resolve_source('\\bfig\\place(0,0)[XXXXXXXXXXXX]'
                              '\\morphism(0,0)<600,0>[A`B;f]\\efig')
    assert resolved.arrows[0].start == approx(5.5, 0.0)


def test_overlapping_boxes_report_both_names():
    nodes = (NodeInstance(LogicalPoint(0, 0), 'A'),
             NodeInstance(LogicalPoint(30, 0), 'B'))
    arrow = ArrowInstance(LogicalPoint(0, 0), LogicalPoint(30, 0),
                          ArrowStyle(), src_text='A', dst_text='B')
    with pytest.raises(DiagnosticError) as info:
        resolve_scene(Scene(nodes, (arrow,)))
    err = info.value
    assert err.code == 'NodesOverlap'
    assert "'A'" in err.message and "'B'" in err.message
    assert err.loc is None


def test_parallel_offset_shifts_after_clipping():
    resolved = resolve_source(
        '\\bfig\\morphism(0,400)/@{>}@<3pt>/<600,0>[A`B;f]\\efig')
    arrow = resolved.arrows[0]
    # left normal of a rightward arrow points up
    assert arrow.start == approx(5.5, 43.0)
    assert arrow.end == approx(54.5, 43.0)


# ---- labels ---------------------------------------------------------------

def test_label_above_a_rightward_arrow():
    resolved = resolve_source(
        '\\bfig\\morphism(0,400)<600,0>[A`B;f]\\efig')
    label, = resolved.arrows[0].labels
    # midpoint (30, 40); reach is height/2 + 2pt gap
    assert (label.x, label.y) == approx(30.0, 47.0)
    assert (label.width, label.height) == approx(5.0, 10.0)
    assert label.side == 'left'
    assert label.backing is None


def test_label_below_with_b_rule():
    resolved = resolve_source(
        '\\bfig\\morphism(0,400)|b|<600,0>[A`B;f]\\efig')
    label, = resolved.arrows[0].labels
    assert (label.x, label.y) == approx(30.0, 33.0)
    assert label.side == 'right'


def test_label_sides_flip_with_direction():
    resolved = resolve_source(
        '\\bfig\\morphism(600,400)<-600,0>[B`A;f]\\efig')
    label, = resolved.arrows[0].labels
    # 'a' on a leftward arrow resolves to the right side, still above
    assert label.side == 'right'
    assert label.y == pytest.approx(47.0)


def test_mid_label_gets_backing():
    resolved = resolve_source(
        '\\bfig\\morphism(0,400)|m|<600,0>[A`B;f]\\efig')
    label, = resolved.arrows[0].labels
    assert (label.x, label.y) == approx(30.0, 40.0)
    assert label.backing == approx(26.5, 31.0, 33.5, 49.0)


def test_label_measures_through_the_scale():
    cfg = RenderConfig(label_scale=0.7)
    scenes = compile_source('\\bfig\\morphism(0,0)|m|<600,0>[A`B;ff]\\efig',
                            config=cfg)
    label, = resolve_scene(scenes[0], cfg=cfg).arrows[0].labels
    assert label.width == pytest.approx(7.0)
    assert label.height == pytest.approx(7.0)


def test_label_anchor_formula_on_a_diagonal():
    resolved = resolve_source('\\bfig\\morphism(0,0)<300,400>[A`B;f]\\efig')
    arrow = resolved.arrows[0]
    label, = arrow.labels
    mx = (arrow.start[0] + arrow.end[0]) / 2.0
    my = (arrow.start[1] + arrow.end[1]) / 2.0
    # unit left normal of (3, 4) is (-0.8, 0.6); reach 7pt
    assert (label.x, label.y) == approx(mx - 5.6, my + 4.2)


# ---- loops ----------------------------------------------------------------

def test_loop_controls_reach_along_the_compass():
    resolved = resolve_source('\\bfig\\Loop(0,0){A}(u,r)\\efig')
    arrow = resolved.arrows[0]
    assert arrow.is_loop
    assert arrow.start == approx(0.0, 7.5)
    assert arrow.end == approx(5.5, 0.0)
    assert arrow.controls[0] == approx(0.0, 27.5)
    assert arrow.controls[1] == approx(25.5, 0.0)


def test_loop_diagonal_exit():
    resolved = resolve_source('\\bfig\\Loop(0,0){A}(ur,dr)\\efig')
    arrow = resolved.arrows[0]
    # leaves through the right edge: x = 5.5, y still inside
    assert arrow.start == approx(5.5, 5.5)
    assert arrow.end == approx(5.5, -5.5)
    d = 20.0 * math.sqrt(2.0) / 2.0
    assert arrow.controls[0] == approx(5.5 + d, 5.5 + d)


# ---- inline fragments ------------------------------------------------------

def test_inline_to_segment():
    resolved = resolve_source('\\to')
    assert resolved.boxes == ()
    arrow, = resolved.arrows
    assert arrow.start == approx(0.0, 0.0)
    assert arrow.end == approx(15.0, 0.0)
    assert arrow.tip_scale == 1.0


def test_inline_labels_sit_above_and_below():
    resolved = resolve_source('\\to^f_g')
    arrow, = resolved.arrows
    top, bottom = arrow.labels
    assert top.text == 'f' and top.y == pytest.approx(7.0)
    assert bottom.text == 'g' and bottom.y == pytest.approx(-7.0)


def test_inline_two_parts_are_offset():
    resolved = resolve_source('\\two^f_g')
    first, second = resolved.arrows
    assert first.start == approx(0.0, 2.5)
    assert second.start == approx(0.0, -2.5)


def test_inline_three_mid_label_backs_onto_the_shaft():
    resolved = resolve_source('\\three^f|m_g')
    middle = resolved.arrows[0]
    label, = middle.labels
    assert label.side == 'mid'
    assert label.backing is not None


def test_twoar_scales_down():
    resolved = resolve_source('\\twoar(1,0)')
    arrow, = resolved.arrows
    assert arrow.end == approx(10.0, 0.0)
    assert arrow.style.shaft == 'double'


def test_limit_arrow_is_raised_and_shrunk():
    resolved = resolve_source('\\rlimto')
    arrow, = resolved.arrows
    assert arrow.start == approx(0.0, 2.0)
    assert arrow.end == approx(10.0, 2.0)
    assert arrow.tip_scale == 0.8


# ---- whole-scene sanity -----------------------------------------------------

def test_translation_moves_everything_rigidly(translate):
    scenes = compile_source('\\bfig\\square[A`B`C`D;f`g`h`k]\\efig')
    base = resolve_scene(scenes[0])
    moved = resolve_scene(translate(scenes[0], 300, -700))
    for a, b in zip(base.arrows, moved.arrows):
        assert b.start[0] - a.start[0] == pytest.approx(30.0, abs=1e-9)
        assert b.start[1] - a.start[1] == pytest.approx(-70.0, abs=1e-9)
        assert b.end[0] - a.end[0] == pytest.approx(30.0, abs=1e-9)
        for la, lb in zip(a.labels, b.labels):
            assert lb.x - la.x == pytest.approx(30.0, abs=1e-9)
            assert lb.y - la.y == pytest.approx(-70.0, abs=1e-9)


def test_square_resolves_every_arrow_clipped():
    resolved = resolve_source('\\bfig\\square[A`B`C`D;f`g`h`k]\\efig')
    assert len(resolved.boxes) == 4
    assert len(resolved.arrows) == 4
    for arrow in resolved.arrows:
        length = math.hypot(arrow.end[0] - arrow.start[0],
                            arrow.end[1] - arrow.start[1])
        assert 0.0 < length < 50.0
