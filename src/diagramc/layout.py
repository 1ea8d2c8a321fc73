"""Physical layout: node boxes, shaft clipping, and label anchors.

Everything in this module works in points with the y axis pointing up;
the SVG emitter flips the sign at the very end.  Scenes come in with
exact integer coordinates, so positions convert to floats once, here,
and every later stage is pure float geometry.  Its helpers ``Point``,
``_unit`` and ``_at`` live here alone; ``svg`` imports them.  Per unit,
``resolve_scene`` measures each text once and works out the label height
once, as every label of a unit has the same size.
"""

from __future__ import annotations

import math

from .arrows import resolve_compass
from .errors import NODES_OVERLAP, DiagnosticError
from .metrics import MetricsTable
from .model import (LEFT, MID, NO_SIDE, RIGHT, UNIT_EM, ArrowInstance,
                    InlineFragment, Memo, NodeInstance, Record, RenderConfig,
                    Scene, resolve_label_side, to_physical)

__all__ = ['NodeBox', 'Label', 'ResolvedArrow', 'ResolvedScene', 'node_box',
           'resolve_scene']

Point = tuple[float, float]
_ClipKey = tuple[int, int, str]   # a node's position and text

_LABEL_GAP = 2.0      # clearance between a side label's box and its arrow, pt
_LOOP_REACH_EM = 2.0  # distance from a loop's ends to its control points, em


class NodeBox(Record):
    """Clip rectangle (margin included) and text origin of one node;
    ``text_x`` is the center of the text run."""

    __slots__ = _values = ('min_x', 'min_y', 'max_x', 'max_y', 'text_x',
                           'baseline_y', 'text', 'phantom')
    _defaults = dict(phantom=False)


class Label(Record):
    """A placed arrow label; x, y is the center of its text box, and
    ``side`` is left, right or mid."""

    __slots__ = _values = ('x', 'y', 'text', 'side', 'width', 'height',
                           'backing')
    _defaults = dict(backing=None)


class ResolvedArrow(Record):
    __slots__ = _values = ('start', 'end', 'style', 'labels', 'controls',
                           'tip_scale')
    _defaults = dict(labels=(), controls=None, tip_scale=1.0)

    @property
    def is_loop(self) -> bool:
        return self.controls is not None


class ResolvedScene(Record):
    __slots__ = _values = ('boxes', 'arrows')


class _Advances(Memo):
    """Text advances for one ``resolve_scene``, each measured once.

    It stands in for the metrics table in ``node_box`` and
    ``_place_label``, which read only ``text_advance``, ``ascent`` and
    ``descent``; a miss asks ``MetricsTable.text_advance``.
    """

    __slots__ = ('ascent', 'descent')

    def __init__(self, metrics: MetricsTable) -> None:
        super().__init__(lambda key: metrics.text_advance(*key))
        self.ascent = metrics.ascent
        self.descent = metrics.descent

    def text_advance(self, text: str, scale: float = 1.0) -> int:
        return self[text, scale]


def node_box(node: NodeInstance, metrics: MetricsTable,
             cfg: RenderConfig) -> NodeBox:
    """Box a node's text at its position, honoring the anchor letters.

    The baseline sits one axis height below the reference point so that
    text centers on the math axis.  Empty text gives a zero size box at
    the baseline; the margin still inflates it so arrows keep a small
    standoff from bare coordinates with named extents.
    """
    rx, ry = to_physical(node.pos, cfg)
    scale = cfg.em_pt / 1000.0
    if node.text:
        width = metrics.text_advance(node.text) * cfg.em_pt / 1000.0
        ascent = metrics.ascent * scale
        descent = metrics.descent * scale
    else:
        width = ascent = descent = 0.0
    baseline = ry - cfg.axis
    dx = dy = 0.0
    if node.anchor != 'center':
        for ch in node.anchor:
            if ch == 'l':
                dx = width / 2.0
            elif ch == 'r':
                dx = -width / 2.0
            elif ch == 'u':
                dy = ry - (baseline + ascent)
            elif ch == 'd':
                dy = ry - (baseline - descent)
    m = cfg.object_margin_pt
    return NodeBox(
        rx + dx - width / 2.0 - m, baseline + dy - descent - m,
        rx + dx + width / 2.0 + m, baseline + dy + ascent + m,
        rx + dx, baseline + dy, node.text, node.phantom)


def _unit(a: Point, b: Point) -> Point:
    """The unit vector from a toward b; (-uy, ux) is its left normal."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    length = math.hypot(dx, dy)
    return (dx / length, dy / length)


def _at(p: Point, u: Point, t: float) -> Point:
    """The point t along the vector u from p."""
    return (p[0] + u[0] * t, p[1] + u[1] * t)


def _exit_param(box: NodeBox, px: float, py: float, dx: float,
                dy: float) -> float:
    """Parameter t at which the ray (px, py) + t (dx, dy) leaves box."""
    # what min(min(inf, tx), ty) returns: the first of equal values
    tx = ty = math.inf
    if dx > 0.0:
        tx = (box.max_x - px) / dx
    elif dx < 0.0:
        tx = (box.min_x - px) / dx
    if dy > 0.0:
        ty = (box.max_y - py) / dy
    elif dy < 0.0:
        ty = (box.min_y - py) / dy
    return ty if ty < tx else tx


def _place_label(text: str, side: str, start: Point, end: Point,
                 height: float, metrics: MetricsTable,
                 cfg: RenderConfig) -> Label:
    """A label ``height`` high, beside the segment start-end."""
    mx = (start[0] + end[0]) / 2.0
    my = (start[1] + end[1]) / 2.0
    width = metrics.text_advance(text, cfg.label_scale) * cfg.em_pt / 1000.0
    if side == MID:
        backing = (mx - width / 2.0 - 1.0, my - height / 2.0 - 4.0,
                   mx + width / 2.0 + 1.0, my + height / 2.0 + 4.0)
        return Label(mx, my, text, side, width, height, backing)
    ux, uy = _unit(start, end)
    reach = height / 2.0 + _LABEL_GAP
    x, y = _at((mx, my), (-uy, ux), reach if side == LEFT else -reach)
    return Label(x, y, text, side, width, height)


def _resolve_segment(arrow: ArrowInstance, clips: dict[_ClipKey, NodeBox],
                     height: float, metrics: MetricsTable, cfg: RenderConfig
                     ) -> ResolvedArrow:
    src, dst = arrow.src, arrow.dst
    x0, y0 = to_physical(src, cfg)
    x1, y1 = to_physical(dst, cfg)
    dx = x1 - x0
    dy = y1 - y0
    t0, t1 = 0.0, 1.0
    if arrow.src_text is not None:
        box = clips.get((src.x, src.y, arrow.src_text))
        if box is not None:
            t0 = _exit_param(box, x0, y0, dx, dy)
    if arrow.dst_text is not None:
        box = clips.get((dst.x, dst.y, arrow.dst_text))
        if box is not None:
            t1 = 1.0 - _exit_param(box, x1, y1, -dx, -dy)
    if t0 >= t1:
        raise DiagnosticError(
            NODES_OVERLAP,
            "the boxes around '%s' and '%s' overlap; no room is left for "
            'the arrow between them' % (arrow.src_text, arrow.dst_text),
            arrow.loc, arrow.constructor)
    start = (x0 + t0 * dx, y0 + t0 * dy)
    end = (x0 + t1 * dx, y0 + t1 * dy)
    shift = arrow.style.parallel_offset_pt
    if shift:
        ux, uy = _unit((x0, y0), (x1, y1))
        start, end = _at(start, (-uy, ux), shift), _at(end, (-uy, ux), shift)
    labels = ()
    if arrow.label:
        side = resolve_label_side(arrow.label_rule, dst.x - src.x,
                                  dst.y - src.y)
        if side != NO_SIDE:
            labels = (_place_label(arrow.label, side, start, end, height,
                                   metrics, cfg),)
    return ResolvedArrow(start, end, arrow.style, labels)


def _resolve_loop(arrow: ArrowInstance, clips: dict[_ClipKey, NodeBox],
                  cfg: RenderConfig) -> ResolvedArrow:
    box = clips[(arrow.src.x, arrow.src.y, arrow.src_text)]
    rx, ry = to_physical(arrow.src, cfg)
    out = resolve_compass(arrow.loop_out)
    into = resolve_compass(arrow.loop_in)
    start = _at((rx, ry), out, _exit_param(box, rx, ry, *out))
    end = _at((rx, ry), into, _exit_param(box, rx, ry, *into))
    reach = _LOOP_REACH_EM * cfg.em_pt
    controls = (_at(start, out, reach), _at(end, into, reach))
    return ResolvedArrow(start, end, arrow.style, (), controls)


def _resolve_inline(fragment: InlineFragment, height: float,
                    metrics: MetricsTable, cfg: RenderConfig
                    ) -> list[ResolvedArrow]:
    unit = fragment.unit_scale * UNIT_EM * cfg.em_pt
    start = (0.0, fragment.raise_pt)
    end = (fragment.end.x * unit, fragment.end.y * unit + fragment.raise_pt)
    ux, uy = _unit(start, end)
    arrows = []
    for part in fragment.parts:
        shift = part.style.parallel_offset_pt
        s, e = _at(start, (-uy, ux), shift), _at(end, (-uy, ux), shift)
        labels = tuple(_place_label(text, side, s, e, height, metrics, cfg)
                       for text, side in ((part.sup, LEFT), (part.sub, RIGHT),
                                          (part.mid, MID)) if text)
        arrows.append(ResolvedArrow(s, e, part.style, labels,
                                    tip_scale=fragment.tip_scale))
    return arrows


def resolve_scene(scene: Scene, metrics: MetricsTable | None = None,
                  cfg: RenderConfig | None = None) -> ResolvedScene:
    """Turn one scene unit into drawable boxes and arrow segments."""
    if metrics is None:
        metrics = MetricsTable.builtin()
    if cfg is None:
        cfg = RenderConfig()
    # every text's width is measured once per scene; node_box is still
    # called for each node, since its box depends on the position
    metrics = _Advances(metrics)
    height = ((metrics.ascent + metrics.descent) * cfg.label_scale * cfg.em_pt
              / 1000.0)
    boxes = tuple(node_box(n, metrics, cfg) for n in scene.nodes)
    # an arrow end is clipped by the first box of its node's position and
    # text; another text placed at that position does not clip it
    clips: dict[_ClipKey, NodeBox] = {}
    for node, box in zip(scene.nodes, boxes):
        clips.setdefault((node.pos.x, node.pos.y, node.text), box)
    arrows: list[ResolvedArrow] = []
    for arrow in scene.arrows:
        if arrow.is_loop:
            arrows.append(_resolve_loop(arrow, clips, cfg))
        else:
            arrows.append(_resolve_segment(arrow, clips, height, metrics,
                                           cfg))
    for fragment in scene.inlines:
        arrows.extend(_resolve_inline(fragment, height, metrics, cfg))
    return ResolvedScene(boxes, tuple(arrows))
