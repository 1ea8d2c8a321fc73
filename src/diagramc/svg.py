"""Standalone SVG rendering of resolved scenes.

The emitted documents carry no scripts, no external references, and no
randomness; elements appear in a fixed order (arrows back to front, node
texts on top) with coordinates printed through one float formatter, so
output is reproducible byte for byte.

Layout hands over y-up coordinates; the flip to SVG's y-down happens at
the last moment, inside the writers.

The document is assembled as text, one element a line, two spaces of
indentation a level; a group or text element without content closes
itself.  These are the bytes ElementTree's ``indent`` and ``tostring``
gave for the same tree, and ``tests/golden/`` pins them.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .layout import ResolvedArrow, ResolvedScene, resolve_scene
from .metrics import MetricsTable
from .model import Memo, RenderConfig, Scene

__all__ = ['render', 'render_resolved']

_STROKE = 0.4        # rule thickness, pt
_TIP_LEN = 4.0       # chevron depth, pt
_TIP_HALF = 1.5      # chevron half width, pt
_HEAD_GAP = 1.5      # spacing between the two chevrons of a double head
_HOOK_R = 1.5        # hook half circle radius
_BAR_HALF = 1.5      # half length of bar and tick strokes
_DOUBLE_GAP = 0.8    # half distance between double shaft rules
_PAD = 5.0           # whitespace around the drawing
_FONT = "Georgia, 'Times New Roman', serif"

_DASH = {'dashed': '4 2', 'dotted': '1 2'}

_XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>'

Point = tuple[float, float]
Format = Callable[[float], str]


def _fmt(v: float) -> str:
    text = '%.3f' % v
    text = text.rstrip('0').rstrip('.')
    return '0' if text in ('-0', '') else text


# paint of every stroked line and path
_STROKED = ' stroke="#000" stroke-width="%s" fill="none"' % _fmt(_STROKE)


def _unit(a: Point, b: Point) -> Point:
    dx, dy = b[0] - a[0], b[1] - a[1]
    length = math.hypot(dx, dy)
    return (dx / length, dy / length)


def _at(p: Point, u: Point, t: float) -> Point:
    return (p[0] + u[0] * t, p[1] + u[1] * t)


def _dash(dash: str | None) -> str:
    return ' stroke-dasharray="%s"' % dash if dash else ''


def _escape(text: str) -> str:
    """Character data escaped as ElementTree escapes it."""
    return text.replace('&', '&amp;').replace('<', '&lt;').replace('>', '&gt;')


# Each element writer returns one element line, unindented; the group
# around it supplies the indentation.  y flips on the way in.

def _line(fmt: Format, cls: str, a: Point, b: Point,
          dash: str | None = None) -> str:
    return ('<line class="%s" x1="%s" y1="%s" x2="%s" y2="%s"%s%s />'
            % (cls, fmt(a[0]), fmt(-a[1]), fmt(b[0]), fmt(-b[1]),
               _STROKED, _dash(dash)))


def _path(cls: str, d: str, filled: bool = False,
          dash: str | None = None) -> str:
    paint = ' fill="#000"' if filled else _STROKED + _dash(dash)
    return '<path class="%s" d="%s"%s />' % (cls, d, paint)


def _rect(fmt: Format, cls: str, box: tuple[float, float, float, float],
          fill: str) -> str:
    min_x, min_y, max_x, max_y = box
    return ('<rect class="%s" x="%s" y="%s" width="%s" height="%s" '
            'fill="%s" />' % (cls, fmt(min_x), fmt(-max_y),
                              fmt(max_x - min_x), fmt(max_y - min_y), fill))


def _text(fmt: Format, cls: str, x: float, baseline_y: float, content: str,
          size: float) -> str:
    tag = ('<text class="%s" x="%s" y="%s" text-anchor="middle" '
           'font-size="%s"' % (cls, fmt(x), fmt(-baseline_y), fmt(size)))
    return '%s>%s</text>' % (tag, _escape(content)) if content else tag + ' />'


def render(scene: Scene, metrics: MetricsTable | None = None,
           cfg: RenderConfig | None = None) -> str:
    """Render one scene unit to SVG text.

    The scene is let go once it is resolved: a caller that passes its
    only reference frees the scene's records before the text is made."""
    if metrics is None:
        metrics = MetricsTable.builtin()
    if cfg is None:
        cfg = RenderConfig()
    resolved = resolve_scene(scene, metrics, cfg)
    del scene
    return render_resolved(resolved, metrics, cfg)


def render_resolved(resolved: ResolvedScene, metrics: MetricsTable,
                    cfg: RenderConfig) -> str:
    # each value formatted once per document; equal values print equal
    # text (-0.0 and 0.0 both print 0, 1 and 1.0 both print 1)
    fmt = Memo(_fmt).__getitem__
    arrows = [_arrow(fmt, arrow, metrics, cfg) for arrow in resolved.arrows]
    nodes = ['    ' + _text(fmt, 'node', box.text_x, box.baseline_y,
                              box.text, cfg.em_pt)
             for box in resolved.boxes if box.text and not box.phantom]
    # the lines of the whole document in one list, joined once
    doc = [_XML_DECL, _frame(fmt, _bounds(resolved))]
    for cls, children in (('arrows', arrows), ('nodes', nodes)):
        doc += (['  <g class="%s">' % cls, *children, '  </g>'] if children
                else ['  <g class="%s" />' % cls])
    doc.append('</svg>\n')
    return '\n'.join(doc)


def _frame(fmt: Format,
           bounds: tuple[float, float, float, float] | None) -> str:
    """The opening ``<svg>`` tag sized to the drawing."""
    if bounds is None:
        min_x, min_y, max_x, max_y = 0.0, -10.0, 10.0, 0.0
    else:
        min_x, min_y, max_x, max_y = bounds
        min_x -= _PAD
        min_y -= _PAD
        max_x += _PAD
        max_y += _PAD
    width = max_x - min_x
    height = max_y - min_y
    # y flips: the top of the viewBox is the largest y-up coordinate
    return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'viewBox="%s %s %s %s" width="%spt" height="%spt" '
            'font-family="%s">' % (fmt(min_x), fmt(-max_y), fmt(width),
                                   fmt(height), fmt(width), fmt(height),
                                   _FONT))


def _bounds(resolved: ResolvedScene
            ) -> tuple[float, float, float, float] | None:
    """Least and greatest x and y over boxes, arrow points and labels."""
    if not resolved.boxes and not resolved.arrows:
        return None
    lo_x = lo_y = math.inf
    hi_x = hi_y = -math.inf
    for box in resolved.boxes:
        if box.min_x < lo_x:
            lo_x = box.min_x
        if box.min_y < lo_y:
            lo_y = box.min_y
        if box.max_x > hi_x:
            hi_x = box.max_x
        if box.max_y > hi_y:
            hi_y = box.max_y
    for arrow in resolved.arrows:
        for x, y in (arrow.start, arrow.end, *(arrow.controls or ())):
            if x < lo_x:
                lo_x = x
            if x > hi_x:
                hi_x = x
            if y < lo_y:
                lo_y = y
            if y > hi_y:
                hi_y = y
        for label in arrow.labels:
            min_x, min_y, max_x, max_y = label.backing or (
                label.x - label.width / 2.0, label.y - label.height / 2.0,
                label.x + label.width / 2.0, label.y + label.height / 2.0)
            if min_x < lo_x:
                lo_x = min_x
            if min_y < lo_y:
                lo_y = min_y
            if max_x > hi_x:
                hi_x = max_x
            if max_y > hi_y:
                hi_y = max_y
    return lo_x, lo_y, hi_x, hi_y


# ---- arrows -----------------------------------------------------------


def _arrow(fmt: Format, arrow: ResolvedArrow, metrics: MetricsTable,
           cfg: RenderConfig) -> str:
    """One ``<g class="arrow">`` block: shaft, tips, mid mark, labels."""
    g: list[str] = []
    style = arrow.style
    start, end = arrow.start, arrow.end
    if arrow.is_loop:
        c1, c2 = arrow.controls
        u_start = _unit(start, c1)
        u_end = _unit(c2, end)
    else:
        u_start = u_end = _unit(start, end)
    # decoration ends: the head family draws where the style points,
    # which is the start for reversed specs
    if style.reversed:
        head_pos, head_out = start, (-u_start[0], -u_start[1])
        tail_pos, tail_in = end, (-u_end[0], -u_end[1])
    else:
        head_pos, head_out = end, u_end
        tail_pos, tail_in = start, u_start
    tip = _TIP_LEN * arrow.tip_scale
    shaft_start, shaft_end = start, end
    if not arrow.is_loop and style.tail in ('mono', 'hook_up', 'hook_down'):
        # open tail glyphs own the first tip length of the shaft
        if style.reversed:
            shaft_end = _at(end, u_end, -tip)
        else:
            shaft_start = _at(start, u_start, tip)
    _emit_shaft(fmt, g, arrow, style.shaft, shaft_start, shaft_end)
    if style.head != 'none':
        _emit_head(fmt, g, style.head, head_pos, head_out, arrow.tip_scale)
    if style.tail != 'none':
        _emit_tail(fmt, g, style.tail, tail_pos, tail_in, arrow.tip_scale)
    if style.mid != 'none' and not arrow.is_loop:
        _emit_mid(fmt, g, style.mid, start, end, u_start)
    for label in arrow.labels:
        if label.backing is not None:
            g.append(_rect(fmt, 'backing', label.backing, '#fff'))
        size = cfg.em_pt * cfg.label_scale
        ascent = metrics.ascent * size / 1000.0
        baseline = label.y + label.height / 2.0 - ascent
        g.append(_text(fmt, 'label', label.x, baseline, label.text, size))
    if not g:
        return '    <g class="arrow" />'
    return '    <g class="arrow">\n      %s\n    </g>' % '\n      '.join(g)


def _emit_shaft(fmt: Format, g: list[str], arrow: ResolvedArrow, shaft: str,
                a: Point, b: Point) -> None:
    if shaft == 'invisible':
        return
    if arrow.is_loop:
        c1, c2 = arrow.controls
        d = 'M %s %s C %s %s, %s %s, %s %s' % (
            fmt(a[0]), fmt(-a[1]), fmt(c1[0]), fmt(-c1[1]),
            fmt(c2[0]), fmt(-c2[1]), fmt(b[0]), fmt(-b[1]))
        g.append(_path('shaft', d, dash=_DASH.get(shaft)))
        return
    if shaft == 'double':
        u = _unit(a, b)
        nx, ny = -u[1], u[0]
        for side in (_DOUBLE_GAP, -_DOUBLE_GAP):
            g.append(_line(fmt, 'shaft',
                           (a[0] + nx * side, a[1] + ny * side),
                           (b[0] + nx * side, b[1] + ny * side)))
        return
    g.append(_line(fmt, 'shaft', a, b, dash=_DASH.get(shaft)))


def _chevron(fmt: Format, p: Point, out: Point, scale: float) -> str:
    """Filled chevron with its point at p, opening against ``out``."""
    nx, ny = -out[1], out[0]
    back = _at(p, out, -_TIP_LEN * scale)
    notch = _at(p, out, -_TIP_LEN * 0.6 * scale)
    half = _TIP_HALF * scale
    b1 = (back[0] + nx * half, back[1] + ny * half)
    b2 = (back[0] - nx * half, back[1] - ny * half)
    return 'M %s %s L %s %s L %s %s L %s %s Z' % (
        fmt(p[0]), fmt(-p[1]), fmt(b1[0]), fmt(-b1[1]),
        fmt(notch[0]), fmt(-notch[1]), fmt(b2[0]), fmt(-b2[1]))


def _emit_head(fmt: Format, g: list[str], head: str, p: Point, out: Point,
               scale: float) -> None:
    g.append(_path('head', _chevron(fmt, p, out, scale), filled=True))
    if head == 'double_head':
        g.append(_path('head', _chevron(fmt, _at(p, out, -_HEAD_GAP * scale),
                                        out, scale), filled=True))


def _emit_tail(fmt: Format, g: list[str], tail: str, p: Point, inward: Point,
               scale: float) -> None:
    nx, ny = -inward[1], inward[0]
    half = _TIP_HALF * scale
    if tail == 'bar':
        g.append(_line(fmt, 'tail',
                       (p[0] + nx * _BAR_HALF, p[1] + ny * _BAR_HALF),
                       (p[0] - nx * _BAR_HALF, p[1] - ny * _BAR_HALF)))
        return
    if tail == 'mono':
        vertex = _at(p, inward, _TIP_LEN * scale)
        b1 = (p[0] + nx * half, p[1] + ny * half)
        b2 = (p[0] - nx * half, p[1] - ny * half)
        d = 'M %s %s L %s %s L %s %s' % (
            fmt(b1[0]), fmt(-b1[1]), fmt(vertex[0]), fmt(-vertex[1]),
            fmt(b2[0]), fmt(-b2[1]))
        g.append(_path('tail', d))
        return
    # hooks: a half circle between the boundary point and a point one
    # diameter along the shaft, bulging to one side
    far = _at(p, inward, 2.0 * _HOOK_R * scale)
    sweep = '1' if tail == 'hook_up' else '0'
    d = 'M %s %s A %s %s 0 0 %s %s %s' % (
        fmt(p[0]), fmt(-p[1]), fmt(_HOOK_R * scale),
        fmt(_HOOK_R * scale), sweep, fmt(far[0]), fmt(-far[1]))
    g.append(_path('tail', d))


def _emit_mid(fmt: Format, g: list[str], mid: str, start: Point, end: Point,
              u: Point) -> None:
    cx = (start[0] + end[0]) / 2.0
    cy = (start[1] + end[1]) / 2.0
    nx, ny = -u[1], u[0]
    if mid == 'tick':
        g.append(_line(fmt, 'mid', (cx + nx * _BAR_HALF, cy + ny * _BAR_HALF),
                       (cx - nx * _BAR_HALF, cy - ny * _BAR_HALF)))
        return
    # cross: two ticks at 45 degrees either side of the perpendicular
    for sx, sy in ((nx + u[0], ny + u[1]), (nx - u[0], ny - u[1])):
        length = math.hypot(sx, sy)
        vx, vy = sx / length * _BAR_HALF, sy / length * _BAR_HALF
        g.append(_line(fmt, 'mid', (cx + vx, cy + vy), (cx - vx, cy - vy)))

