"""Standalone SVG rendering of resolved scenes.

The emitted documents carry no scripts, no external references, and no
randomness; elements appear in a fixed order (arrows back to front, node
texts on top) with coordinates printed through one float formatter, so
output is reproducible byte for byte.

Layout hands over y-up coordinates; the flip to SVG's y-down happens at
the last moment, inside the writers.  The plane geometry, ``Point``,
``_unit`` and ``_at``, lives in ``layout`` and is imported from there.

The document is made as text a piece at a time (the frame, each arrow,
each node text) and handed to a ``write`` as one iterator.  Each element
is a line, with two spaces of indentation a level; a group without
content closes itself, and a text element always has some.  These are
the bytes ElementTree's ``indent`` and ``tostring`` gave for the same
tree, and ``tests/golden/`` and ``tests/decorations/`` pin them.  One
writer per arrow fills the templates of its elements, made at import
with class, dash and paint in place.  Per unit, the fixed part of each
node and label ``<text>`` element (class and font size) and the lift of
a label's baseline are made once.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .layout import (ResolvedArrow, ResolvedScene, _at, _unit,
                     resolve_scene)
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

# the dash attribute of each broken shaft; a solid one has none
_DASH = {'dashed': ' stroke-dasharray="4 2"',
         'dotted': ' stroke-dasharray="1 2"'}

_XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>'

Format = Callable[[float], str]


def _fmt(v: float) -> str:
    text = '%.3f' % v
    text = text.rstrip('0').rstrip('.')
    return '0' if text in ('-0', '') else text


# paint of every stroked line and path
_STROKED = ' stroke="#000" stroke-width="%s" fill="none"' % _fmt(_STROKE)


def _escape(text: str) -> str:
    """Character data escaped as ElementTree escapes it."""
    return text.replace('&', '&amp;').replace('<', '&lt;').replace('>', '&gt;')


# a text element, its class and size to fill first, then x, y and text
_TEXT = ('<text class="%s" x="%%s" y="%%s" text-anchor="middle" '
         'font-size="%s">%%s</text>')


def render(scene: Scene, metrics: MetricsTable | None = None,
           cfg: RenderConfig | None = None) -> str:
    """Render one scene unit to SVG text."""
    if metrics is None:
        metrics = MetricsTable.builtin()
    if cfg is None:
        cfg = RenderConfig()
    return render_resolved(resolve_scene(scene, metrics, cfg), metrics, cfg)


def render_resolved(resolved: ResolvedScene, metrics: MetricsTable,
                    cfg: RenderConfig, write=''.join) -> str:
    """The SVG text of one unit as layout resolved it: what ``write``
    returns for an iterator of the text in order, a piece at a time (the
    frame, each arrow, each node text), which the default joins."""
    return write(_pieces(resolved, metrics, cfg))


def _pieces(resolved: ResolvedScene, metrics: MetricsTable,
            cfg: RenderConfig):
    """The document in whole lines, one piece per arrow and node text."""
    # each value formatted once per document; equal values print equal
    # text (-0.0 and 0.0 both print 0, 1 and 1.0 both print 1)
    fmt = Memo(_fmt).__getitem__
    yield '%s\n%s\n' % (_XML_DECL, _frame(fmt, _bounds(resolved)))
    size = cfg.em_pt * cfg.label_scale
    label = _TEXT % ('label', fmt(size))
    lift = metrics.ascent * size / 1000.0
    arrows = (_arrow(fmt, arrow, label, lift) for arrow in resolved.arrows)
    node = '    %s\n' % (_TEXT % ('node', fmt(cfg.em_pt)))
    nodes = (node % (fmt(box.text_x), fmt(-box.baseline_y), _escape(box.text))
             for box in resolved.boxes if box.text and not box.phantom)
    for cls, children in (('arrows', arrows), ('nodes', nodes)):
        lead = '  <g class="%s">\n' % cls   # written with the first child
        for child in children:
            yield lead + child
            lead = ''
        yield '  <g class="%s" />\n' % cls if lead else '  </g>\n'
    yield '</svg>\n'


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

# Each element of an arrow as a template, its class, dash and paint
# filled in, with one slot for each number; ``_arrow`` fills them.
_LINE = '<line class="%s" x1="%%s" y1="%%s" x2="%%s" y2="%%s"%s />'
_PATH = '<path class="%s" d="%s"%s />'
# each drawn shaft: its straight line, and its curve when it is a loop
_SHAFT = {shaft: (_LINE % ('shaft', _STROKED + dash),
                  _PATH % ('shaft', 'M %s %s C %s %s, %s %s, %s %s',
                           _STROKED + dash))
          for shaft, dash in (('solid', ''), *_DASH.items())}
_HEAD = _PATH % ('head', 'M %s %s L %s %s L %s %s L %s %s Z', ' fill="#000"')
_BAR = _LINE % ('tail', _STROKED)
_MONO = _PATH % ('tail', 'M %s %s L %s %s L %s %s', _STROKED)
_HOOK_UP, _HOOK_DOWN = (_PATH % ('tail', 'M %%s %%s A %%s %%s 0 0 %s %%s %%s'
                                 % sweep, _STROKED) for sweep in '10')
_MID = _LINE % ('mid', _STROKED)
_BACKING = ('<rect class="backing" x="%s" y="%s" width="%s" height="%s" '
            'fill="#fff" />')


def _arrow(fmt: Format, arrow: ResolvedArrow, label_text: str,
           lift: float) -> str:
    """One ``<g class="arrow">`` block: shaft, tips, mid mark, labels;
    each label fills ``label_text``, its baseline ``lift`` under its top.
    Each element is one line, unindented, and y flips on the way in."""
    g: list[str] = []
    style = arrow.style
    shaft, head, tail, mid = style.shaft, style.head, style.tail, style.mid
    start, end, controls = arrow.start, arrow.end, arrow.controls
    scale = arrow.tip_scale
    sx, sy, ex, ey = fmt(start[0]), fmt(-start[1]), fmt(end[0]), fmt(-end[1])
    if controls is None:
        u_start = u_end = _unit(start, end)
    else:
        c1, c2 = controls
        u_start, u_end = _unit(start, c1), _unit(c2, end)
    # decoration ends: the head family draws where the style points,
    # which is the start for reversed specs
    if style.reversed:
        head_at, head_x, head_y = start, sx, sy
        head_out = (-u_start[0], -u_start[1])
        tail_at, tail_x, tail_y = end, ex, ey
        tail_in = (-u_end[0], -u_end[1])
    else:
        head_at, head_x, head_y, head_out = end, ex, ey, u_end
        tail_at, tail_x, tail_y, tail_in = start, sx, sy, u_start
    if shaft != 'invisible':
        line, curve = _SHAFT.get(shaft, _SHAFT['solid'])
        if controls is not None:
            g.append(curve % (sx, sy, fmt(c1[0]), fmt(-c1[1]), fmt(c2[0]),
                              fmt(-c2[1]), ex, ey))
        else:
            a, b, ax, ay, bx, by = start, end, sx, sy, ex, ey
            # open tail glyphs own the first tip length of the shaft
            if tail in ('mono', 'hook_up', 'hook_down'):
                if style.reversed:
                    b = _at(end, u_end, -_TIP_LEN * scale)
                    bx, by = fmt(b[0]), fmt(-b[1])
                else:
                    a = _at(start, u_start, _TIP_LEN * scale)
                    ax, ay = fmt(a[0]), fmt(-a[1])
            if shaft == 'double':
                u = _unit(a, b)
                nx, ny = -u[1], u[0]
                for side in (_DOUBLE_GAP, -_DOUBLE_GAP):
                    g.append(line % (
                        fmt(a[0] + nx * side), fmt(-(a[1] + ny * side)),
                        fmt(b[0] + nx * side), fmt(-(b[1] + ny * side))))
            else:
                g.append(line % (ax, ay, bx, by))
    if head != 'none':
        # a filled chevron with its point at the head, opening against
        # head_out; a double head draws a second one further back
        nx, ny = -head_out[1], head_out[0]
        half = _TIP_HALF * scale
        back = _at(head_at, head_out, -_TIP_LEN * scale)
        notch = _at(head_at, head_out, -_TIP_LEN * 0.6 * scale)
        g.append(_HEAD % (
            head_x, head_y, fmt(back[0] + nx * half),
            fmt(-(back[1] + ny * half)), fmt(notch[0]), fmt(-notch[1]),
            fmt(back[0] - nx * half), fmt(-(back[1] - ny * half))))
        if head == 'double_head':
            p = _at(head_at, head_out, -_HEAD_GAP * scale)
            back = _at(p, head_out, -_TIP_LEN * scale)
            notch = _at(p, head_out, -_TIP_LEN * 0.6 * scale)
            g.append(_HEAD % (
                fmt(p[0]), fmt(-p[1]), fmt(back[0] + nx * half),
                fmt(-(back[1] + ny * half)), fmt(notch[0]), fmt(-notch[1]),
                fmt(back[0] - nx * half), fmt(-(back[1] - ny * half))))
    if tail != 'none':
        x, y = tail_at
        nx, ny = -tail_in[1], tail_in[0]
        if tail == 'bar':
            g.append(_BAR % (
                fmt(x + nx * _BAR_HALF), fmt(-(y + ny * _BAR_HALF)),
                fmt(x - nx * _BAR_HALF), fmt(-(y - ny * _BAR_HALF))))
        elif tail == 'mono':
            half = _TIP_HALF * scale
            vertex = _at(tail_at, tail_in, _TIP_LEN * scale)
            g.append(_MONO % (
                fmt(x + nx * half), fmt(-(y + ny * half)), fmt(vertex[0]),
                fmt(-vertex[1]), fmt(x - nx * half), fmt(-(y - ny * half))))
        else:
            # hooks: a half circle between the boundary point and a point
            # one diameter along the shaft, bulging to one side
            far = _at(tail_at, tail_in, 2.0 * _HOOK_R * scale)
            r = fmt(_HOOK_R * scale)
            g.append((_HOOK_UP if tail == 'hook_up' else _HOOK_DOWN) % (
                tail_x, tail_y, r, r, fmt(far[0]), fmt(-far[1])))
    if mid != 'none' and controls is None:
        cx = (start[0] + end[0]) / 2.0
        cy = (start[1] + end[1]) / 2.0
        ux, uy = u_start
        nx, ny = -uy, ux
        if mid == 'tick':
            strokes = ((nx * _BAR_HALF, ny * _BAR_HALF),)
        else:
            # a cross: two ticks 45 degrees either side of the normal
            strokes = []
            for dx, dy in ((nx + ux, ny + uy), (nx - ux, ny - uy)):
                length = math.hypot(dx, dy)
                strokes.append((dx / length * _BAR_HALF,
                                dy / length * _BAR_HALF))
        for vx, vy in strokes:
            g.append(_MID % (fmt(cx + vx), fmt(-(cy + vy)), fmt(cx - vx),
                             fmt(-(cy - vy))))
    for label in arrow.labels:
        if label.backing is not None:
            min_x, min_y, max_x, max_y = label.backing
            g.append(_BACKING % (fmt(min_x), fmt(-max_y), fmt(max_x - min_x),
                                 fmt(max_y - min_y)))
        baseline = label.y + label.height / 2.0 - lift
        g.append(label_text % (fmt(label.x), fmt(-baseline),
                               _escape(label.text)))
    if not g:
        return '    <g class="arrow" />\n'
    return '    <g class="arrow">\n      %s\n    </g>\n' % '\n      '.join(g)
