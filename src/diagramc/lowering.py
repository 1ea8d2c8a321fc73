"""Lowering from parsed statements to scene instances.

Each figure (``\\bfig`` ... ``\\efig``) becomes one :class:`~.model.Scene`;
inline arrows and inline loops between figures become standalone
single-fragment scenes.  Composite constructors expand to the same node
and arrow emissions as the equivalent sequence of plain morphisms, in
the exact order the drawing walks them, so scene files are stable golden
artifacts.

A statement is lowered by its keyword: ``\\bfig`` and ``\\efig`` open and
close a figure, a shape draws its walk in ``_WALKS``, the other figure
constructors have a method in ``Lowerer._HANDLERS``, and a keyword in
neither table is running text, an inline loop or an inline arrow.

All coordinate arithmetic here is integer logical units.  Text fields
arrive verbatim from the parser and lose one level of braces at each
point of use (:func:`~.parser.strip_group`), matching how arguments are
re-braced when handed down a macro chain.
"""

from __future__ import annotations

from .arrows import parse_arrow_spec, resolve_compass
from .errors import (DEGENERATE_ARROW, DEGENERATE_LOOP, DUPLICATE_NODE,
                     MASK_OUT_OF_RANGE, MISPLACED_CONSTRUCTOR,
                     UNBALANCED_FIGURE, UNKNOWN_NODE, DiagnosticError,
                     SourceLoc)
from .metrics import MetricsTable
from .model import (RULE_LETTERS, ArrowInstance, ArrowStyle, InlineArrowPart,
                    InlineFragment, LogicalPoint, Memo, NodeInstance, Record,
                    RenderConfig, Scene)
from .parser import Statement, strip_group

__all__ = ['Lowerer', 'tex_div', 'twoar_end']


def tex_div(a: int, b: int) -> int:
    """Integer division truncating toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def twoar_end(dx: int, dy: int) -> LogicalPoint:
    """Endpoint of the free-direction double arrow, before unit scaling.

    The length correction runs in two truncated integer divisions whose
    order matters; keep the sequence exactly as is.
    """
    s = 3 * (dx * dx + dy * dy)
    a, b = abs(dx), abs(dy)
    d = 3 * a + b if a > b else a + 3 * b
    sx, sy = 500 * dx, 500 * dy
    x = tex_div(3 * sx, d) + tex_div(sx * d, s)
    y = tex_div(3 * sy, d) + tex_div(sy * d, s)
    return LogicalPoint(x, y)


_OMIT = ArrowStyle(shaft='invisible', head='none')


def _shifted(style: ArrowStyle, offset: float) -> ArrowStyle:
    """``style`` drawn ``offset`` pt to the left of its path."""
    return ArrowStyle(style.tail, style.shaft, style.head, style.mid, offset,
                      style.reversed)


class _Walk(Record):
    """The lattice walk a shape constructor expands into.

    ``nodes`` places each payload node at integer multiples of (dx, dy)
    from the origin, in payload order.  ``rows`` lists what the drawing
    emits in walk order, which is the order scene files list arrows in:

    - an edge ``(slot, source, target)`` draws the slot's arrow between
      two nodes;
    - a grid border ``(bit, node, ux, uy)``, drawn when mask bit ``bit``
      is set, joins the node and a blank '0' placed (ux * bx, uy * by)
      away, (bx, by) being the grid's border reach.  A border reaching
      left or up comes into the node and is stored forward, out of the
      blank; it names the grid node before the blank if ``node_first``
      (the 3x3 walk), and after it otherwise (the 3x2 walk).
    """

    __slots__ = _values = ('nodes', 'rows', 'node_first')
    _defaults = dict(node_first=False)

    @property
    def mask_bits(self) -> int:
        return sum(len(row) == 4 for row in self.rows)

    def at(self, origin: LogicalPoint, dx: int, dy: int) -> list[LogicalPoint]:
        x, y = origin.x, origin.y
        return [LogicalPoint(x + i * dx, y + j * dy) for i, j in self.nodes]


# corners A top-left, B top-right, C bottom-left, D bottom-right; drawn
# bottom, left, top, right
_SQUARE = _Walk(((0, 1), (1, 1), (0, 0), (1, 0)),
                ((3, 2, 3), (1, 0, 2), (0, 0, 1), (2, 1, 3)))

_WALKS = {
    'morphism': _Walk(((0, 0), (1, 1)), ((0, 0, 1),)),
    'square': _SQUARE,
    'Diamond': _Walk(
        ((1, 2), (0, 1), (2, 1), (1, 0)),
        ((2, 1, 3), (3, 2, 3), (0, 0, 1), (1, 0, 2))),
    'ptriangle': _Walk(
        ((0, 1), (1, 1), (0, 0)), ((0, 0, 1), (1, 0, 2), (2, 1, 2))),
    'qtriangle': _Walk(
        ((0, 1), (1, 1), (1, 0)), ((0, 0, 1), (1, 0, 2), (2, 1, 2))),
    'dtriangle': _Walk(
        ((1, 1), (0, 0), (1, 0)), ((2, 1, 2), (0, 0, 1), (1, 0, 2))),
    'btriangle': _Walk(
        ((0, 1), (0, 0), (1, 0)), ((2, 1, 2), (0, 0, 1), (1, 0, 2))),
    'Atriangle': _Walk(
        ((1, 1), (0, 0), (2, 0)), ((2, 1, 2), (0, 0, 1), (1, 0, 2))),
    'Vtriangle': _Walk(
        ((0, 1), (2, 1), (1, 0)), ((1, 0, 2), (0, 0, 1), (2, 1, 2))),
    'Ctriangle': _Walk(
        ((1, 2), (0, 1), (1, 0)), ((2, 1, 2), (0, 0, 1), (1, 0, 2))),
    # the D walk hands slot 1 to the A->B edge and slot 0 to A->C,
    # unlike its siblings
    'Dtriangle': _Walk(
        ((0, 2), (1, 1), (0, 0)), ((2, 1, 2), (1, 0, 1), (0, 0, 2))),
    'Atrianglepair': _Walk(
        ((1, 1), (0, 0), (1, 0), (2, 0)),
        ((3, 1, 2), (4, 2, 3), (0, 0, 1), (1, 0, 2), (2, 0, 3))),
    'Vtrianglepair': _Walk(
        ((0, 1), (1, 1), (2, 1), (1, 0)),
        ((0, 0, 1), (2, 0, 3), (1, 1, 2), (3, 1, 3), (4, 2, 3))),
    'Ctrianglepair': _Walk(
        ((0, 2), (-1, 1), (0, 1), (0, 0)),
        ((4, 2, 3), (2, 1, 2), (3, 1, 3), (0, 0, 1), (1, 0, 2))),
    'Dtrianglepair': _Walk(
        ((0, 2), (0, 1), (1, 1), (0, 0)),
        ((2, 1, 2), (3, 1, 3), (0, 0, 1), (1, 0, 2), (4, 2, 3))),
    'iiixiii': _Walk(
        ((0, 2), (1, 2), (2, 2), (0, 1), (1, 1), (2, 1), (0, 0), (1, 0),
         (2, 0)),
        ((5, 3, -1, 0), (5, 3, 4), (6, 4, 5), (6, 5, 1, 0),
         (3, 0, -1, 0), (0, 0, 0, 1), (0, 0, 1), (2, 0, 3), (1, 1, 2),
         (3, 1, 4), (1, 1, 0, 1), (4, 2, 5), (2, 2, 0, 1), (4, 2, 1, 0),
         (7, 6, -1, 0), (9, 6, 0, -1), (10, 6, 7), (11, 7, 8),
         (10, 7, 0, -1), (8, 8, 1, 0), (11, 8, 0, -1),
         (7, 3, 6), (8, 4, 7), (9, 5, 8)),
        node_first=True),
    'iiixii': _Walk(
        ((0, 1), (1, 1), (2, 1), (0, 0), (1, 0), (2, 0)),
        ((2, 3, -1, 0), (5, 3, 4), (6, 4, 5), (3, 5, 1, 0),
         (0, 0, -1, 0), (0, 0, 1), (2, 0, 3), (1, 1, 2), (3, 1, 4),
         (4, 2, 5), (1, 2, 1, 0))),
}


class _FigureBuilder:
    """A figure's arrows, and its nodes by (x, y, text, anchor) in the
    order first placed; a real node takes the slot of its phantom twin."""

    def __init__(self) -> None:
        self.nodes: dict[tuple[int, int, str, str], NodeInstance] = {}
        self.arrows: list[ArrowInstance] = []

    def node(self, pos: LogicalPoint, text: str, anchor: str = 'center',
             phantom: bool = False) -> None:
        key = (pos.x, pos.y, text, anchor)
        kept = self.nodes.get(key)
        if kept is None or kept.phantom and not phantom:
            self.nodes[key] = NodeInstance(pos, text, anchor, phantom)

    def scene(self) -> Scene:
        return Scene(tuple(self.nodes.values()), tuple(self.arrows), ())


class Lowerer:
    """Statement-to-scene translator; named nodes stay for later documents."""

    def __init__(self, metrics: MetricsTable | None = None,
                 config: RenderConfig | None = None):
        self.metrics = metrics if metrics is not None else MetricsTable.builtin()
        self.config = config if config is not None else RenderConfig()
        self.registry: dict[str, tuple[LogicalPoint, str]] = {}
        # styles by spec text, parsed once for the life of this Lowerer;
        # a miss reads the module's parse_arrow_spec when it happens
        self._styles = Memo(lambda spec: parse_arrow_spec(spec))
        self._defined: set[str] = set()
        self._figure: _FigureBuilder | None = None
        self._figure_loc = None
        # loc and constructor (its keyword) of the statement being lowered
        self._source: dict[str, SourceLoc | str | None] = {}

    def lower_document(self, statements: list[Statement]) -> list[Scene]:
        units: list[Scene] = []
        # the registry keeps earlier documents' nodes for \arrow to name,
        # but each document may define a name once
        self._defined = set()
        self._figure = None
        self._figure_loc = None
        for stmt in statements:
            self._source = {'loc': stmt.loc, 'constructor': stmt.constructor}
            try:
                self._statement(units, stmt)
            except DiagnosticError as err:
                raise err.with_context(**self._source) from None
        if self._figure is not None:
            raise DiagnosticError(
                UNBALANCED_FIGURE, 'a figure is opened but never closed',
                self._figure_loc, 'bfig')
        return units

    def _statement(self, units: list[Scene], stmt: Statement) -> None:
        c = stmt.constructor
        if c == 'bfig':
            if self._figure is not None:
                raise DiagnosticError(
                    UNBALANCED_FIGURE, 'figures do not nest', stmt.loc)
            self._figure = _FigureBuilder()
            self._figure_loc = stmt.loc
            return
        if c == 'efig':
            if self._figure is None:
                raise DiagnosticError(
                    UNBALANCED_FIGURE,
                    "'\\efig' without a matching '\\bfig'", stmt.loc)
            units.append(self._figure.scene())
            self._figure = None
            return
        walk = _WALKS.get(c)
        if walk is None and c not in self._HANDLERS:
            # running text: an inline loop or an inline arrow
            if self._figure is not None:
                raise DiagnosticError(
                    MISPLACED_CONSTRUCTOR,
                    'inline %s live in running text, not inside a figure'
                    % ('loops' if c == 'iloop' else 'arrows'), stmt.loc)
            if c == 'iloop':
                fig = _FigureBuilder()
                self._loop(fig, stmt)
                units.append(fig.scene())
            else:
                units.append(Scene((), (), (self._inline_fragment(stmt),)))
            return
        if self._figure is None:
            raise DiagnosticError(
                MISPLACED_CONSTRUCTOR,
                "'\\%s' must appear between '\\bfig' and '\\efig'" % c,
                stmt.loc)
        if walk is None:
            self._HANDLERS[c](self, self._figure, stmt)
        else:
            self._walk(self._figure, stmt, walk, stmt.origin, *stmt.spans)

    # ---- the single-arrow core ----------------------------------------

    def _emit(self, fig: _FigureBuilder, src: LogicalPoint, dst: LogicalPoint,
              letter: str, spec: str, text_a: str, text_b: str, label: str,
              src_phantom: bool = False, dst_phantom: bool = False) -> None:
        """One morphism: two node objects and the arrow between them."""
        a = strip_group(text_a)
        b = strip_group(text_b)
        fig.node(src, a, phantom=src_phantom)
        fig.node(dst, b, phantom=dst_phantom)
        style = self._styles[strip_group(spec)]
        rule = letter if letter in RULE_LETTERS else 'none'
        text = strip_group(label)
        if rule == 'none' or (rule == 'm' and self.metrics.text_advance(text) == 0):
            rule, text = 'none', ''
        # the shaft and the coordinates first: Record.__eq__ runs in Python
        if style.shaft == 'invisible' and style == _OMIT and not text:
            return
        if src.x == dst.x and src.y == dst.y:
            raise DiagnosticError(DEGENERATE_ARROW, 'zero-length arrow')
        fig.arrows.append(ArrowInstance(src, dst, style, text, rule, a, b,
                                        **self._source))

    # ---- plain constructors -------------------------------------------

    def _vect(self, fig: _FigureBuilder, stmt: Statement) -> None:
        style = self._styles[strip_group(stmt.specs[0])]
        if style.shaft == 'invisible' and style == _OMIT:
            return
        dx, dy = stmt.spans
        if dx == 0 and dy == 0:
            raise DiagnosticError(DEGENERATE_ARROW, 'zero-length arrow')
        fig.arrows.append(ArrowInstance(
            stmt.origin, stmt.origin.shifted(dx, dy), style, **self._source))

    def _place(self, fig: _FigureBuilder, stmt: Statement) -> None:
        fig.node(stmt.origin, strip_group(stmt.nodes[0]), anchor=stmt.anchor)

    def _node(self, fig: _FigureBuilder, stmt: Statement) -> None:
        if stmt.name in self._defined:
            raise DiagnosticError(
                DUPLICATE_NODE,
                "node '%s' is already defined" % stmt.name)
        self._defined.add(stmt.name)
        self.registry[stmt.name] = (stmt.origin, stmt.nodes[0])
        fig.node(stmt.origin, strip_group(stmt.nodes[0]))

    def _named_arrow(self, fig: _FigureBuilder, stmt: Statement) -> None:
        names = [strip_group(n) for n in stmt.nodes]
        for name in names:
            if name not in self.registry:
                raise DiagnosticError(
                    UNKNOWN_NODE, "node '%s' is not defined" % name)
        (src, src_text), (dst, dst_text) = (self.registry[n] for n in names)
        self._emit(fig, src, dst, stmt.placements, stmt.specs[0], src_text,
                   dst_text, stmt.labels[0], src_phantom=True,
                   dst_phantom=True)

    def _loop(self, fig: _FigureBuilder, stmt: Statement) -> None:
        for direction in (stmt.loop_out, stmt.loop_in):
            resolve_compass(direction)
        if stmt.loop_out == stmt.loop_in:
            raise DiagnosticError(
                DEGENERATE_LOOP,
                "loop leaves and returns along '%s'" % stmt.loop_out)
        text = strip_group(stmt.nodes[0])
        fig.node(stmt.origin, text)
        fig.arrows.append(ArrowInstance(
            stmt.origin, stmt.origin, ArrowStyle(), src_text=text,
            dst_text=text, loop_out=stmt.loop_out, loop_in=stmt.loop_in,
            **self._source))

    # ---- table walks --------------------------------------------------

    def _walk(self, fig: _FigureBuilder, stmt: Statement, walk: _Walk,
              origin: LogicalPoint, dx: int, dy: int,
              nodes: tuple[int, ...] | None = None,
              slots: tuple[int | None, ...] | None = None
              ) -> list[LogicalPoint]:
        """Draw ``walk`` from ``origin`` at pitch (dx, dy); return the
        point of each walk node.

        ``nodes`` picks the statement's node for each walk node, and
        ``slots`` its slot for each walk slot, None dropping that edge;
        both default to the identity.
        """
        # nothing may be left above the walk's bits; a negative mask leaves -1
        if stmt.mask and stmt.mask >> walk.mask_bits:
            raise DiagnosticError(
                MASK_OUT_OF_RANGE, 'grid mask %d does not fit in %d bits'
                % (stmt.mask, walk.mask_bits))
        texts = stmt.nodes if nodes is None else [stmt.nodes[i] for i in nodes]
        at = walk.at(origin, dx, dy)
        p, s, l = stmt.placements, stmt.specs, stmt.labels
        for row in walk.rows:
            if len(row) == 3:
                slot, a, b = row
                if slots is not None:
                    slot = slots[slot]
                if slot is not None:
                    self._emit(fig, at[a], at[b], p[slot], s[slot], texts[a],
                               texts[b], l[slot])
                continue
            bit, k, ux, uy = row
            if not stmt.mask >> bit & 1:
                continue
            # the 3x2 grid has a single, horizontal border reach
            blank = at[k].shifted(ux * stmt.border[0], uy * stmt.border[-1])
            if ux < 0 or uy > 0:
                if walk.node_first:
                    # ahead of the blank; _emit's repeat keeps this slot
                    fig.node(at[k], strip_group(texts[k]))
                self._emit(fig, blank, at[k], 'a', '>', '0', texts[k], '')
            else:
                self._emit(fig, at[k], blank, 'a', '>', texts[k], '0', '')
        return at

    def _width(self, stmt: Statement, *edges: tuple[int, int, int]) -> int:
        """Widest auto-spaced morphism of the (source, target, label)s."""
        n, l = stmt.nodes, stmt.labels
        return max(
            self.metrics.morphism_width(
                strip_group(n[i]), strip_group(n[j]), strip_group(l[k]),
                self.config)
            for i, j, k in edges)

    def _auto_square(self, fig: _FigureBuilder, stmt: Statement) -> None:
        width = self._width(stmt, (0, 1, 0), (2, 3, 3))
        self._walk(fig, stmt, _SQUARE, stmt.origin, width, stmt.spans[0])

    def _hsquares(self, fig: _FigureBuilder, stmt: Statement) -> None:
        if stmt.constructor == 'hSquares':
            dy, = stmt.spans
            left = self._width(stmt, (0, 1, 0), (3, 4, 5))
            right = self._width(stmt, (1, 2, 1), (4, 5, 6))
        else:
            left, right, dy = stmt.spans
        self._walk(fig, stmt, _SQUARE, stmt.origin, left, dy,
                   (0, 1, 3, 4), (0, 2, 3, 5))
        # the right pane's left edge is the left pane's right edge
        self._walk(fig, stmt, _SQUARE, stmt.origin.shifted(left, 0), right,
                   dy, (1, 2, 4, 5), (1, None, 4, 6))

    def _vsquares(self, fig: _FigureBuilder, stmt: Statement) -> None:
        if stmt.constructor == 'vSquares':
            # the upper pane's height comes from the first span: an
            # oddity, but a faithful one
            upper, lower = stmt.spans
            width = self._width(stmt, (0, 1, 0), (2, 3, 3), (4, 5, 6))
        else:
            width, upper, lower = stmt.spans
        # the lower pane's top edge is the upper pane's bottom edge
        self._walk(fig, stmt, _SQUARE, stmt.origin, width, lower,
                   (2, 3, 4, 5), (None, 4, 5, 6))
        self._walk(fig, stmt, _SQUARE, stmt.origin.shifted(0, lower), width,
                   upper)

    # ---- pullback and cube --------------------------------------------

    def _pullback(self, fig: _FigureBuilder, stmt: Statement) -> None:
        square, tri = stmt.inner, stmt.trident
        corners = self._walk(fig, square, _SQUARE, square.origin,
                             *square.spans)
        w, h = tri.spans
        apex = corners[0].shifted(-w, h)
        # the trident reaches B, A and C, in slot order
        for slot, k in enumerate((1, 0, 2)):
            self._emit(fig, apex, corners[k], tri.placements[slot],
                       tri.specs[slot], tri.nodes[0], square.nodes[k],
                       tri.labels[slot])

    def _cube(self, fig: _FigureBuilder, stmt: Statement) -> None:
        inner, conn = stmt.inner, stmt.connector
        outer_at = self._walk(fig, stmt, _SQUARE, stmt.origin, *stmt.spans)
        inner_at = self._walk(fig, inner, _SQUARE, inner.origin,
                              *inner.spans)
        # connectors run outer corner to inner corner: top-right first,
        # then top-left, bottom-left, bottom-right
        for k in (1, 0, 2, 3):
            self._emit(fig, outer_at[k], inner_at[k], conn.placements[k],
                       conn.specs[k], stmt.nodes[k], inner.nodes[k],
                       conn.labels[k], dst_phantom=True)

    # ---- inline fragments -----------------------------------------------

    def _inline_fragment(self, stmt: Statement) -> InlineFragment:
        kind, styles = stmt.constructor, self._styles
        if kind == 'twoar':
            dx, dy = stmt.spans
            if dx == 0 and dy == 0:
                raise DiagnosticError(
                    DEGENERATE_ARROW, 'the double arrow needs a direction')
            part = InlineArrowPart(styles['=>'], '', '', '')
            return InlineFragment(kind, twoar_end(dx, dy), (part,),
                                  unit_scale=0.1)
        if kind in ('rlimto', 'llimto'):
            part = InlineArrowPart(styles['->' if kind == 'rlimto' else '<-'],
                                   '', '', '')
            return InlineFragment(kind, LogicalPoint(100, 0), (part,),
                                  tip_scale=0.8, raise_pt=2.0)
        specs = tuple(strip_group(s) for s in stmt.specs)
        sup, sub, mid = stmt.sup, stmt.sub, stmt.mid
        metrics, cfg = self.metrics, self.config
        if kind == 'two':
            length = stmt.length or metrics.inline_length(sup, sub, 200, cfg)
            parts = (
                InlineArrowPart(_shifted(styles[specs[0]], 2.5), sup, '', ''),
                InlineArrowPart(_shifted(styles[specs[1]], -2.5), '', sub, ''),
            )
        elif kind == 'three':
            length = stmt.length or max(
                metrics.inline_length(sup, sub, 300, cfg),
                metrics.inline_length(mid, '', 300, cfg))
            if metrics.text_advance(mid) == 0:
                mid = ''
            parts = (
                InlineArrowPart(styles[specs[1]], '', '', mid),
                InlineArrowPart(_shifted(styles[specs[0]], 4.5), sup, '', ''),
                InlineArrowPart(_shifted(styles[specs[2]], -4.5), '', sub, ''),
            )
        else:
            length = stmt.length or metrics.inline_length(sup, sub, 100, cfg)
            parts = (InlineArrowPart(styles[specs[0]], sup, sub, ''),)
        return InlineFragment(kind, LogicalPoint(length, 0), parts)

    _HANDLERS = {
        'vect': _vect,
        'Square': _auto_square,
        'pullback': _pullback,
        'hsquares': _hsquares,
        'hSquares': _hsquares,
        'vsquares': _vsquares,
        'vSquares': _vsquares,
        'cube': _cube,
        'place': _place,
        'node': _node,
        'arrow': _named_arrow,
        'Loop': _loop,
    }
