"""Core scene model: logical-unit geometry, render configuration, scene instances."""
from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter

# One logical unit is 0.01 em.  All constructor arithmetic stays in integer
# logical units; conversion to points happens only at render time.
UNIT_EM = 0.01
DEFAULT_MARGIN = 150

# Longest integer literal in a source or a metrics table: any longer one is
# an error, well before int() or the float arithmetic of layout would fail.
MAX_DIGITS = 9

# Bounds of the render settings: within them, layout's float arithmetic on
# coordinates and advances of MAX_DIGITS digits neither overflows nor
# rounds a length to zero.
MIN_SETTING, MAX_SETTING = 1e-6, 1e6


class Memo(dict):
    """``function`` of each key, computed on its first lookup and kept.

    Every per-unit cache of the compiler is one of these, made for one
    unit and dropped with it.  A miss that raises stores nothing.
    """

    __slots__ = ('function',)

    def __init__(self, function: Callable[[object], object]) -> None:
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


class Record:
    """Immutable slotted record, the base of every value type.

    Equality, hashing and ``repr`` read the fields named in ``_values``;
    a slot left out of them (a source location) is never compared.  No
    attribute can be set, so each class gets its own ``_fill(self, <its
    slots in order>)``, compiled when the class is made, as
    ``collections.namedtuple`` compiles its ``__new__``: it writes each
    slot through its member descriptor's ``__set__``, and every
    ``__init__`` ends in one call to it."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._values)
        names = cls.__slots__
        setters = {'_set_' + n: getattr(cls, n).__set__ for n in names}
        source = 'def _fill(self, %s):\n%s' % (', '.join(names), ''.join(
            '    _set_%s(self, %s)\n' % (n, n) for n in names))
        # its own file name keeps each class's filler apart in a profile
        exec(compile(source, '<%s._fill>' % cls.__qualname__, 'exec'),
             setters)
        cls._fill = setters['_fill']

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __repr__(self) -> str:
        return '%s(%s)' % (type(self).__qualname__, ', '.join(
            '%s=%r' % item for item in zip(self._values, self._key(self))))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError('%s is immutable' % type(self).__name__)

    __delattr__ = __setattr__


class LogicalPoint(Record):
    __slots__ = _values = ('x', 'y')

    def __init__(self, x: int, y: int) -> None:
        self._fill(x, y)

    def shifted(self, dx: int, dy: int) -> "LogicalPoint":
        return LogicalPoint(self.x + dx, self.y + dy)


ORIGIN = LogicalPoint(0, 0)


class RenderConfig(Record):
    """Physical rendering knobs; geometry in logical units never depends on these."""

    __slots__ = _values = ('em_pt', 'object_margin_pt', 'label_scale')

    def __init__(self, em_pt: float = 10.0, object_margin_pt: float = 3.0,
                 label_scale: float = 1.0) -> None:
        settings = (em_pt, object_margin_pt, label_scale)
        # nan fails every comparison; only the margin may be zero
        for name, value, least in zip(self._values, settings,
                                      (MIN_SETTING, 0.0, MIN_SETTING)):
            if not least <= value <= MAX_SETTING:
                raise ValueError("%s must be finite and within [%g, %g], "
                                 "got %r" % (name, least, MAX_SETTING, value))
        self._fill(*settings)

    @property
    def axis(self) -> float:
        return 0.25 * self.em_pt


def to_physical(p: LogicalPoint, cfg: RenderConfig) -> tuple[float, float]:
    """Logical units to points; exact IEEE double arithmetic, no rounding."""
    return (p.x * UNIT_EM * cfg.em_pt, p.y * UNIT_EM * cfg.em_pt)


class ArrowStyle(Record):
    __slots__ = _values = ('tail', 'shaft', 'head', 'mid',
                           'parallel_offset_pt', 'reversed')

    def __init__(self, tail: str = "none",  # none | mono | hook_up | hook_down | bar
                 shaft: str = "solid",  # solid | dashed | dotted | double | invisible
                 head: str = "normal",  # none | normal | double_head
                 mid: str = "none",     # none | tick | cross
                 parallel_offset_pt: float = 0.0,
                 reversed: bool = False) -> None:
        self._fill(tail, shaft, head, mid, parallel_offset_pt, reversed)


class NodeInstance(Record):
    __slots__ = _values = ('pos', 'text', 'anchor', 'phantom')

    def __init__(self, pos: LogicalPoint, text: str, anchor: str = "center",
                 phantom: bool = False) -> None:
        self._fill(pos, text, anchor, phantom)


LEFT = "left"
RIGHT = "right"
MID = "mid"
NO_SIDE = "none"

# the label side table: '^' in the source means left of the arrow's
# direction of travel, '_' means right; which one a placement letter
# picks depends on the sign of the span
RULE_LETTERS = frozenset("lrabm")


def resolve_label_side(rule: str, dx: int, dy: int) -> str:
    """Side of the (dx, dy) direction a label placement resolves to."""
    if rule == "l":
        return LEFT if dy > 0 else RIGHT
    if rule == "r":
        return LEFT if dy < 0 else RIGHT
    if rule == "a":
        return LEFT if dx > 0 else RIGHT
    if rule == "b":
        return LEFT if dx < 0 else RIGHT
    if rule == "m":
        return MID
    return NO_SIDE


class ArrowInstance(Record):
    """``src_text`` and ``dst_text`` are the texts of the nodes whose boxes
    clip the ends, None for bare vectors.  ``loc`` and ``constructor`` name
    the statement it comes from, for diagnostics, outside its value."""

    _values = ('src', 'dst', 'style', 'label', 'label_rule', 'src_text',
               'dst_text', 'loop_out', 'loop_in')
    __slots__ = _values + ('loc', 'constructor')

    def __init__(self, src: LogicalPoint, dst: LogicalPoint, style: ArrowStyle,
                 label: str = "",
                 label_rule: str = "none",  # l | m | r | a | b | none
                 src_text: str | None = None, dst_text: str | None = None,
                 loop_out: str | None = None, loop_in: str | None = None,
                 loc: object = None, constructor: str | None = None) -> None:
        self._fill(src, dst, style, label, label_rule, src_text, dst_text,
                   loop_out, loop_in, loc, constructor)

    @property
    def is_loop(self) -> bool:
        return self.loop_out is not None

    def span(self) -> tuple[int, int]:
        return (self.dst.x - self.src.x, self.dst.y - self.src.y)


class InlineArrowPart(Record):
    __slots__ = _values = ('style', 'sup', 'sub', 'mid')

    def __init__(self, style: ArrowStyle, sup: str = "", sub: str = "",
                 mid: str = "") -> None:
        self._fill(style, sup, sub, mid)


class InlineFragment(Record):
    """A standalone arrow fragment rendered outside any figure."""

    __slots__ = _values = ('kind', 'end', 'parts', 'unit_scale', 'tip_scale',
                           'raise_pt')

    def __init__(self, kind: str, end: LogicalPoint,
                 parts: tuple[InlineArrowPart, ...],
                 unit_scale: float = 1.0,  # twoar renders at 0.001 em per unit
                 tip_scale: float = 1.0, raise_pt: float = 0.0) -> None:
        self._fill(kind, end, parts, unit_scale, tip_scale, raise_pt)


class Scene(Record):
    __slots__ = _values = ('nodes', 'arrows', 'inlines')

    def __init__(self, nodes: tuple[NodeInstance, ...] = (),
                 arrows: tuple[ArrowInstance, ...] = (),
                 inlines: tuple[InlineFragment, ...] = ()) -> None:
        self._fill(nodes, arrows, inlines)
