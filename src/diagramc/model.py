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
    ``collections.namedtuple`` compiles its ``__new__``; a slot named in
    the class dict ``_defaults`` may be left out.  It stores each slot
    as ``self.x = x`` while the instance is of the class's ``_twin``, a
    subclass of its layout whose ``__setattr__`` and ``__delattr__`` are
    ``object``'s: they share one type slot, so with one alone every store
    would still go through Python.  The filler is the ``__init__`` of a
    class that writes none; one that checks its arguments ends its
    ``__init__`` in one call to it."""

    __slots__ = ()

    def __init_subclass__(cls, twin: bool = False) -> None:
        if twin:
            return
        cls._key = attrgetter(*cls._values)
        cls._twin = type(cls.__name__, (cls,), dict(
            __slots__=(), __setattr__=object.__setattr__,
            __delattr__=object.__delattr__), twin=True)
        scope = dict(_cls=cls, _twin=cls._twin,
                     _retype=object.__dict__['__class__'].__set__)
        defaults = scope['_defaults'] = cls.__dict__.get('_defaults', {})
        source = 'def _fill(self, %s):\n    _retype(self, _twin)\n%s' \
            '    self.__class__ = _cls\n' % (', '.join(
                '%s=_defaults[%r]' % (n, n) if n in defaults else n
                for n in cls.__slots__), ''.join(
                '    self.%s = %s\n' % (n, n) for n in cls.__slots__))
        # its own file name keeps each class's filler apart in a profile
        exec(compile(source, '<%s._fill>' % cls.__qualname__, 'exec'), scope)
        cls._fill = fill = scope['_fill']
        if '__init__' not in cls.__dict__:
            # a wrong call names the class: "LogicalPoint.__init__() ..."
            fill.__name__ = '__init__'
            fill.__qualname__ = cls.__qualname__ + '.__init__'
            cls.__init__ = fill

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
    """How one arrow is drawn.  ``tail`` is none, mono, hook_up, hook_down
    or bar; ``shaft`` solid, dashed, dotted, double or invisible; ``head``
    none, normal or double_head; ``mid`` none, tick or cross."""

    __slots__ = _values = ('tail', 'shaft', 'head', 'mid',
                           'parallel_offset_pt', 'reversed')
    _defaults = dict(tail='none', shaft='solid', head='normal', mid='none',
                     parallel_offset_pt=0.0, reversed=False)


class NodeInstance(Record):
    __slots__ = _values = ('pos', 'text', 'anchor', 'phantom')
    _defaults = dict(anchor='center', phantom=False)


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
    clip the ends, None for bare vectors.  ``label_rule`` is one of l, m,
    r, a, b or none.  ``loc`` and ``constructor`` name the statement it
    comes from, for diagnostics, outside its value."""

    _values = ('src', 'dst', 'style', 'label', 'label_rule', 'src_text',
               'dst_text', 'loop_out', 'loop_in')
    __slots__ = _values + ('loc', 'constructor')
    _defaults = dict(label='', label_rule='none', src_text=None,
                     dst_text=None, loop_out=None, loop_in=None, loc=None,
                     constructor=None)

    @property
    def is_loop(self) -> bool:
        return self.loop_out is not None


class InlineArrowPart(Record):
    __slots__ = _values = ('style', 'sup', 'sub', 'mid')
    _defaults = dict(sup='', sub='', mid='')


class InlineFragment(Record):
    """A standalone arrow fragment rendered outside any figure."""

    __slots__ = _values = ('kind', 'end', 'parts', 'unit_scale', 'tip_scale',
                           'raise_pt')
    # twoar renders at unit_scale 0.1, 0.001 em per unit
    _defaults = dict(unit_scale=1.0, tip_scale=1.0, raise_pt=0.0)


class Scene(Record):
    __slots__ = _values = ('nodes', 'arrows', 'inlines')
    _defaults = dict(nodes=(), arrows=(), inlines=())
