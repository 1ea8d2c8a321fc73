"""Core scene model: logical-unit geometry, render configuration, scene instances."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Optional, Tuple

# One logical unit is 0.01 em.  All constructor arithmetic stays in integer
# logical units; conversion to points happens only at render time.
UNIT_EM = 0.01
DEFAULT_MARGIN = 150

# Longest integer literal in a source or a metrics table: any longer one is
# an error, well before int() or the float arithmetic of layout would fail.
MAX_DIGITS = 9


class Memo(dict):
    """``function`` of each key, computed on its first lookup and kept.

    Every per-unit cache of the compiler is one of these, made for one
    unit and dropped with it.  A miss that raises stores nothing.
    """

    __slots__ = ('function',)

    def __init__(self, function: Callable[[Any], Any]) -> None:
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


@dataclass(frozen=True)
class LogicalPoint:
    x: int
    y: int

    def shifted(self, dx: int, dy: int) -> "LogicalPoint":
        return LogicalPoint(self.x + dx, self.y + dy)


ORIGIN = LogicalPoint(0, 0)


@dataclass(frozen=True)
class RenderConfig:
    """Physical rendering knobs; geometry in logical units never depends on these."""

    em_pt: float = 10.0
    object_margin_pt: float = 3.0
    label_scale: float = 1.0

    def __post_init__(self) -> None:
        # nan passes every sign test below, and inf overflows layout
        for setting in fields(self):
            value = getattr(self, setting.name)
            if not math.isfinite(value):
                raise ValueError("%s must be finite, got %r"
                                 % (setting.name, value))
        if self.em_pt <= 0:
            raise ValueError("em_pt must be positive")
        if self.object_margin_pt < 0:
            raise ValueError("object_margin_pt must be non-negative")
        if self.label_scale <= 0:
            raise ValueError("label_scale must be positive")

    @property
    def axis(self) -> float:
        return 0.25 * self.em_pt


def to_physical(p: LogicalPoint, cfg: RenderConfig) -> Tuple[float, float]:
    """Logical units to points; exact IEEE double arithmetic, no rounding."""
    return (p.x * UNIT_EM * cfg.em_pt, p.y * UNIT_EM * cfg.em_pt)


@dataclass(frozen=True)
class ArrowStyle:
    tail: str = "none"        # none | mono | hook_up | hook_down | bar
    shaft: str = "solid"      # solid | dashed | dotted | double | invisible
    head: str = "normal"      # none | normal | double_head
    mid: str = "none"         # none | tick | cross
    parallel_offset_pt: float = 0.0
    reversed: bool = False


@dataclass(frozen=True)
class NodeInstance:
    pos: LogicalPoint
    text: str
    anchor: str = "center"
    phantom: bool = False


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


@dataclass(frozen=True)
class ArrowInstance:
    src: LogicalPoint
    dst: LogicalPoint
    style: ArrowStyle
    label: str = ""
    label_rule: str = "none"  # l | m | r | a | b | none
    # Extent references: text of the node whose box clips this end, None for
    # bare vectors that join raw coordinates.
    src_text: Optional[str] = None
    dst_text: Optional[str] = None
    loop_out: Optional[str] = None
    loop_in: Optional[str] = None

    @property
    def is_loop(self) -> bool:
        return self.loop_out is not None

    def span(self) -> Tuple[int, int]:
        return (self.dst.x - self.src.x, self.dst.y - self.src.y)


@dataclass(frozen=True)
class InlineArrowPart:
    style: ArrowStyle
    sup: str = ""
    sub: str = ""
    mid: str = ""


@dataclass(frozen=True)
class InlineFragment:
    """A standalone arrow fragment rendered outside any figure."""

    kind: str
    end: LogicalPoint
    parts: Tuple[InlineArrowPart, ...]
    unit_scale: float = 1.0   # twoar renders at 0.001 em per unit
    tip_scale: float = 1.0
    raise_pt: float = 0.0


@dataclass(frozen=True)
class Scene:
    nodes: Tuple[NodeInstance, ...] = ()
    arrows: Tuple[ArrowInstance, ...] = ()
    inlines: Tuple[InlineFragment, ...] = ()


def translate(scene: Scene, dx: int, dy: int) -> Scene:
    """Shift every coordinate; used to state translation equivariance."""
    return Scene(
        nodes=tuple(replace(n, pos=n.pos.shifted(dx, dy)) for n in scene.nodes),
        arrows=tuple(
            replace(a, src=a.src.shifted(dx, dy), dst=a.dst.shifted(dx, dy))
            for a in scene.arrows
        ),
        inlines=scene.inlines,
    )
