"""Arrow spec strings to canonical styles, plus compass direction resolution."""
from __future__ import annotations

import math
import re

from .errors import BAD_DIRECTION, UNSUPPORTED_ARROW_SPEC, DiagnosticError
from .model import MAX_DIGITS, ArrowStyle
from .parser import matching_brace

_DIAG = math.sqrt(2.0) / 2.0

COMPASS = {
    "l": (-1.0, 0.0),
    "r": (1.0, 0.0),
    "u": (0.0, 1.0),
    "d": (0.0, -1.0),
    "ul": (-_DIAG, _DIAG),
    "ur": (_DIAG, _DIAG),
    "dl": (-_DIAG, -_DIAG),
    "dr": (_DIAG, -_DIAG),
}


def resolve_compass(d: str) -> tuple[float, float]:
    try:
        return COMPASS[d]
    except KeyError:
        raise DiagnosticError(BAD_DIRECTION, f"unknown compass direction {d!r}") from None


# Directional names as they appear between slashes, each with its
# (tail, shaft, head, reversed).  A reversed name keeps its endpoints and
# draws its head at the start.  Leading/trailing spaces are significant:
# the blank-tip names ship with them.
_NAMES = {
    "": ("none", "invisible", "none", False),
    "-": ("none", "solid", "none", False),
    ">": ("none", "solid", "normal", False),
    "->": ("none", "solid", "normal", False),
    "->>": ("none", "solid", "double_head", False),
    " >->": ("mono", "solid", "normal", False),
    " (->": ("hook_up", "solid", "normal", False),
    "^{ (}->": ("hook_up", "solid", "normal", False),
    "_{ (}->": ("hook_down", "solid", "normal", False),
    "|->": ("bar", "solid", "normal", False),
    "--": ("none", "dashed", "none", False),
    "-->": ("none", "dashed", "normal", False),
    ".": ("none", "dotted", "none", False),
    "..": ("none", "dotted", "none", False),
    "d": ("none", "dotted", "none", False),
    "..>": ("none", "dotted", "normal", False),
    "=": ("none", "double", "none", False),
    "=>": ("none", "double", "normal", False),
    "<-": ("none", "solid", "normal", True),
    "<<-": ("none", "solid", "double_head", True),
    "<-< ": ("mono", "solid", "normal", True),
    "<-( ": ("hook_up", "solid", "normal", True),
    "<--": ("none", "dashed", "normal", True),
    "<..": ("none", "dotted", "normal", True),
    "<-|": ("bar", "solid", "normal", True),
    "<=": ("none", "double", "normal", True),
}

# A run of suffixes: mid-shaft ticks (group 1: "|" or "+") and parallel
# offsets (group 2).  Offsets take ASCII digits only, at most MAX_DIGITS
# on each side of the point, so the offset stays finite; any other
# suffix is an unsupported spec.  A repeated group keeps its last
# capture, so the last tick and the last offset of the run win.
_SUFFIXES_RE = re.compile(
    r"(?:\|-\*@\{([|+])\}|@<(-?[0-9]{1,%d}(?:\.[0-9]{1,%d})?)pt>)*"
    % (MAX_DIGITS, MAX_DIGITS))


def parse_arrow_spec(spec: str) -> ArrowStyle:
    """Canonicalize one spec string.

    Raw specs (leading @) pass through the same directional grammar after
    unwrapping, so parse("@{s}") == parse("s") for every supported s.
    Raw layers nest: layer k starts at 2k with "@{".  Once the innermost
    name is looked up, each layer's suffixes apply from the innermost
    layer outward.  Every position in a message counts from the start of
    its own layer.

    A direct route settles the common raw form: one layer "@{name}" whose
    name is in the table as written, then ticks and offsets only.
    Everything else, every error included, goes to the general reader,
    which unwraps the layers one matching brace at a time.
    """
    if spec.startswith("@{"):
        close = spec.find("}")
        name = spec[2:close]
        if close > 0 and name in _NAMES:
            run = _SUFFIXES_RE.match(spec, close + 1)
            if run.end() == len(spec):
                return _style(name, *_suffixes("none", 0.0, run))
    return _parse_general(spec)


def _parse_general(spec: str) -> ArrowStyle:
    """:func:`parse_arrow_spec` for any spec, layer by layer."""
    depth = 0
    while spec.startswith("@{", 2 * depth):
        depth += 1
    # ends[k]: where layer k stops, at the closing brace of layer k - 1;
    # each closing brace is found by scanning on from the one inside it
    ends = [len(spec)] + [-1] * depth
    if depth:
        ends[depth] = matching_brace(spec, 2 * depth - 1)
        for k in range(depth - 1, 0, -1):
            if ends[k + 1] < 0:
                break
            ends[k] = matching_brace(spec, ends[k + 1] + 1, 1)
        if ends[1] < 0:
            raise DiagnosticError(
                UNSUPPORTED_ARROW_SPEC,
                f"unbalanced braces in arrow spec {spec!r} at position 1")
    name = spec[2 * depth:ends[depth]]
    if name.startswith("@"):
        raise _unsupported(name, 1)
    if name not in _NAMES:
        layer = spec[2 * depth - 2:ends[depth - 1]] if depth else spec
        raise _unsupported(layer, 2 if depth else 0)
    mid, offset = "none", 0.0
    for k in range(depth - 1, -1, -1):
        start, end = 2 * k, ends[k]
        run = _SUFFIXES_RE.match(spec, ends[k + 1] + 1, end)
        if run.end() < end:
            raise _unsupported(spec[start:end], run.end() - start)
        mid, offset = _suffixes(mid, offset, run)
    return _style(name, mid, offset)


def _suffixes(mid: str, offset: float, run: re.Match) -> tuple[str, float]:
    """``mid`` and ``offset`` with the last tick and offset of ``run``."""
    tick, shift = run.groups()
    if tick is not None:
        mid = "tick" if tick == "|" else "cross"
    if shift is not None:
        offset = float(shift)
    return mid, offset


def _style(name: str, mid: str, offset: float) -> ArrowStyle:
    """The style of a name in the table, with its suffixes' values."""
    tail, shaft, head, reversed_ = _NAMES[name]
    return ArrowStyle(tail, shaft, head, mid, offset, reversed_)


def _unsupported(spec: str, pos: int) -> DiagnosticError:
    return DiagnosticError(
        UNSUPPORTED_ARROW_SPEC,
        f"unsupported arrow spec {spec!r} at position {pos}")
