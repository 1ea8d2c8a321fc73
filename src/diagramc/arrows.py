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


# Directional names as they appear between slashes.  Leading/trailing spaces
# are significant: the blank-tip names ship with them.
_FORWARD = {
    "": ("none", "invisible", "none"),
    "-": ("none", "solid", "none"),
    ">": ("none", "solid", "normal"),
    "->": ("none", "solid", "normal"),
    "->>": ("none", "solid", "double_head"),
    " >->": ("mono", "solid", "normal"),
    " (->": ("hook_up", "solid", "normal"),
    "^{ (}->": ("hook_up", "solid", "normal"),
    "_{ (}->": ("hook_down", "solid", "normal"),
    "|->": ("bar", "solid", "normal"),
    "--": ("none", "dashed", "none"),
    "-->": ("none", "dashed", "normal"),
    ".": ("none", "dotted", "none"),
    "..": ("none", "dotted", "none"),
    "d": ("none", "dotted", "none"),
    "..>": ("none", "dotted", "normal"),
    "=": ("none", "double", "none"),
    "=>": ("none", "double", "normal"),
}

_REVERSED = {
    "<-": ("none", "solid", "normal"),
    "<<-": ("none", "solid", "double_head"),
    "<-< ": ("mono", "solid", "normal"),
    "<-( ": ("hook_up", "solid", "normal"),
    "<--": ("none", "dashed", "normal"),
    "<..": ("none", "dotted", "normal"),
    "<-|": ("bar", "solid", "normal"),
    "<=": ("none", "double", "normal"),
}

# ASCII digits only, at most MAX_DIGITS on each side of the point, so the
# offset stays finite; any other offset is an unsupported spec
_OFFSET_RE = re.compile(r"@<(-?[0-9]{1,%d}(?:\.[0-9]{1,%d})?)pt>"
                        % (MAX_DIGITS, MAX_DIGITS))
_TICK_RE = re.compile(r"\|-\*@\{([|+])\}")


def parse_arrow_spec(spec: str) -> ArrowStyle:
    """Canonicalize one spec string.

    Raw specs (leading @) pass through the same directional grammar after
    unwrapping, so parse("@{s}") == parse("s") for every supported s.
    Raw layers nest: layer k starts at 2k with "@{".  Once the innermost
    name is looked up, each layer's suffixes apply from the innermost
    layer outward.  Every position in a message counts from the start of
    its own layer.
    """
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
    reverse = name in _REVERSED
    if name in _FORWARD:
        tail, shaft, head = _FORWARD[name]
    elif reverse:
        tail, shaft, head = _REVERSED[name]
    else:
        layer = spec[2 * depth - 2:ends[depth - 1]] if depth else spec
        raise _unsupported(layer, 2 if depth else 0)
    mid, offset = "none", 0.0
    for k in range(depth - 1, -1, -1):
        start, end = 2 * k, ends[k]
        pos = ends[k + 1] + 1
        while pos < end:
            match = _TICK_RE.match(spec, pos, end)
            if match:
                mid = "tick" if match.group(1) == "|" else "cross"
            else:
                match = _OFFSET_RE.match(spec, pos, end)
                if not match:
                    raise _unsupported(spec[start:end], pos - start)
                offset = float(match.group(1))
            pos = match.end()
    return ArrowStyle(tail, shaft, head, mid, offset, reverse)


def _unsupported(spec: str, pos: int) -> DiagnosticError:
    return DiagnosticError(
        UNSUPPORTED_ARROW_SPEC,
        f"unsupported arrow spec {spec!r} at position {pos}")
