"""Glyph advance tables and the integer width arithmetic built on them.

Widths are kept in integer milli-em so the truncating division chains below
stay exact; IEEE floor-after-float-division gets 100/2/0.1 wrong.
"""
from __future__ import annotations

import re
from codecs import BOM_UTF8
from itertools import repeat
from types import MappingProxyType

from .model import DEFAULT_MARGIN, MAX_DIGITS, Record, RenderConfig

DEFAULT_ADVANCE = 500      # milli-em, every printable ASCII glyph
DEFAULT_ASCENT = 700
DEFAULT_DESCENT = 300

# One logical unit is 0.01 em == 10 milli-em.
_UNIT_MILLI_EM = 10

# A token is a control word, a control symbol, or a single character.
_TOKEN_RE = re.compile(r"\\[A-Za-z]+|\\.|.", re.DOTALL)

# A codepoint key of a metrics table: U+ and hex digits, or decimal digits.
_CODEPOINT_RE = re.compile(r"[Uu]\+([0-9A-Fa-f]+)|([0-9]+)")

# Escaped specials measure like ordinary glyphs; no warning for these.
_ESCAPED_SPECIALS = ("\\%", "\\&", "\\#", "\\_", "\\$", "\\{", "\\}")


def _builtin_advances() -> dict[str, int]:
    table = {chr(c): DEFAULT_ADVANCE for c in range(0x20, 0x7F)}
    for seq in _ESCAPED_SPECIALS:
        table[seq] = DEFAULT_ADVANCE
    return table


class MetricsTable(Record):
    """Immutable advance table; safe for concurrent reads.  ``ascent`` and
    ``descent`` are milli-em above and below the baseline."""

    __slots__ = _values = ('advances', 'fallback', 'ascent', 'descent')

    def __init__(self, advances: dict[str, int] | None = None,
                 fallback: int = DEFAULT_ADVANCE, ascent: int = DEFAULT_ASCENT,
                 descent: int = DEFAULT_DESCENT) -> None:
        table = _builtin_advances() if advances is None else dict(advances)
        self._fill(MappingProxyType(table), fallback, ascent, descent)

    def __reduce__(self) -> tuple:
        # a mappingproxy neither pickles nor copies; its dict does
        return type(self), (dict(self.advances), self.fallback, self.ascent,
                            self.descent)

    @classmethod
    def builtin(cls) -> "MetricsTable":
        """The builtin table, made once at import: no table ever changes."""
        return _BUILTIN

    @classmethod
    def from_file(cls, path: str) -> "MetricsTable":
        """Load `<codepoint-or-char> <advance-milli-em>` lines over the builtin table.

        `fallback`, `ascent` and `descent` lines override the corresponding
        defaults; `#` starts a comment.  Keys may be a literal character, a
        decimal codepoint, U+XXXX, or a control word like \\alpha.  Every
        number is ASCII digits, at most MAX_DIGITS of them, so values are
        never negative; a codepoint is at most U+10FFFF.  One leading byte
        order mark is skipped.  A bad line, or one that is not UTF-8, is
        a ValueError naming the file and line.
        """
        advances = _builtin_advances()
        header = {"fallback": DEFAULT_ADVANCE, "ascent": DEFAULT_ASCENT,
                  "descent": DEFAULT_DESCENT}
        with open(path, "rb") as fh:
            data = fh.read()
        # lines break where text mode would break them: at \n, \r\n and
        # \r, none of which can sit inside a UTF-8 sequence
        lines = data.removeprefix(BOM_UTF8).splitlines()
        for lineno, raw in enumerate(lines, 1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
            line = text.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<key> <advance>'")
            key, value = parts
            if not (value.isascii() and value.isdigit()
                    and len(value) <= MAX_DIGITS):
                raise ValueError(f"{path}:{lineno}: {value!r} is not a "
                                 f"non-negative integer of at most "
                                 f"{MAX_DIGITS} digits")
            if key in header:
                header[key] = int(value)
            else:
                advances[_parse_key(key, path, lineno)] = int(value)
        return cls(advances=advances, **header)

    # -- raw advances -------------------------------------------------------

    def text_advance(self, text: str, scale: float = 1.0) -> int:
        """Sum of advances in milli-em; no kerning, no math spacing."""
        total = sum(map(self.advances.get, _TOKEN_RE.findall(text),
                        repeat(self.fallback)))
        if scale == 1.0:
            return total
        return int(total * scale)

    def unknown_tokens(self, text: str) -> set[str]:
        return {t for t in _TOKEN_RE.findall(text) if t not in self.advances}

    # -- physical and logical widths ---------------------------------------

    def morphism_width(self, node_a: str, node_b: str, label: str, cfg: RenderConfig) -> int:
        """Auto width in logical units for an edge between node_a and node_b.

        Measures node_a ++ label ++ label ++ node_b, halves it, converts to
        units, pads by 350 and clamps at 500.  Divisions truncate in source
        order; done in milli-em where the em factor cancels exactly.
        """
        total = (
            self.text_advance(node_a)
            + 2 * self.text_advance(label, cfg.label_scale)
            + self.text_advance(node_b)
        )
        width = total // 2 // _UNIT_MILLI_EM
        return max(width + 350, 500)

    def inline_length(self, sup: str, sub: str, floor_units: int, cfg: RenderConfig) -> int:
        """Length in logical units of an inline arrow under its two labels."""
        widest = max(self.text_advance(sup, cfg.label_scale),
                     self.text_advance(sub, cfg.label_scale))
        return max(widest // _UNIT_MILLI_EM + DEFAULT_MARGIN, floor_units)


_BUILTIN = MetricsTable()


def _parse_key(key: str, path: str, lineno: int) -> str:
    if len(key) == 1 or key.startswith("\\"):
        return key
    match = _CODEPOINT_RE.fullmatch(key)
    if match is None:
        raise ValueError(f"{path}:{lineno}: bad key {key!r}")
    hex_digits, digits = match.groups()
    number = hex_digits or digits
    if len(number) > MAX_DIGITS:
        raise ValueError(f"{path}:{lineno}: codepoint has {len(number)} "
                         f"digits; at most {MAX_DIGITS} are allowed")
    code = int(number, 16 if hex_digits else 10)
    if code > 0x10FFFF:
        raise ValueError(f"{path}:{lineno}: codepoint {key!r} is beyond "
                         "U+10FFFF")
    return chr(code)
