"""Reader for the diagram constructor language.

The surface syntax is a family of backslash keywords, each followed by a
fixed sequence of argument groups.  Most groups are optional and have
documented defaults:

    \\square(0,0)|alrb|/>`>`>`>/<500,500>[A`B`C`D;f`g`h`k]

A group is delimited by the characters it is written in: ``(...)`` for
coordinates, ``|...|`` for label placements, ``/.../`` for arrow specs,
``<...>`` for spans, ``[...]`` for node and label text.  Inside a group,
braces nest and protect delimiter characters, a backslash makes the next
character literal, ``%`` starts a comment running to the end of the
line, and a line break reads as a single space.  Optional groups may be
omitted individually, but the ones that do appear must keep the order
above.

:func:`parse_document` turns source text into :class:`Statement` records
with every default filled in, each named by its keyword.  ``_KEYWORDS``
registers every keyword once, with the argument plan of a shape or the
reader of its groups.  Field text is stored verbatim; one level
of braces is stripped by :func:`strip_group` at the point of use, which
is how the arguments behave when handed down a macro chain.

Scanning goes from one delimiter to the next, never a character at a
time.  The scanner keeps its offset, the last group opener's offset and
where each line starts.  There are two ways to read groups, the first
falling through to the second.  A shape statement whose groups follow
one another with nothing between them takes the statement route when its
specs and payload are flat and its other groups plain text: one pattern
match reads all its groups, a flat group ending at its first closer, and
their texts go through the same splits and checks as below.  A flat
group holds no line break, comment or nested brace, closes each brace
and takes each escape whole.  Any other statement, and every error,
falls through to the group reader, which reads each group on its own: it
searches with one compiled pattern for the next escape, comment, line
break, brace or closer and takes the plain text in between as one slice.
Line and column are worked out from the line starts, and only when a
location is asked for.  Fields split where the braces before a separator
balance, counted over whole pieces of the group; escapes are blanked
first only when a backslash stands right before a brace or the
separator.  An integer literal has at most :data:`MAX_DIGITS` digits,
and a grid mask only ASCII ones.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from codecs import BOM_UTF8
from collections.abc import Callable

from .errors import (ARITY_ERROR, PARSE_ERROR, UNBALANCED_GROUP,
                     UNKNOWN_CONSTRUCTOR, DiagnosticError, SourceLoc)
from .model import MAX_DIGITS, ORIGIN, LogicalPoint, Record

__all__ = ['Statement', 'decode_source', 'matching_brace', 'parse_document',
           'strip_group', 'split_fields']


class Statement(Record):
    """One parsed constructor with all defaults filled in.

    ``constructor`` is the surface keyword the statement was written
    with, such as ``'ptriangle'``.  The parts of a compound statement
    carry keywords too: a pullback's and a cube's inner square are
    ``'square'``, and the pullback's trident and the cube's connector
    take their owner's keyword.  Text fields (specs, node text, labels,
    names) are verbatim source slices; coordinates and spans are
    integers in logical units.  Which fields are meaningful depends on
    ``constructor``; unused ones keep their empty defaults.  ``loc``
    points at the keyword and is ignored by equality, so the same
    statement written in two places compares equal.
    """

    _values = ('constructor', 'origin', 'placements', 'specs', 'spans',
               'nodes', 'labels', 'mask', 'border', 'inner', 'trident',
               'connector', 'name', 'anchor', 'loop_out', 'loop_in',
               'length', 'sup', 'sub', 'mid')
    __slots__ = _values + ('loc',)
    _defaults = dict(origin=ORIGIN, placements='', specs=(), spans=(),
                     nodes=(), labels=(), mask=0, border=(), inner=None,
                     trident=None, connector=None, name='', anchor='center',
                     loop_out='', loop_in='', length=0, sup='', sub='',
                     mid='', loc=None)


def matching_brace(text: str, i: int, depth: int = 0) -> int:
    """Index of the brace closing the one at ``text[i]``, or -1.

    With ``depth`` groups already open, scanning from ``i`` finds the
    brace that closes the outermost of them.  Braces nest, and a
    backslash makes the next character literal.  Every reader asks here
    which ``}`` closes a ``{``, :func:`strip_group` and the spec layers too.
    """
    if not depth and text[i:i + 1] == '{':
        # with no '{' before the first '}' and no backslash right before
        # it, that '}' closes this one
        close = text.find('}', i)
        if close < 0 or (text[close - 1] != '\\'
                         and '{' not in text[i + 1:close]):
            return close
    for stop in _BRACE_STOPS.finditer(text, i):
        ch = stop.group()
        if ch == '{':
            depth += 1
        elif ch == '}':
            depth -= 1
            if depth == 0:
                return stop.start()
    return -1


def strip_group(text: str) -> str:
    """Remove one level of braces iff the text is exactly one group,
    its closer found by :func:`matching_brace`."""
    if text[:1] == '{' and matching_brace(text, 0) == len(text) - 1:
        return text[1:-1]
    return text


def split_fields(text: str, sep: str) -> list[str]:
    """Split on ``sep`` at brace depth zero, honoring backslash escapes."""
    # only an escaped brace or separator moves a brace count or a split
    # point; with none, the escapes need no blanking
    if '\\' in text and ('\\{' in text or '\\}' in text
                         or '\\' + sep in text):
        return _split_general(text, sep)
    if '{' not in text and '}' not in text:
        return text.split(sep)
    return _split_balanced(text, text, sep)


def _split_general(text: str, sep: str) -> list[str]:
    """:func:`split_fields` for any text."""
    # blank out each escape, keeping offsets: a separator left then
    # splits where the braces before it balance
    return _split_balanced(text, _ESCAPE_RE.sub('\0\0', text), sep)


def _split_balanced(text: str, plain: str, sep: str) -> list[str]:
    """``text`` split where ``plain``, its escapes blanked, has a ``sep``
    with the braces before it balanced."""
    fields: list[str] = []
    start = end = depth = 0
    for piece in plain.split(sep):
        depth += piece.count('{') - piece.count('}')
        end += len(piece) + 1
        if not depth:
            fields.append(text[start:end - 1])
            start = end
    if depth:
        fields.append(text[start:])
    return fields


# An escape: a backslash and the character it protects
_ESCAPE_RE = re.compile(r'\\.', re.DOTALL)
# The next brace, escapes skipped whole
_BRACE_STOPS = re.compile(r'\\.|[{}]', re.DOTALL)
# What a group's scan stops at: an escape, a comment with its line
# break and the next line's indent, a line break with that indent, a
# brace, or a closer.  One pattern serves every closer (compiling one
# per closer costs set-up time); a closer not the group's own is text.
_GROUP_STOPS = re.compile(r'\\.?|%[^\n]*\n?[ \t]*|\n[ \t]*|[{})|/>\]]',
                          re.DOTALL)
# A flat group's text, which the statement route reads without a scan:
# no line break, comment or nested brace, each escape taken whole and
# each brace closed.  Plain text holds none of _NOT_PLAIN.
_NOT_PLAIN = r'\\{}%\n'
_PLAIN = r'[^%s]*' % _NOT_PLAIN
_FLAT_GROUP_RE = re.compile(
    r'{0}(?:(?:\\[^\n]|\{{{0}(?:\\[^\n]{0})*\}}){0})*'.format(_PLAIN))
# A shape statement whose groups follow one another with nothing between
# them: origin, placements, specs, spans, a grid's mask (braced or bare)
# and border, and the payload.  Specs and payload run to their first
# closer, where a flat group ends, and are checked flat after the match;
# the other groups hold plain text only.  No quantifier nests, so
# a failed match costs one pass over each group.
_SHAPE_RE = re.compile(
    r'(?:\(([^%(p)s)]*)\))?(?:\|([^%(p)s|]*)\|)?(?:/([^/]*)/)?'
    r'(?:<([^%(p)s>]*)>)?(?:(?:\{([0-9]+)\}|([0-9]+))(?:<([^%(p)s>]*)>)?)?'
    r'\[([^\]]*)\]' % {'p': _NOT_PLAIN})
# Blanks and comments between groups and statements
_BLANK_RE = re.compile(r'(?:[ \t\n]+|%[^\n]*)*')
_INT_RE = re.compile(r'[+-]?[0-9]+\Z')
# The ASCII letters of a keyword or control word, read in one match
_LETTERS_RE = re.compile('[A-Za-z]*')
# What XML 1.0 forbids: C0 controls other than tab, line feed and carriage
# return, the surrogates, U+FFFE and U+FFFF
_CONTROL_RE = re.compile(
    r'[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]')


def _one_break(text: str) -> str:
    """``text`` with each ``\\r\\n`` and ``\\r`` read as one ``\\n``."""
    return text.replace('\r\n', '\n').replace('\r', '\n')


class _Scanner:
    """Offset cursor with group scanning.

    Every group is read by the one group reader, :meth:`_group`, unless
    the statement route has read its whole statement already.  Only the
    offset moves as text is read, and ``opened`` keeps the offset of the
    last group's opener, where errors about its contents point.  The
    offsets at which lines start are listed once per source, and a
    location asked for is found by bisecting that list, for the offset
    now or any other.
    """

    def __init__(self, text: str, filename: str):
        self.text = _one_break(text)
        self.filename = filename
        self.pos = self.opened = 0
        self._starts = [0] + [m.end() for m in re.finditer('\n', self.text)]
        # no emitter can write these: XML 1.0 forbids them outright
        bad = _CONTROL_RE.search(self.text)
        if bad:
            raise DiagnosticError(
                PARSE_ERROR,
                'control character U+%04X is not allowed in source text'
                % ord(bad.group()), self.loc(bad.start()))

    def loc(self, at: int | None = None) -> SourceLoc:
        """Location of offset ``at``, by default the current one."""
        pos = self.pos if at is None else at
        line = bisect_right(self._starts, pos)
        return SourceLoc(self.filename, line, pos - self._starts[line - 1] + 1)

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def take_while(self, test: Callable[[str], bool]) -> str:
        """The run of characters from here on that pass ``test``."""
        text, start = self.text, self.pos
        end, n = start, len(text)
        while end < n and test(text[end]):
            end += 1
        self.pos = end
        return text[start:end]

    def take_letters(self) -> str:
        """The run of letters from here on.  A letter past ASCII steps
        through the whole run again, so a message quotes it whole."""
        text, start = self.text, self.pos
        end = _LETTERS_RE.match(text, start).end()
        if text[end:end + 1].isalpha():
            return self.take_while(str.isalpha)
        self.pos = end
        return text[start:end]

    def skip_blank(self) -> None:
        self.pos = _BLANK_RE.match(self.text, self.pos).end()

    def _group(self, opened: int, closer: str, what: str) -> str:
        """The text of the group opened at offset ``opened``.

        This is the one group reader: it scans any group stop by stop,
        and reads each group the statement route leaves to it.
        """
        self.opened = opened
        text = self.text
        search = _GROUP_STOPS.search
        parts: list[str] = []
        depth = 0
        start = pos = self.pos
        while True:
            stop = search(text, pos)
            if stop is None:
                raise DiagnosticError(
                    UNBALANCED_GROUP,
                    "missing '%s' closing the %s" % (closer, what),
                    self.loc(opened))
            i, pos = stop.span()
            ch = text[i]
            if depth == 0 and ch == closer:
                self.pos = pos
                if parts:   # a line break or a comment cut the text
                    parts.append(text[start:i])
                    return ''.join(parts)
                return text[start:i]
            if ch == '{':
                depth += 1
            elif ch == '}':
                if depth == 0:
                    raise DiagnosticError(
                        UNBALANCED_GROUP,
                        "unexpected '}' inside %s" % what, self.loc(i))
                depth -= 1
            elif ch == '\n':
                parts.append(text[start:i])
                parts.append(' ')
                start = pos
            elif ch == '%':
                parts.append(text[start:i])
                start = pos

    def opt_group(self, opener: str, closer: str, what: str) -> str | None:
        text = self.text
        self.pos = at = _BLANK_RE.match(text, self.pos).end()
        if text[at:at + 1] != opener:
            return None
        self.pos = at + 1
        return self._group(at, closer, what)

    def need_group(self, opener: str, closer: str, what: str) -> str:
        raw = self.opt_group(opener, closer, what)
        if raw is None:
            raise DiagnosticError(
                PARSE_ERROR,
                "expected '%s' opening the %s" % (opener, what), self.loc())
        return raw

    def take_token(self, what: str) -> str:
        """One undelimited argument: a group, a control word, or a char."""
        self.skip_blank()
        ch = self.peek()
        if not ch:
            raise DiagnosticError(
                PARSE_ERROR, 'expected %s, found end of input' % what,
                self.loc())
        if ch == '{':
            self.pos += 1
            return self._group(self.pos - 1, '}', what)
        if ch == '}':
            raise DiagnosticError(
                PARSE_ERROR, "expected %s, found '}'" % what, self.loc())
        start = self.pos
        self.pos += 1
        if ch == '\\':
            if not self.peek():
                raise DiagnosticError(
                    PARSE_ERROR, 'expected %s after backslash' % what,
                    self.loc())
            if self.take().isalpha():
                self.take_letters()
        return self.text[start:self.pos]


class _Plan(Record):
    """Argument plan of a shape: one default placement letter per slot.

    Each slot also takes one arrow spec and one label.  A grid's plan
    has a default ``border`` reach, and its mask group is read between
    the spans and the payload.
    """

    __slots__ = _values = ('placements', 'spans', 'n_nodes', 'border')
    _defaults = dict(border=())


_SQUARE_PLAN = _Plan('alrb', (500, 500), 4)
_TRIDENT_PLAN = _Plan('amb', (500, 500), 1)
_CUBE_PLAN = _Plan('alrb', (1500, 1500), 4)

_INLINE_SPECS = {'to': 1, 'two': 2, 'three': 3}
_INLINE_PRESETS = {
    'mon': (' >->',),
    'epi': ('->>',),
    'toleft': ('<-',),
    'monleft': ('<-< ',),
    'epileft': ('<<-',),
}

class _Parser:
    def __init__(self, text: str, filename: str):
        self.scan = _Scanner(text, filename)

    def parse(self) -> list[Statement]:
        statements = []
        while True:
            self.scan.skip_blank()
            if not self.scan.peek():
                return statements
            statements.append(self._statement())

    def _statement(self) -> Statement:
        loc = self.scan.loc()
        if self.scan.peek() != '\\':
            raise DiagnosticError(
                PARSE_ERROR,
                'unexpected character %r; statements start with a '
                'backslash keyword' % self.scan.peek(), loc)
        self.scan.take()
        keyword = self.scan.take_letters()
        if not keyword:
            raise DiagnosticError(
                UNKNOWN_CONSTRUCTOR,
                "control symbol '\\%s' is not a constructor"
                % self.scan.peek(), loc)
        how = _KEYWORDS.get(keyword)
        if how is None:
            raise DiagnosticError(
                UNKNOWN_CONSTRUCTOR,
                '\\%s is not a diagram constructor' % keyword, loc, keyword)
        try:
            if isinstance(how, _Plan):
                return self._shape(keyword, how, loc)
            return how(self, keyword, loc)
        except DiagnosticError as err:
            raise err.with_context(loc, keyword) from None

    # ---- shared argument groups -------------------------------------

    # A check keeps the offset it would report, and makes the location
    # only when it fails: most checks pass, and a location costs a bisect
    # and a SourceLoc.

    def _fields(self, raw: str, sep: str, count: int, what: str) -> list[str]:
        """``raw``, the last group read, split on ``sep``; anything but
        ``count`` fields is an error at the group's opener."""
        parts = split_fields(raw, sep)
        if len(parts) != count:
            raise DiagnosticError(
                ARITY_ERROR,
                'expected %d %s, got %d' % (count, what, len(parts)),
                self.scan.loc(self.scan.opened))
        return parts

    def _check_digits(self, digits: str, what: str, at: int) -> None:
        if len(digits) > MAX_DIGITS:
            raise DiagnosticError(
                PARSE_ERROR, '%s has %d digits; at most %d are allowed'
                % (what, len(digits), MAX_DIGITS), self.scan.loc(at))

    def _two(self, raw: str, what: str) -> tuple[str, str]:
        parts = split_fields(raw, ',')
        if len(parts) != 2:
            raise DiagnosticError(
                ARITY_ERROR, '%s needs 2 components, got %d'
                % (what, len(parts)), self.scan.loc(self.scan.opened))
        return parts[0], parts[1]

    def _pair(self, what: str = 'coordinate pair') -> tuple[int, int]:
        return self._int_pair(self.scan.need_group('(', ')', what), what)

    def _int_pair(self, raw: str, what: str) -> tuple[int, int]:
        first, second = self._two(raw, what)
        return self._int(first, what), self._int(second, what)

    def _opt_origin(self, default: tuple[int, int]) -> LogicalPoint:
        self.scan.skip_blank()
        if self.scan.peek() != '(':
            return LogicalPoint(*default)
        return LogicalPoint(*self._pair())

    # Each optional group has a reader and a function of its text, None
    # when the group is absent; the statement route calls the latter.

    def _opt_placements(self, default: str) -> str:
        return self._placements(
            self.scan.opt_group('|', '|', 'placement list'), default)

    def _placements(self, raw: str | None, default: str) -> str:
        if raw is None:
            return default
        letters = ''.join(raw.split())
        if len(letters) != len(default):
            raise DiagnosticError(
                ARITY_ERROR, 'expected %d placement letters, got %d'
                % (len(default), len(letters)),
                self.scan.loc(self.scan.opened))
        return letters

    def _opt_specs(self, count: int) -> tuple[str, ...]:
        return self._specs(self.scan.opt_group('/', '/', 'spec list'), count)

    def _specs(self, raw: str | None, count: int) -> tuple[str, ...]:
        if raw is None:
            return ('>',) * count
        if count == 1:
            return (raw,)
        return tuple(self._fields(raw, '`', count, 'arrow specs'))

    def _opt_spans(self, defaults: tuple[int, ...]) -> tuple[int, ...]:
        return self._spans(self.scan.opt_group('<', '>', 'span list'),
                           defaults)

    def _spans(self, raw: str | None,
               defaults: tuple[int, ...]) -> tuple[int, ...]:
        if raw is None:
            return defaults
        parts = self._fields(raw, ',', len(defaults), 'span entries')
        return tuple(self._int(p, 'span') for p in parts)

    def _payload(self, n_nodes: int, n_labels: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return self._nodes_labels(
            self.scan.need_group('[', ']', 'node and label list'),
            n_nodes, n_labels)

    def _nodes_labels(self, raw: str, n_nodes: int, n_labels: int
                      ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        # labels run from the first ';' on, later ones included
        head, *tail = split_fields(raw, ';')
        if not tail:
            raise DiagnosticError(
                PARSE_ERROR, "expected ';' separating nodes from labels",
                self.scan.loc(self.scan.opened))
        nodes = self._fields(head, '`', n_nodes, 'nodes')
        labels = self._fields(';'.join(tail), '`', n_labels, 'labels')
        return tuple(nodes), tuple(labels)

    def _int(self, text: str, what: str) -> int:
        """``text``, a field of the last group read, as an integer."""
        digits = text[1:] if text[:1] == '-' else text
        if len(digits) <= MAX_DIGITS and digits.isascii() and digits.isdigit():
            return int(text)
        cleaned = strip_group(text).strip()
        if not _INT_RE.match(cleaned):
            raise DiagnosticError(
                PARSE_ERROR,
                '%s must be an integer, got %r' % (what, text.strip()),
                self.scan.loc(self.scan.opened))
        self._check_digits(cleaned.lstrip('+-'), what, self.scan.opened)
        return int(cleaned)

    def _opt_prefixed(self, prefix: str, what: str) -> str:
        self.scan.skip_blank()
        if self.scan.peek() != prefix:
            return ''
        self.scan.take()
        return self.scan.take_token(what)

    # ---- constructors ------------------------------------------------

    def _shape(self, keyword: str, plan: _Plan, loc: SourceLoc,
               origin: tuple[int, int] | None = (0, 0)) -> Statement:
        """A shape's groups; with ``origin=None`` there is no origin group."""
        statement = self._flat_shape(keyword, plan, loc, origin)
        if statement is not None:
            return statement
        at = ORIGIN if origin is None else self._opt_origin(origin)
        placements = self._opt_placements(plan.placements)
        specs = self._opt_specs(len(plan.placements))
        spans = self._opt_spans(plan.spans)
        mask, border = self._mask(plan.border) if plan.border else (0, ())
        nodes, labels = self._payload(plan.n_nodes, len(plan.placements))
        return Statement(
            keyword, origin=at, placements=placements,
            specs=specs, spans=spans, mask=mask, border=border, nodes=nodes,
            labels=labels, loc=loc)

    def _flat_shape(self, keyword: str, plan: _Plan, loc: SourceLoc,
                    origin: tuple[int, int] | None) -> Statement | None:
        """:meth:`_shape` by the statement route, or None.

        The route reads with one match a shape whose groups follow one
        another with nothing between them, its specs and payload flat
        and its other groups plain text.  Anything else, every error
        included, is left to the group readers, which read it from the
        same offset.
        """
        scan = self.scan
        match = _SHAPE_RE.match(scan.text, scan.pos)
        if match is None:
            return None
        (at, placements, specs, spans, braced, bare, border,
         payload) = match.groups()
        flat = _FLAT_GROUP_RE.fullmatch
        if specs and flat(specs) is None or flat(payload) is None:
            return None
        mask = braced or bare
        try:
            if at is not None:
                if origin is None:
                    return None
                at = LogicalPoint(*self._int_pair(at, 'coordinate pair'))
            else:
                at = ORIGIN if origin is None else LogicalPoint(*origin)
            if mask is None:
                mask, border = 0, plan.border
            elif plan.border:
                # the route drops its errors, so they need no location
                mask = self._mask_bits(mask, scan.pos)
                border = self._spans(border, plan.border)
            else:
                return None
            n_slots = len(plan.placements)
            nodes, labels = self._nodes_labels(payload, plan.n_nodes, n_slots)
            statement = Statement(
                keyword, origin=at,
                placements=self._placements(placements, plan.placements),
                specs=self._specs(specs, n_slots),
                spans=self._spans(spans, plan.spans), mask=mask,
                border=border, nodes=nodes, labels=labels, loc=loc)
        except DiagnosticError:
            return None
        scan.opened = match.start(8) - 1
        scan.pos = match.end()
        return statement

    def _vect(self, keyword: str, loc: SourceLoc) -> Statement:
        origin = LogicalPoint(*self._pair())
        spec = self.scan.need_group('/', '/', 'arrow spec')
        spans = self._spans(self.scan.need_group('<', '>', 'span pair'),
                            (0, 0))
        return Statement(keyword, origin=origin, specs=(spec,), spans=spans,
                         loc=loc)

    def _pullback(self, keyword: str, loc: SourceLoc) -> Statement:
        square = self._shape('square', _SQUARE_PLAN, loc)
        # the trident continues from the square's far corner and has no
        # origin group of its own
        trident = self._shape(keyword, _TRIDENT_PLAN, loc, origin=None)
        return Statement(keyword, inner=square, trident=trident, loc=loc)

    def _cube(self, keyword: str, loc: SourceLoc) -> Statement:
        outer = self._shape(keyword, _CUBE_PLAN, loc)
        inner = self._shape('square', _SQUARE_PLAN, loc, origin=(500, 500))
        placements = self._opt_placements('mmmm')
        specs = self._opt_specs(4)
        raw = self.scan.need_group('[', ']', 'connector label list')
        labels = self._fields(raw, '`', 4, 'connector labels')
        connector = Statement(keyword, placements=placements, specs=specs,
                              labels=tuple(labels), loc=loc)
        return Statement(keyword, outer.origin, outer.placements,
                         outer.specs, outer.spans, outer.nodes, outer.labels,
                         inner=inner, connector=connector, loc=loc)

    def _mask(self, default_border: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        self.scan.skip_blank()
        ch = self.scan.peek()
        if ch == '[' or not ch:
            return 0, default_border
        at = self.scan.pos
        if ch == '{':
            digits = self.scan.opt_group('{', '}', 'grid mask')
            digits = ''.join(digits.split())
        elif ch.isdigit():
            digits = self.scan.take_while(str.isdigit)
        else:
            raise DiagnosticError(
                PARSE_ERROR,
                "expected a grid mask or '[' before %r" % ch, self.scan.loc())
        return self._mask_bits(digits, at), self._opt_spans(default_border)

    def _mask_bits(self, digits: str, at: int) -> int:
        """A grid mask's digits, the mask written at offset ``at``."""
        # str.isdigit alone also passes digits such as U+00B2
        if not (digits.isascii() and digits.isdigit()):
            raise DiagnosticError(
                PARSE_ERROR, 'grid mask must be a decimal number',
                self.scan.loc(at))
        self._check_digits(digits, 'grid mask', at)
        return int(digits)

    def _place(self, keyword: str, loc: SourceLoc) -> Statement:
        anchor_raw = self.scan.opt_group('[', ']', 'anchor')
        anchor = 'center' if anchor_raw is None else self._anchor(anchor_raw)
        origin = LogicalPoint(*self._pair())
        text = self.scan.need_group('[', ']', 'node text')
        return Statement(keyword, origin=origin, nodes=(text,),
                         anchor=anchor, loc=loc)

    def _anchor(self, raw: str) -> str:
        letters = ''.join(raw.split())
        # at most one of l and r, one of u and d, and nothing else; the
        # canonical order puts the horizontal letter first
        horizontal = ''.join(c for c in letters if c in 'lr')
        vertical = ''.join(c for c in letters if c in 'ud')
        if (len(horizontal) <= 1 and len(vertical) <= 1
                and len(horizontal) + len(vertical) == len(letters)):
            return horizontal + vertical or 'center'
        raise DiagnosticError(PARSE_ERROR, 'bad anchor %r' % raw,
                              self.scan.loc(self.scan.opened))

    def _node(self, keyword: str, loc: SourceLoc) -> Statement:
        name = self.scan.take_token('node name')
        origin = LogicalPoint(*self._pair())
        text = self.scan.need_group('[', ']', 'node text')
        return Statement(keyword, name=name, origin=origin, nodes=(text,),
                         loc=loc)

    def _arrow(self, keyword: str, loc: SourceLoc) -> Statement:
        placements = self._opt_placements('a')
        specs = self._opt_specs(1)
        nodes, labels = self._payload(2, 1)
        return Statement(keyword, placements=placements, specs=specs,
                         nodes=nodes, labels=labels, loc=loc)

    def _loop(self, keyword: str, loc: SourceLoc) -> Statement:
        origin = LogicalPoint(*self._pair()) if keyword == 'Loop' else ORIGIN
        text = self.scan.take_token('loop text')
        what = 'direction pair'
        out_dir, in_dir = self._two(self.scan.need_group('(', ')', what), what)
        return Statement(keyword, origin=origin, nodes=(text,),
                         loop_out=out_dir.strip(), loop_in=in_dir.strip(),
                         loc=loc)

    def _inline(self, keyword: str, loc: SourceLoc) -> Statement:
        if keyword in _INLINE_PRESETS:
            specs = _INLINE_PRESETS[keyword]
        else:
            specs = self._opt_specs(_INLINE_SPECS[keyword])
        length = self._opt_spans((0,))[0]
        sup = self._opt_prefixed('^', 'superscript label')
        mid = (self._opt_prefixed('|', 'middle label') if keyword == 'three'
               else '')
        sub = self._opt_prefixed('_', 'subscript label')
        return Statement(keyword, specs=specs, length=length, sup=sup, mid=mid,
                         sub=sub, loc=loc)

    def _twoar(self, keyword: str, loc: SourceLoc) -> Statement:
        spans = self._pair('direction pair')
        return Statement(keyword, spans=spans, loc=loc)

    def _bare(self, keyword: str, loc: SourceLoc) -> Statement:
        return Statement(keyword, loc=loc)


# Every surface keyword: the argument plan of a shape, or the reader of
# its groups.
_KEYWORDS = {
    'morphism': _Plan('a', (500, 0), 2),
    'square': _SQUARE_PLAN,
    'Square': _Plan('alrb', (500,), 4),
    'Diamond': _Plan('lrlr', (400, 400), 4),
    'ptriangle': _Plan('alr', (500, 500), 3),
    'qtriangle': _Plan('alr', (500, 500), 3),
    'dtriangle': _Plan('lrb', (500, 500), 3),
    'btriangle': _Plan('lrb', (500, 500), 3),
    'Atriangle': _Plan('lrb', (500, 500), 3),
    'Vtriangle': _Plan('alb', (500, 500), 3),
    'Ctriangle': _Plan('arb', (500, 500), 3),
    'Dtriangle': _Plan('lab', (500, 500), 3),
    'Atrianglepair': _Plan('lmrbb', (500, 500), 4),
    'Vtrianglepair': _Plan('aalmr', (500, 500), 4),
    'Ctrianglepair': _Plan('lrmlr', (500, 500), 4),
    'Dtrianglepair': _Plan('lrmlr', (500, 500), 4),
    'hsquares': _Plan('aalmrbb', (500, 500, 500), 6),
    'hSquares': _Plan('aalmrbb', (500,), 6),
    'vsquares': _Plan('aalmrbb', (500, 500, 500), 6),
    'vSquares': _Plan('alrmlrb', (500, 500), 6),
    'iiixiii': _Plan('aalmrmmlmrbb', (500, 500), 9, border=(400, 400)),
    'iiixii': _Plan('aalmrbb', (500, 500), 6, border=(400,)),
    'vect': _Parser._vect,
    'pullback': _Parser._pullback,
    'cube': _Parser._cube,
    'place': _Parser._place,
    'node': _Parser._node,
    'arrow': _Parser._arrow,
    'Loop': _Parser._loop,
    'iloop': _Parser._loop,
    'twoar': _Parser._twoar,
    'rlimto': _Parser._bare,
    'llimto': _Parser._bare,
    'bfig': _Parser._bare,
    'efig': _Parser._bare,
    **{kw: _Parser._inline for kw in (*_INLINE_SPECS, *_INLINE_PRESETS)},
}


def decode_source(data: bytes, filename: str) -> str:
    """The text of a source file's bytes, which must be UTF-8.

    One leading byte order mark is skipped.  A byte that breaks UTF-8 is
    a ``ParseError``, located as the scanner would locate a character at
    its offset.
    """
    data = data.removeprefix(BOM_UTF8)
    try:
        return data.decode('utf-8')
    except UnicodeDecodeError as exc:
        before = _one_break(data[:exc.start].decode('utf-8'))
        raise DiagnosticError(
            PARSE_ERROR, 'byte 0x%02X is not valid UTF-8' % data[exc.start],
            SourceLoc(filename, before.count('\n') + 1,
                      len(before) - before.rfind('\n'))) from None


def parse_document(text: str, filename: str = '<input>') -> list[Statement]:
    """Parse source text into a list of statements."""
    return _Parser(text, filename).parse()
