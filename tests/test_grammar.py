"""Grammar-aware sources: every one compiles or fails with a diagnostic.

Sources are built from the parser's keyword registry: each keyword with
a random subset of its optional groups, in order.  Integers include
literals past the digit bound, zero spans and negative values; arrow
specs come from the spec tables, wrapped in raw layers with tick and
offset suffixes; texts carry braces, escapes and non-ASCII characters.
The only allowed outcomes are a ``DiagnosticError``, or outputs with no
NaN or infinity: an SVG whose tags hold finite numbers only, and a scene
file that strict JSON accepts.  The same holds under any render settings
within their bounds.
"""

import json
import re

from hypothesis import given, settings, strategies as st

from diagramc import (arrows, compile_source, dump_scene, lowering, parser,
                      render)
from diagramc.errors import DiagnosticError
from diagramc.model import MAX_SETTING, MIN_SETTING, RenderConfig


# the one kind of value that may go to extremes in an example, if any:
# an extreme value of one kind then meets well-formed values of the rest
EXTREME = st.shared(st.sampled_from([None, 'ints', 'offsets', 'texts']),
                    key='extreme')


def sometimes(kind, usual, extreme):
    """``usual`` values, mixed with ``extreme`` ones in examples whose
    extreme kind is ``kind``."""
    return EXTREME.flatmap(
        lambda chosen: st.one_of(usual, extreme) if chosen == kind else usual)


INTS = sometimes(
    'ints',
    st.one_of(st.integers(-1500, 1500), st.sampled_from([0, 500, -500])),
    st.one_of(st.integers(10 ** 9, 10 ** 12),
              st.integers(-10 ** 12, -10 ** 9)),
).map(str)

# offset values: in range, at the bound, past it, and non-ASCII digits
OFFSETS = sometimes(
    'offsets',
    st.from_regex(r'-?[0-9]{1,3}(\.[0-9]{1,2})?', fullmatch=True),
    st.one_of(st.sampled_from(['9' * 400, '-' + '9' * 400]),
              st.sampled_from(['1' + '0' * 12, '999999999.999999999',
                               '0.' + '9' * 10, '\u0663', '1\u0663',
                               '\u00b2'])),
)
SUFFIXES = st.one_of(st.sampled_from(['|-*@{|}', '|-*@{+}']),
                     OFFSETS.map(lambda value: '@<%spt>' % value))
# the forward names sorted, then the reversed ones
NAMES = sorted(arrows._NAMES, key=lambda n: (arrows._NAMES[n][3], n))

# control characters are a located ParseError, tested on their own
TEXTS = sometimes(
    'texts',
    st.sampled_from(['A', 'B', 'f', '', 'XXXXXXXX', '\\alpha', '\\{', '\\%',
                     '{x}', '{a`b}', '{[;]}', '\u00e9', '\u03b1', '\u4e2d',
                     '\U0001f600', 'inf', 'nan', 'x y']),
    st.one_of(st.sampled_from(['{', '}']), st.text(
        st.characters(blacklist_categories=('Cc', 'Cs')), max_size=4)),
)
PLACEMENTS = st.sampled_from('lrabmx')
DIRECTIONS = st.sampled_from(sorted(arrows.COMPASS) + ['x'])
NODE_NAMES = st.sampled_from(['p', 'q', 'r'])


@st.composite
def specs(draw):
    spec = draw(st.sampled_from(NAMES))
    for _ in range(draw(st.integers(0, 3))):
        spec = '@{%s}%s' % (spec, ''.join(draw(st.lists(SUFFIXES,
                                                          max_size=2))))
    return spec


@st.composite
def shape_args(draw, plan, origin=True):
    slots = len(plan.placements)
    parts = []
    if origin and draw(st.booleans()):
        parts.append('(%s,%s)' % (draw(INTS), draw(INTS)))
    if draw(st.booleans()):
        parts.append('|%s|' % ''.join(draw(st.lists(
            PLACEMENTS, min_size=slots, max_size=slots))))
    if draw(st.booleans()):
        parts.append('/%s/' % '`'.join(draw(specs()) for _ in range(slots)))
    if draw(st.booleans()):
        parts.append('<%s>' % ','.join(draw(INTS) for _ in plan.spans))
    if plan.border and draw(st.booleans()):
        mask = draw(st.one_of(st.integers(0, 4095).map(str),
                              st.sampled_from(['1234567890', '\u00b2'])))
        parts.append('{%s}' % mask if draw(st.booleans()) else mask)
        if draw(st.booleans()):
            parts.append('<%s>' % ','.join(draw(INTS) for _ in plan.border))
    parts.append('[%s;%s]' % (
        '`'.join(draw(TEXTS) for _ in range(plan.n_nodes)),
        '`'.join(draw(TEXTS) for _ in range(slots))))
    return ''.join(parts)


def optional(draw, text):
    return text if draw(st.booleans()) else ''


@st.composite
def statements(draw, keywords):
    keyword = draw(st.sampled_from(keywords))
    how = parser._KEYWORDS[keyword]
    head = '\\' + keyword
    point = '(%s,%s)' % (draw(INTS), draw(INTS))
    if isinstance(how, parser._Plan):
        return head + draw(shape_args(how))
    if how is parser._Parser._vect:
        return head + '%s/%s/<%s,%s>' % (point, draw(specs()), draw(INTS),
                                         draw(INTS))
    if how is parser._Parser._pullback:
        return head + draw(shape_args(parser._SQUARE_PLAN)) + draw(
            shape_args(parser._TRIDENT_PLAN, origin=False))
    if how is parser._Parser._cube:
        # outer and inner square: the same groups, other defaults
        args = draw(shape_args(parser._SQUARE_PLAN))
        args += draw(shape_args(parser._SQUARE_PLAN))
        args += optional(draw, '|mmmm|')
        args += optional(draw, '/%s/' % '`'.join(draw(specs())
                                                 for _ in range(4)))
        return head + args + '[%s]' % '`'.join(draw(TEXTS) for _ in range(4))
    if how is parser._Parser._place:
        anchor = optional(draw, '[%s]' % draw(st.sampled_from(
            ['', 'l', 'rd', 'ul', 'x'])))
        return head + '%s%s[%s]' % (anchor, point, draw(TEXTS))
    if how is parser._Parser._node:
        return head + '{%s}%s[%s]' % (draw(NODE_NAMES), point, draw(TEXTS))
    if how is parser._Parser._arrow:
        return head + '%s%s[%s`%s;%s]' % (
            optional(draw, '|%s|' % draw(PLACEMENTS)),
            optional(draw, '/%s/' % draw(specs())),
            draw(NODE_NAMES), draw(NODE_NAMES), draw(TEXTS))
    if how is parser._Parser._loop:
        return head + '%s{%s}(%s,%s)' % (
            point if keyword == 'Loop' else '', draw(TEXTS),
            draw(DIRECTIONS), draw(DIRECTIONS))
    if how is parser._Parser._twoar:
        return head + '(%d,%d)' % (draw(st.integers(-6, 6)),
                                   draw(st.integers(-6, 6)))
    if how is parser._Parser._inline:
        count = parser._INLINE_SPECS.get(keyword)
        args = optional(draw, '/%s/' % '`'.join(
            draw(specs()) for _ in range(count))) if count else ''
        args += optional(draw, '<%s>' % draw(INTS))
        args += optional(draw, '^{%s}' % draw(TEXTS))
        if keyword == 'three':
            args += optional(draw, '|{%s}' % draw(TEXTS))
        args += optional(draw, '_{%s}' % draw(TEXTS))
        return head + args
    return head


# keywords with a walk or a handler live in figures; the rest but the
# figure bounds are running text
_FIGURE_ONLY = sorted({*lowering._WALKS, *lowering.Lowerer._HANDLERS})
_RUNNING_TEXT = sorted(set(parser._KEYWORDS) - set(_FIGURE_ONLY)
                       - {'bfig', 'efig'})

FIGURES = st.lists(statements(_FIGURE_ONLY), max_size=4).map(
    lambda body: '\\bfig\n%s\n\\efig' % '\n'.join(body))
SOURCES = st.lists(
    st.one_of(FIGURES, statements(_RUNNING_TEXT),
              statements(sorted(parser._KEYWORDS))),
    min_size=1, max_size=3).map('\n'.join)

_TAG = re.compile(r'<[^<>]*>')   # text content has its '<' and '>' escaped
_NOT_FINITE = re.compile(r'\b(?:nan|inf)\b', re.IGNORECASE)


def _reject(constant):
    raise ValueError('%s is not JSON' % constant)


def compiles_or_fails_with_a_diagnostic(source, cfg=None):
    try:
        outputs = [(render(unit, None, cfg), dump_scene(unit))
                   for unit in compile_source(source, 'fuzz.dxy', None, cfg)]
    except DiagnosticError:
        return
    for svg, scene in outputs:
        assert not _NOT_FINITE.search(''.join(_TAG.findall(svg))), svg
        json.loads(scene, parse_constant=_reject)


@settings(max_examples=300, deadline=None)
@given(SOURCES)
def test_a_source_compiles_or_fails_with_a_diagnostic(source):
    compiles_or_fails_with_a_diagnostic(source)


# every setting RenderConfig takes, its bounds among them
SIZES = st.one_of(st.floats(MIN_SETTING, MAX_SETTING),
                  st.sampled_from([MIN_SETTING, 1.0, MAX_SETTING]))
MARGINS = st.one_of(st.floats(0.0, MAX_SETTING),
                    st.sampled_from([0.0, MAX_SETTING]))


@settings(max_examples=300, deadline=None)
@given(SOURCES, SIZES, MARGINS, SIZES)
def test_any_settings_compile_or_fail_with_a_diagnostic(source, em_pt, margin,
                                                        label_scale):
    compiles_or_fails_with_a_diagnostic(
        source, RenderConfig(em_pt, margin, label_scale))
