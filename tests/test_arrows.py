import math

import pytest

from diagramc.arrows import COMPASS, parse_arrow_spec, resolve_compass
from diagramc.errors import DiagnosticError
from diagramc.model import ArrowStyle

# (spec, tail, shaft, head, reversed)
DIRECTIONALS = [
    ('', 'none', 'invisible', 'none', False),
    ('-', 'none', 'solid', 'none', False),
    ('>', 'none', 'solid', 'normal', False),
    ('->', 'none', 'solid', 'normal', False),
    ('->>', 'none', 'solid', 'double_head', False),
    (' >->', 'mono', 'solid', 'normal', False),
    (' (->', 'hook_up', 'solid', 'normal', False),
    ('^{ (}->', 'hook_up', 'solid', 'normal', False),
    ('_{ (}->', 'hook_down', 'solid', 'normal', False),
    ('|->', 'bar', 'solid', 'normal', False),
    ('--', 'none', 'dashed', 'none', False),
    ('-->', 'none', 'dashed', 'normal', False),
    ('.', 'none', 'dotted', 'none', False),
    ('..', 'none', 'dotted', 'none', False),
    ('d', 'none', 'dotted', 'none', False),
    ('..>', 'none', 'dotted', 'normal', False),
    ('=', 'none', 'double', 'none', False),
    ('=>', 'none', 'double', 'normal', False),
    ('<-', 'none', 'solid', 'normal', True),
    ('<<-', 'none', 'solid', 'double_head', True),
    ('<-< ', 'mono', 'solid', 'normal', True),
    ('<-( ', 'hook_up', 'solid', 'normal', True),
    ('<--', 'none', 'dashed', 'normal', True),
    ('<..', 'none', 'dotted', 'normal', True),
    ('<-|', 'bar', 'solid', 'normal', True),
    ('<=', 'none', 'double', 'normal', True),
]


@pytest.mark.parametrize('spec, tail, shaft, head, rev', DIRECTIONALS)
def test_directional_table(spec, tail, shaft, head, rev):
    style = parse_arrow_spec(spec)
    assert (style.tail, style.shaft, style.head, style.reversed) == \
        (tail, shaft, head, rev)
    assert style.mid == 'none'
    assert style.parallel_offset_pt == 0.0


@pytest.mark.parametrize('spec', [row[0] for row in DIRECTIONALS])
def test_raw_wrapping_is_identity(spec):
    assert parse_arrow_spec('@{%s}' % spec) == parse_arrow_spec(spec)


def test_mid_modifiers():
    assert parse_arrow_spec('@{>}|-*@{|}').mid == 'tick'
    assert parse_arrow_spec('@{>}|-*@{+}').mid == 'cross'


def test_offset_modifier():
    style = parse_arrow_spec('@{>}@<3pt>')
    assert style.parallel_offset_pt == 3.0
    assert parse_arrow_spec('@{>}@<-2.5pt>').parallel_offset_pt == -2.5


def test_offset_at_the_digit_bound_is_finite():
    style = parse_arrow_spec('@{>}@<-999999999.999999999pt>')
    assert style.parallel_offset_pt == -1e9


def test_modifiers_stack():
    style = parse_arrow_spec('@{-->}|-*@{|}@<1pt>')
    assert (style.shaft, style.head, style.mid) == ('dashed', 'normal', 'tick')
    assert style.parallel_offset_pt == 1.0


@pytest.mark.parametrize('spec', [
    '~>', '@{~>}', '@>', '@{>', '@{>}?', '>>-',
    # offsets: ASCII digits, at most 9 on each side of the point
    '@{>}@<1234567890pt>', '@{>}@<1.1234567890pt>', '@{>}@<\u0663pt>',
    '@{>}@<%spt>' % ('9' * 400),
])
def test_unsupported_specs_raise(spec):
    with pytest.raises(DiagnosticError) as info:
        parse_arrow_spec(spec)
    assert info.value.code == 'UnsupportedArrowSpec'


@pytest.mark.parametrize('spec, message', [
    ('@{@{x}}', "unsupported arrow spec '@{x}' at position 2"),
    ('@{@{>}?}', "unsupported arrow spec '@{>}?' at position 4"),
    ('@{@{>}}?', "unsupported arrow spec '@{@{>}}?' at position 7"),
    ('@{@x}', "unsupported arrow spec '@x' at position 1"),
    ('@{@{>}', "unbalanced braces in arrow spec '@{@{>}' at position 1"),
])
def test_nested_spec_errors_name_their_own_layer(spec, message):
    with pytest.raises(DiagnosticError) as info:
        parse_arrow_spec(spec)
    assert info.value.message == message


def test_nested_suffixes_apply_innermost_first():
    assert parse_arrow_spec('@{@{>}@<1pt>}@<2pt>').parallel_offset_pt == 2.0
    assert parse_arrow_spec('@{@{>}|-*@{+}}|-*@{|}').mid == 'tick'
    # an outer layer keeps what it does not set
    style = parse_arrow_spec('@{@{>}|-*@{+}@<1pt>}|-*@{|}')
    assert (style.mid, style.parallel_offset_pt) == ('tick', 1.0)
    style = parse_arrow_spec('@{@{>}|-*@{+}@<1pt>}@<-2pt>')
    assert (style.mid, style.parallel_offset_pt) == ('cross', -2.0)


@pytest.mark.parametrize('spec, expected', [
    ('@{->}|-*@{+}@<1.5pt>', ArrowStyle(mid='cross', parallel_offset_pt=1.5)),
    ('@{<-}|-*@{|}', ArrowStyle(mid='tick', reversed=True)),
    ('@{>}|-*@{|}@<1pt>|-*@{+}@<-2pt>',
     ArrowStyle(mid='cross', parallel_offset_pt=-2.0)),
    ('@{>}@<-2pt>|-*@{+}@<1pt>|-*@{|}',
     ArrowStyle(mid='tick', parallel_offset_pt=1.0)),
    ('@{-->}@<0.000pt>', ArrowStyle(shaft='dashed', head='normal')),
])
def test_the_last_tick_and_the_last_offset_of_a_layer_win(spec, expected):
    assert parse_arrow_spec(spec) == expected


def test_spec_nested_3000_deep():
    spec = '@{' * 3000 + '->' + '}@<1pt>' * 3000
    assert parse_arrow_spec(spec) == ArrowStyle(parallel_offset_pt=1.0)
    with pytest.raises(DiagnosticError) as info:
        parse_arrow_spec(spec[:-1])
    assert info.value.code == 'UnsupportedArrowSpec'


def test_compass_table():
    assert resolve_compass('l') == (-1.0, 0.0)
    assert resolve_compass('r') == (1.0, 0.0)
    assert resolve_compass('u') == (0.0, 1.0)
    assert resolve_compass('d') == (0.0, -1.0)
    diag = math.sqrt(2.0) / 2.0
    assert resolve_compass('ur') == (diag, diag)
    assert resolve_compass('dl') == (-diag, -diag)
    assert set(COMPASS) == {'l', 'r', 'u', 'd', 'ul', 'ur', 'dl', 'dr'}
    for direction in COMPASS:
        x, y = resolve_compass(direction)
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-12)


def test_bad_direction():
    with pytest.raises(DiagnosticError) as info:
        resolve_compass('north')
    assert info.value.code == 'BadDirection'
