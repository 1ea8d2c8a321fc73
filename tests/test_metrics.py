import re

import pytest
from hypothesis import given, strategies as st

from diagramc.metrics import (
    DEFAULT_ADVANCE,
    DEFAULT_ASCENT,
    DEFAULT_DESCENT,
    MetricsTable,
)
from diagramc.model import RenderConfig

CFG = RenderConfig()


def test_builtin_covers_printable_ascii():
    table = MetricsTable.builtin()
    for code in range(0x20, 0x7F):
        assert table.advances.get(chr(code), table.fallback) == DEFAULT_ADVANCE
    assert table.ascent == DEFAULT_ASCENT
    assert table.descent == DEFAULT_DESCENT


def test_text_advance_sums_tokens():
    table = MetricsTable.builtin()
    assert table.text_advance('') == 0
    assert table.text_advance('A') == 500
    assert table.text_advance('ABC') == 1500
    # control words measure as one token
    assert table.text_advance(r'\alpha f') == 1500
    assert table.text_advance(r'\%') == 500


@given(st.text(alphabet='ab\\xy{ }\u00e9', max_size=16),
       st.sampled_from([1.0, 0.7, 1.25]))
def test_text_advance_matches_token_loop(text, scale):
    table = MetricsTable(advances={'a': 300, '\\x': 700, '{': 0},
                         fallback=450)
    tokens = re.findall(r'\\[A-Za-z]+|\\.|.', text, re.DOTALL)
    total = 0
    for token in tokens:
        total += table.advances.get(token, table.fallback)
    assert table.text_advance(text, scale) == int(total * scale)


def test_text_advance_scaling_truncates():
    table = MetricsTable.builtin()
    assert table.text_advance('AB', 0.7) == 700
    assert table.text_advance('A', 0.999) == 499


def test_unknown_tokens():
    table = MetricsTable.builtin()
    assert table.unknown_tokens('fg') == set()
    assert table.unknown_tokens(r'f\otimes g') == {r'\otimes'}


# Auto width: measure A ++ label ++ label ++ B, halve, convert to units,
# pad by 350, clamp at 500.  Hand-computed values:
#   A/B/f        (500 + 1000 + 500) // 2 // 10 + 350 = 450 -> clamps to 500
#   ABC/D/ff     (1500 + 2000 + 500) // 2 // 10 + 350 = 550
#   AAAA/BBBB/x  (2000 + 1000 + 2000) // 2 // 10 + 350 = 600
WIDTH_CASES = [
    ('A', 'B', 'f', 500),
    ('ABC', 'D', 'ff', 550),
    ('AAAA', 'BBBB', 'x', 600),
    ('', '', '', 500),
]


@pytest.mark.parametrize('a, b, label, expected', WIDTH_CASES)
def test_morphism_width_frozen(a, b, label, expected):
    assert MetricsTable.builtin().morphism_width(a, b, label, CFG) == expected


def test_morphism_width_integer_chain_beats_float_division():
    # 2010 milli-em is 201 units; the float route em -> units lands just
    # below and truncates to 200
    assert int(2010 / 1000 / 0.01) == 200
    assert 2010 // 10 == 201
    table = MetricsTable(advances={'X': 4020})
    assert table.morphism_width('X', '', '', CFG) == 201 + 350


def test_inline_length_floor_and_margin():
    table = MetricsTable.builtin()
    # empty labels still get the default margin, which tops the \to floor
    assert table.inline_length('', '', 100, CFG) == 150
    assert table.inline_length('', '', 200, CFG) == 200
    assert table.inline_length('f', '', 100, CFG) == 200
    assert table.inline_length('f', 'gg', 200, CFG) == 250
    assert table.inline_length('f', '', 300, CFG) == 300


@given(st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                      exclude_characters='\\'),
               max_size=40))
def test_advance_monotone_under_extension(text):
    table = MetricsTable.builtin()
    assert table.text_advance(text + 'A') == table.text_advance(text) + 500


def test_from_file_overrides(tmp_path):
    path = tmp_path / 'metrics.txt'
    path.write_text(
        '# custom widths\n'
        'f 300\n'
        '65 700\n'
        'U+0042 900\n'
        '\\otimes 800\n'
        'fallback 450\n'
        'ascent 600\n'
        'descent 400\n',
        encoding='utf-8')
    table = MetricsTable.from_file(str(path))
    assert table.advances.get('f', table.fallback) == 300
    assert table.advances.get('A', table.fallback) == 700
    assert table.advances.get('B', table.fallback) == 900
    assert table.advances.get('\\otimes', table.fallback) == 800
    assert table.fallback == 450
    assert table.ascent == 600
    assert table.descent == 400


@pytest.mark.parametrize('line', [
    'f not-a-number', 'f -1', 'f +1', 'f 1_000', 'f 1234567890',
    'f \u0663', 'ascent -1', 'descent 1e3', 'fallback 0x10',
    'U+110000 500', 'U+ 500', 'U+-41 500', 'U+\uff11 500', '1114112 500',
    '\u0663\u0663 500', '9' * 10 + ' 500', '-1 500', 'f', 'f 300 7',
])
def test_from_file_rejects_junk(tmp_path, line):
    path = tmp_path / 'bad.txt'
    path.write_text('f 300\n%s\n' % line, encoding='utf-8')
    with pytest.raises(ValueError, match=r'^%s:2: ' % re.escape(str(path))):
        MetricsTable.from_file(str(path))


def test_from_file_takes_the_widest_values(tmp_path):
    path = tmp_path / 'wide.txt'
    path.write_text('U+10FFFF 999999999\n1114111 0\nu+41 000000007\n'
                    'descent 0\n', encoding='utf-8')
    table = MetricsTable.from_file(str(path))
    assert table.advances.get('\U0010ffff', table.fallback) == 0
    assert table.advances.get('A', table.fallback) == 7
    assert table.descent == 0


@pytest.mark.parametrize('data, lineno', [
    (b'A 500\n\xe9 600\n', 2),
    (b'\xff\n', 1),
    (b'A 500\r\nB 600\r\n# \xc3\n', 3),
    (b'A 500\rB 600\rC \xe2\x82 700\r', 3),   # a sequence cut short
])
def test_from_file_names_the_line_that_is_not_utf8(tmp_path, data, lineno):
    path = tmp_path / 'bad.tbl'
    path.write_bytes(data)
    with pytest.raises(ValueError, match=r'^%s:%d: not valid UTF-8$'
                       % (re.escape(str(path)), lineno)):
        MetricsTable.from_file(str(path))


@pytest.mark.parametrize('newline', ['\n', '\r\n', '\r'])
def test_from_file_breaks_lines_as_text_mode_does(tmp_path, newline):
    # a bad value on line 3 is reported on line 3 whatever ends the lines,
    # and non-ASCII keys decode as before
    path = tmp_path / 'table.txt'
    path.write_bytes(newline.join(['α 700', '# cé', 'B x', ''])
                     .encode('utf-8'))
    with pytest.raises(ValueError, match=r':3: '):
        MetricsTable.from_file(str(path))
    path.write_bytes(newline.join(['α 700', '\\beta 800', ''])
                     .encode('utf-8'))
    table = MetricsTable.from_file(str(path))
    assert table.advances.get('α', table.fallback) == 700
    assert table.advances.get('\\beta', table.fallback) == 800
