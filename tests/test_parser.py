"""Parser behavior: defaults, group syntax, errors, and round trips."""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from diagramc import arrows, compile_source, parser
from diagramc.errors import (
    PARSE_ERROR, UNBALANCED_GROUP, DiagnosticError, SourceLoc)
from diagramc.model import LogicalPoint, ORIGIN
from diagramc.parser import (
    Statement,
    matching_brace,
    parse_document,
    split_fields,
    strip_group,
)


def parse_one(source):
    statements = parse_document(source)
    assert len(statements) == 1
    return statements[0]


# ---- group primitives ------------------------------------------------

def test_strip_group_single():
    assert strip_group('{x}') == 'x'
    assert strip_group('{a{b}c}') == 'a{b}c'
    assert strip_group('{}') == ''


def test_strip_group_leaves_non_groups():
    assert strip_group('x') == 'x'
    assert strip_group('{a}{b}') == '{a}{b}'
    assert strip_group('a{b}') == 'a{b}'
    assert strip_group('\\{x}') == '\\{x}'


def test_split_fields_depth_and_escapes():
    assert split_fields('a`b`c', '`') == ['a', 'b', 'c']
    assert split_fields('{a`b}`c', '`') == ['{a`b}', 'c']
    assert split_fields('a\\`b`c', '`') == ['a\\`b', 'c']
    assert split_fields('', '`') == ['']


# ---- shape constructors ----------------------------------------------

def test_square_defaults():
    stmt = parse_one('\\square[A`B`C`D;f`g`h`k]')
    assert stmt == Statement(
        'square', origin=ORIGIN, placements='alrb',
        specs=('>', '>', '>', '>'), spans=(500, 500),
        nodes=('A', 'B', 'C', 'D'), labels=('f', 'g', 'h', 'k'))


def test_square_all_groups():
    stmt = parse_one(
        '\\square(30,-40)|mlrb|/->`>`.`=>/<600,450>[A`B`C`D;f`g`h`k]')
    assert stmt.origin == LogicalPoint(30, -40)
    assert stmt.placements == 'mlrb'
    assert stmt.specs == ('->', '>', '.', '=>')
    assert stmt.spans == (600, 450)


def test_auto_square_single_span():
    stmt = parse_one('\\Square[A`B`C`D;f`g`h`k]')
    assert stmt.constructor == 'Square'
    assert stmt.spans == (500,)
    stmt = parse_one('\\Square<700>[A`B`C`D;f`g`h`k]')
    assert stmt.spans == (700,)


def test_morphism_shape():
    stmt = parse_one('\\morphism(100,200)[A`B;f]')
    assert stmt.constructor == 'morphism'
    assert stmt.placements == 'a'
    assert stmt.specs == ('>',)
    assert stmt.spans == (500, 0)
    assert stmt.nodes == ('A', 'B')
    assert stmt.labels == ('f',)


# the keyword, the letter that picks its orientation, its placements
TRIANGLE_KINDS = [
    ('ptriangle', 'p', 'alr'),
    ('qtriangle', 'q', 'alr'),
    ('dtriangle', 'd', 'lrb'),
    ('btriangle', 'b', 'lrb'),
    ('Atriangle', 'A', 'lrb'),
    ('Vtriangle', 'V', 'alb'),
    ('Ctriangle', 'C', 'arb'),
    ('Dtriangle', 'D', 'lab'),
]


@pytest.mark.parametrize('keyword, letter, placements', TRIANGLE_KINDS)
def test_triangle_shapes(keyword, letter, placements):
    stmt = parse_one('\\%striangle[A`B`C;f`g`h]' % letter)
    assert stmt.constructor == keyword
    assert stmt.placements == placements
    assert stmt.spans == (500, 500)


def test_triangle_pair_arity():
    stmt = parse_one('\\Atrianglepair[A`B`C`D;f`g`h`k`m]')
    assert stmt.constructor == 'Atrianglepair'
    assert stmt.placements == 'lmrbb'
    assert len(stmt.specs) == 5


def test_composite_shapes():
    stmt = parse_one('\\hsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert stmt.constructor == 'hsquares'
    assert stmt.spans == (500, 500, 500)
    stmt = parse_one('\\vSquares[A`B`C`D`E`F;f`g`h`k`m`n`p]')
    assert stmt.constructor == 'vSquares'
    assert stmt.placements == 'alrmlrb'
    assert stmt.spans == (500, 500)


# ---- group lexing details --------------------------------------------

def test_comment_swallows_break_and_indent():
    stmt = parse_one('\\square[A`B`C% note\n   `D;f`g`h`k]')
    assert stmt.nodes == ('A', 'B', 'C', 'D')


def test_newline_reads_as_space():
    stmt = parse_one('\\square[A B\n   C`B`C`D;f`g`h`k]')
    assert stmt.nodes[0] == 'A B C'


def test_braces_protect_separators():
    stmt = parse_one('\\square[{A`B}`C`D`E;{f;g}`g`h`k]')
    assert stmt.nodes[0] == '{A`B}'
    assert stmt.labels[0] == '{f;g}'


def test_escapes_protect_delimiters():
    stmt = parse_one('\\square[100\\% `B`C`D;f`g`h`k]')
    assert stmt.nodes[0] == '100\\% '


def test_crlf_is_normalized():
    one = parse_document('\\bfig\r\n\\efig\r\n')
    two = parse_document('\\bfig\n\\efig\n')
    assert one == two


# ---- the other constructors ------------------------------------------

def test_vect_requires_all_groups():
    stmt = parse_one('\\vect(10,20)/-->/<300,-200>')
    assert stmt.constructor == 'vect'
    assert stmt.origin == LogicalPoint(10, 20)
    assert stmt.specs == ('-->',)
    assert stmt.spans == (300, -200)
    with pytest.raises(DiagnosticError) as info:
        parse_one('\\vect(10,20)<300,200>')
    assert info.value.code == 'ParseError'


def test_place_anchor_forms():
    assert parse_one('\\place(5,6)[X]').anchor == 'center'
    assert parse_one('\\place[]( 5,6)[X]').anchor == 'center'
    assert parse_one('\\place[r](5,6)[X]').anchor == 'r'
    # horizontal letter prints first whichever way it was written
    assert parse_one('\\place[ul](5,6)[X]').anchor == 'lu'
    assert parse_one('\\place[lu](5,6)[X]').anchor == 'lu'


@pytest.mark.parametrize('anchor', ['lr', 'ud', 'll', 'x', 'rld'])
def test_place_bad_anchor(anchor):
    with pytest.raises(DiagnosticError) as info:
        parse_one('\\place[%s](5,6)[X]' % anchor)
    assert info.value.code == 'ParseError'


def test_node_name_token_forms():
    assert parse_one('\\node a(0,0)[A]').name == 'a'
    assert parse_one('\\node{long}(0,0)[A]').name == 'long'
    assert parse_one('\\node\\alpha(0,0)[A]').name == '\\alpha'


def test_named_arrow():
    stmt = parse_one('\\arrow|b|/{-->}/[a`b;f]')
    assert stmt.constructor == 'arrow'
    assert stmt.placements == 'b'
    assert stmt.specs == ('{-->}',)
    assert stmt.nodes == ('a', 'b')
    assert stmt.labels == ('f',)
    # a single spec group is never split on backticks
    assert parse_one('\\arrow/a`b/[a`b;f]').specs == ('a`b',)


def test_loops():
    stmt = parse_one('\\Loop(100,200){A}(ul, ur)')
    assert stmt.constructor == 'Loop'
    assert stmt.origin == LogicalPoint(100, 200)
    assert stmt.nodes == ('A',)
    assert (stmt.loop_out, stmt.loop_in) == ('ul', 'ur')
    stmt = parse_one('\\iloop{x}(d,r)')
    assert stmt.constructor == 'iloop'
    assert stmt.origin == ORIGIN


def test_inline_arrows():
    stmt = parse_one('\\to')
    assert (stmt.constructor, stmt.specs, stmt.length) == ('to', ('>',), 0)
    assert (stmt.sup, stmt.sub, stmt.mid) == ('', '', '')

    stmt = parse_one('\\to/-->/<300>^f_g')
    assert stmt.specs == ('-->',)
    assert stmt.length == 300
    assert (stmt.sup, stmt.sub) == ('f', 'g')

    stmt = parse_one('\\two/>`>/^{f}_{g}')
    assert stmt.specs == ('>', '>')

    stmt = parse_one('\\three/a`b`c/^f|m_g')
    assert stmt.specs == ('a', 'b', 'c')
    assert (stmt.sup, stmt.mid, stmt.sub) == ('f', 'm', 'g')


@pytest.mark.parametrize('keyword, spec', [
    ('mon', ' >->'),
    ('epi', '->>'),
    ('toleft', '<-'),
    ('monleft', '<-< '),
    ('epileft', '<<-'),
])
def test_inline_presets(keyword, spec):
    stmt = parse_one('\\%s<200>^u' % keyword)
    assert stmt.specs == (spec,)
    assert stmt.length == 200
    assert stmt.sup == 'u'


def test_twoar_and_limits():
    stmt = parse_one('\\twoar(2,-1)')
    assert (stmt.constructor, stmt.spans) == ('twoar', (2, -1))
    assert parse_one('\\rlimto').constructor == 'rlimto'
    assert parse_one('\\llimto').constructor == 'llimto'


# ---- compound constructors -------------------------------------------

def test_pullback_structure():
    stmt = parse_one(
        '\\pullback(0,0)[A`B`C`D;f`g`h`k]|ama|/>`>`>/<400,300>[E;p`q`r]')
    assert stmt.constructor == 'pullback'
    assert stmt.inner.constructor == 'square'
    assert stmt.inner.nodes == ('A', 'B', 'C', 'D')
    trident = stmt.trident
    assert trident.constructor == 'pullback'
    assert trident.placements == 'ama'
    assert trident.spans == (400, 300)
    assert trident.nodes == ('E',)
    assert trident.labels == ('p', 'q', 'r')


def test_pullback_trident_defaults():
    stmt = parse_one('\\pullback[A`B`C`D;f`g`h`k][E;p`q`r]')
    assert stmt.trident.placements == 'amb'
    assert stmt.trident.spans == (500, 500)


def test_cube_structure():
    stmt = parse_one(
        '\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][x`y`z`w]')
    assert stmt.constructor == 'cube'
    assert stmt.spans == (1500, 1500)
    assert stmt.inner.constructor == 'square'
    assert stmt.inner.origin == LogicalPoint(500, 500)
    assert stmt.inner.spans == (500, 500)
    connector = stmt.connector
    assert connector.constructor == 'cube'
    assert connector.placements == 'mmmm'
    assert connector.specs == ('>', '>', '>', '>')
    assert connector.labels == ('x', 'y', 'z', 'w')


def test_cube_inner_origin_override():
    stmt = parse_one(
        '\\cube(10,10)[A`B`C`D;f`g`h`k](700,600)[a`b`c`d;p`q`r`s][x`y`z`w]')
    assert stmt.origin == LogicalPoint(10, 10)
    assert stmt.inner.origin == LogicalPoint(700, 600)


GRID_PAYLOAD_3X3 = '[A`B`C`D`E`F`G`H`I;a`b`c`d`e`f`g`h`i`j`k`l]'
GRID_PAYLOAD_3X2 = '[A`B`C`D`E`F;a`b`c`d`e`f`g]'


def test_grid_defaults():
    stmt = parse_one('\\iiixiii' + GRID_PAYLOAD_3X3)
    assert stmt.constructor == 'iiixiii'
    assert stmt.placements == 'aalmrmmlmrbb'
    assert len(stmt.specs) == 12
    assert stmt.spans == (500, 500)
    assert stmt.mask == 0
    assert stmt.border == (400, 400)

    stmt = parse_one('\\iiixii' + GRID_PAYLOAD_3X2)
    assert stmt.constructor == 'iiixii'
    assert stmt.placements == 'aalmrbb'
    assert len(stmt.specs) == 7
    assert stmt.border == (400,)


def test_grid_mask_forms():
    bare = parse_one('\\iiixiii(0,0)4095' + GRID_PAYLOAD_3X3)
    braced = parse_one('\\iiixiii(0,0){4095}' + GRID_PAYLOAD_3X3)
    assert bare.mask == braced.mask == 4095
    with_border = parse_one('\\iiixii(0,0)7<350>' + GRID_PAYLOAD_3X2)
    assert with_border.mask == 7
    assert with_border.border == (350,)


def test_grid_mask_junk():
    with pytest.raises(DiagnosticError) as info:
        parse_one('\\iiixiii(0,0){12 angry men}' + GRID_PAYLOAD_3X3)
    assert info.value.code == 'ParseError'
    with pytest.raises(DiagnosticError):
        parse_one('\\iiixiii(0,0)?' + GRID_PAYLOAD_3X3)


# ---- diagnostics -----------------------------------------------------

def test_unclosed_group():
    with pytest.raises(DiagnosticError) as info:
        parse_document('\\square[A`B`C`D;f`g`h`k')
    err = info.value
    assert err.code == 'UnbalancedGroup'
    assert err.constructor == 'square'
    assert "missing ']'" in err.message


def test_stray_close_brace():
    with pytest.raises(DiagnosticError) as info:
        parse_document('\\square[A}`B`C`D;f`g`h`k]')
    assert info.value.code == 'UnbalancedGroup'


def test_arity_errors():
    cases = [
        '\\square[A`B`C;f`g`h`k]',
        '\\square[A`B`C`D;f`g]',
        '\\square(1,2,3)[A`B`C`D;f`g`h`k]',
        '\\square|al|[A`B`C`D;f`g`h`k]',
        '\\square/>`>/[A`B`C`D;f`g`h`k]',
        '\\square<100>[A`B`C`D;f`g`h`k]',
    ]
    for source in cases:
        with pytest.raises(DiagnosticError) as info:
            parse_document(source)
        assert info.value.code == 'ArityError', source


def test_missing_semicolon():
    with pytest.raises(DiagnosticError) as info:
        parse_document('\\square[A`B`C`D`f`g`h`k]')
    assert info.value.code == 'ParseError'
    assert "';'" in info.value.message


@pytest.mark.parametrize('keyword', ['twoleft', 'frobnicate', 'Squares'])
def test_unknown_constructor(keyword):
    with pytest.raises(DiagnosticError) as info:
        parse_document('\\%s[A;f]' % keyword)
    assert info.value.code == 'UnknownConstructor'


def test_control_symbol_is_not_a_constructor():
    with pytest.raises(DiagnosticError) as info:
        parse_document('\\$')
    assert info.value.code == 'UnknownConstructor'


def test_bare_text_rejected():
    with pytest.raises(DiagnosticError) as info:
        parse_document('hello')
    assert info.value.code == 'ParseError'


def test_a_lone_surrogate_is_a_located_parse_error():
    # a UTF-8 file cannot hold one, but text handed to compile_source can
    with pytest.raises(DiagnosticError) as info:
        compile_source('\\bfig\n\\place(0,0)[a\ud800b]\\efig', 's.dxy')
    assert info.value.code == PARSE_ERROR
    assert str(info.value.loc) == 's.dxy:2:14'
    assert info.value.message == (
        'control character U+D800 is not allowed in source text')


def test_non_integer_coordinate():
    with pytest.raises(DiagnosticError) as info:
        parse_document('\\square(1.5,0)[A`B`C`D;f`g`h`k]')
    assert info.value.code == 'ParseError'
    assert 'integer' in info.value.message


# what the general reader gives each text, the digit runs read by int()
# among them: a value, or the code, message and location of its error
@pytest.mark.parametrize('text, expected', [
    ('0', 0),
    ('000000007', 7),
    ('999999999', 999999999),
    ('1000000000', ('ParseError', 'span has 10 digits; at most 9 are allowed',
                    'src.dxy:2:4')),
    ('+5', 5),
    ('-0', 0),
    (' 5', 5),
    ('{5}', 5),
    ('\u0663', ('ParseError', "span must be an integer, got '\u0663'",
                'src.dxy:2:4')),
    ('\u00b2', ('ParseError', "span must be an integer, got '\u00b2'",
                'src.dxy:2:4')),
    # a leading minus takes the fast path
    ('-600', -600),
    ('-999999999', -999999999),
    ('-1000000000', ('ParseError',
                     'span has 10 digits; at most 9 are allowed',
                     'src.dxy:2:4')),
    ('-', ('ParseError', "span must be an integer, got '-'", 'src.dxy:2:4')),
    ('--5', ('ParseError', "span must be an integer, got '--5'",
             'src.dxy:2:4')),
    ('-\u0663', ('ParseError', "span must be an integer, got '-\u0663'",
                 'src.dxy:2:4')),
])
def test_integer_reader_matches_the_general_reader(text, expected):
    # an integer's errors point at the opener of its group, the '<'
    reader = parser._Parser('\\vect(0,0)\n/>/<', 'src.dxy')
    reader.scan.opened = 14
    try:
        got = reader._int(text, 'span')
    except DiagnosticError as err:
        got = (err.code, err.message, str(err.loc))
    assert got == expected


def test_error_location_and_context():
    source = '\\bfig\n  \\square[A`B`C;f`g`h`k]\n\\efig\n'
    with pytest.raises(DiagnosticError) as info:
        parse_document(source, 'dia.dxy')
    err = info.value
    assert err.constructor == 'square'
    assert err.loc.file == 'dia.dxy'
    # the location is the offending group, not the keyword
    assert (err.loc.line, err.loc.col) == (2, 10)
    assert err.format().startswith('dia.dxy:2:10: error: ArityError:')
    assert err.format().endswith('[in \\square]')


# One case per error about a group's contents.  Each group runs over a
# line break, and the error points at its opener, not past its closer.
@pytest.mark.parametrize('source, code, message, where', [
    ('\\morphism(0,0)<1x,\n  0>[A`B;f]',
     'ParseError', "span must be an integer, got '1x'", '1:15'),
    ('\\morphism<1234567890,\n0>[A`B;f]',
     'ParseError', 'span has 10 digits; at most 9 are allowed', '1:10'),
    ('\\morphism(1x,\n 0)[A`B;f]',
     'ParseError', "coordinate pair must be an integer, got '1x'", '1:10'),
    ('\\morphism\n  (1,2,\n 3)[A`B;f]', 'ArityError',
     'coordinate pair needs 2 components, got 3', '2:3'),
    ('\\morphism <1,\n2,3>[A`B;f]',
     'ArityError', 'expected 2 span entries, got 3', '1:11'),
    ('\\square|al\n|[A`B`C`D;f`g`h`k]',
     'ArityError', 'expected 4 placement letters, got 2', '1:8'),
    ('\\square/>`>\n/[A`B`C`D;f`g`h`k]',
     'ArityError', 'expected 4 arrow specs, got 2', '1:8'),
    ('\\morphism [A`B\n f]', 'ParseError',
     "expected ';' separating nodes from labels", '1:11'),
    ('\\morphism [A`B`C;\nf]',
     'ArityError', 'expected 2 nodes, got 3', '1:11'),
    ('\\morphism [A`B;f`\ng]',
     'ArityError', 'expected 1 labels, got 2', '1:11'),
    ('\\place[q\n](0,0)[X]', 'ParseError', "bad anchor 'q '", '1:7'),
    ('\\vect(0,0)/>/<1,\n2x>',
     'ParseError', "span must be an integer, got '2x'", '1:14'),
    ('\\iiixiii(0,0){1}<4,\n0,0>' + GRID_PAYLOAD_3X3,
     'ArityError', 'expected 2 span entries, got 3', '1:17'),
    ('\\Loop(0,0){A}(a,\nb,c)',
     'ArityError', 'direction pair needs 2 components, got 3', '1:14'),
    ('\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][x`y\n`z]',
     'ArityError', 'expected 4 connector labels, got 3', '1:40'),
])
def test_errors_about_a_group_point_at_its_opener(source, code, message,
                                                  where):
    with pytest.raises(DiagnosticError) as info:
        parse_document(source, 'a.dxy')
    assert (info.value.code, info.value.message) == (code, message)
    assert str(info.value.loc) == 'a.dxy:' + where


# ---- round trips ----------------------------------------------------

# each source, and the same statement with every optional group written
# out: its canonical print
ROUND_TRIP_PAIRS = [
    ('\\bfig', '\\bfig'),
    ('\\efig', '\\efig'),
    ('\\morphism(100,-200)|b|/-->/<600,100>[A`B;f]',
     '\\morphism(100,-200)|b|/-->/<600,100>[A`B;f]'),
    ('\\square(30,40)|mlrb|/->`>`.`=>/<600,450>[A`B`C`D;f`g`h`k]',
     '\\square(30,40)|mlrb|/->`>`.`=>/<600,450>[A`B`C`D;f`g`h`k]'),
    ('\\Square<700>[A`B`C`{D}ps;f``h`k]',
     '\\Square(0,0)|alrb|/>`>`>`>/<700>[A`B`C`{D}ps;f``h`k]'),
    ('\\Diamond(0,0)[A`B`C`D;f`g`h`k]',
     '\\Diamond(0,0)|lrlr|/>`>`>`>/<400,400>[A`B`C`D;f`g`h`k]'),
    ('\\ptriangle/>`>`-->/[A`B`C;f`g`h]',
     '\\ptriangle(0,0)|alr|/>`>`-->/<500,500>[A`B`C;f`g`h]'),
    ('\\Dtriangle(5,5)[A`B`C;f`g`h]',
     '\\Dtriangle(5,5)|lab|/>`>`>/<500,500>[A`B`C;f`g`h]'),
    ('\\Vtrianglepair[A`B`C`D;f`g`h`k`m]',
     '\\Vtrianglepair(0,0)|aalmr|/>`>`>`>`>/<500,500>[A`B`C`D;f`g`h`k`m]'),
    ('\\hsquares<400,300,200>[A`B`C`D`E`F;f`g`h`k`m`n`p]',
     '\\hsquares(0,0)|aalmrbb|/>`>`>`>`>`>`>/<400,300,200>'
     '[A`B`C`D`E`F;f`g`h`k`m`n`p]'),
    ('\\hSquares[A`B`C`D`E`F;f`g`h`k`m`n`p]',
     '\\hSquares(0,0)|aalmrbb|/>`>`>`>`>`>`>/<500>'
     '[A`B`C`D`E`F;f`g`h`k`m`n`p]'),
    ('\\vsquares[A`B`C`D`E`F;f`g`h`k`m`n`p]',
     '\\vsquares(0,0)|aalmrbb|/>`>`>`>`>`>`>/<500,500,500>'
     '[A`B`C`D`E`F;f`g`h`k`m`n`p]'),
    ('\\vSquares<450,350>[A`B`C`D`E`F;f`g`h`k`m`n`p]',
     '\\vSquares(0,0)|alrmlrb|/>`>`>`>`>`>`>/<450,350>'
     '[A`B`C`D`E`F;f`g`h`k`m`n`p]'),
    ('\\pullback[A`B`C`D;f`g`h`k]|ama|<400,300>[E;p`q`r]',
     '\\pullback(0,0)|alrb|/>`>`>`>/<500,500>[A`B`C`D;f`g`h`k]'
     ' |ama|/>`>`>/<400,300>[E;p`q`r]'),
    ('\\cube(10,10)[A`B`C`D;f`g`h`k](700,600)[a`b`c`d;p`q`r`s]'
     '|aabb|/>`.`>`>/[x`y`z`w]',
     '\\cube(10,10)|alrb|/>`>`>`>/<1500,1500>[A`B`C`D;f`g`h`k]'
     ' (700,600)|alrb|/>`>`>`>/<500,500>[a`b`c`d;p`q`r`s]'
     ' |aabb|/>`.`>`>/[x`y`z`w]'),
    ('\\iiixiii(0,0)4095' + GRID_PAYLOAD_3X3,
     '\\iiixiii(0,0)|aalmrmmlmrbb|/>`>`>`>`>`>`>`>`>`>`>`>/<500,500>'
     '{4095}<400,400>' + GRID_PAYLOAD_3X3),
    ('\\iiixii(100,0){5}<350>' + GRID_PAYLOAD_3X2,
     '\\iiixii(100,0)|aalmrbb|/>`>`>`>`>`>`>/<500,500>{5}<350>'
     + GRID_PAYLOAD_3X2),
    ('\\vect(10,20)/-->/<300,-200>', '\\vect(10,20)/-->/<300,-200>'),
    ('\\place[lu](5,6)[X]', '\\place[lu](5,6)[X]'),
    ('\\node{p}(0,500)[P]', '\\node{p}(0,500)[P]'),
    ('\\arrow|b|/{-->}/[p`q;f]', '\\arrow|b|/{-->}/[p`q;f]'),
    ('\\Loop(100,200){A}(ul,ur)', '\\Loop(100,200){A}(ul,ur)'),
    ('\\iloop{x}(d,r)', '\\iloop{x}(d,r)'),
    ('\\to/-->/<300>^f_g', '\\to/-->/<300>^{f}_{g}'),
    ('\\two<250>^f_g', '\\two/>`>/<250>^{f}_{g}'),
    ('\\three^f|m_g', '\\three/>`>`>/<0>^{f}|{m}_{g}'),
    ('\\mon<200>', '\\mon<200>^{}_{}'),
    ('\\epileft', '\\epileft<0>^{}_{}'),
    ('\\twoar(2,-1)', '\\twoar(2,-1)'),
    ('\\rlimto', '\\rlimto'),
]
ROUND_TRIP_CORPUS = [source for source, _ in ROUND_TRIP_PAIRS]


@pytest.mark.parametrize('source, printed', ROUND_TRIP_PAIRS,
                         ids=ROUND_TRIP_CORPUS)
def test_print_parse_round_trip(source, printed):
    assert parse_document(printed) == parse_document(source)


def test_surface_keyword():
    keywords = ['square', 'Square', 'Dtriangle', 'pullback', 'cube',
                'iiixii', 'place', 'arrow', 'twoar', 'mon', 'bfig']
    sources = [
        '\\square[A`B`C`D;f`g`h`k]',
        '\\Square[A`B`C`D;f`g`h`k]',
        '\\Dtriangle[A`B`C;f`g`h]',
        '\\pullback[A`B`C`D;f`g`h`k][E;p`q`r]',
        '\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][x`y`z`w]',
        '\\iiixii' + GRID_PAYLOAD_3X2,
        '\\place(0,0)[X]',
        '\\arrow[a`b;f]',
        '\\twoar(1,0)',
        '\\mon',
        '\\bfig',
    ]
    for keyword, source in zip(keywords, sources):
        assert parse_one(source).constructor == keyword


@given(st.integers(-9999, 9999), st.integers(-9999, 9999),
       st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                             exclude_characters='\\{}[]%`;'),
               max_size=12))
def test_place_round_trips_any_payload(x, y, text):
    stmt = Statement('place', origin=LogicalPoint(x, y), nodes=(text,))
    assert parse_document('\\place(%d,%d)[%s]' % (x, y, text)) == [stmt]


# ---- literal bounds --------------------------------------------------

@pytest.mark.parametrize('source, what, digits', [
    ('\\morphism(%s,0)[A`B;f]' % ('1' * 5000), 'coordinate pair', 5000),
    ('\\morphism<1%s,0>[A`B;f]' % ('0' * 400), 'span', 401),
    ('\\square<-0000000001,500>[A`B`C`D;f`g`h`k]', 'span', 10),
    ('\\iiixii(0,0)7<{1234567890}>' + GRID_PAYLOAD_3X2, 'span', 10),
    ('\\iiixiii(0,0)1234567890' + GRID_PAYLOAD_3X3, 'grid mask', 10),
    ('\\iiixiii(0,0){12345 67890}' + GRID_PAYLOAD_3X3, 'grid mask', 10),
])
def test_long_literals_are_parse_errors(source, what, digits):
    with pytest.raises(DiagnosticError) as info:
        parse_document(source)
    assert info.value.code == 'ParseError'
    assert info.value.message == (
        '%s has %d digits; at most 9 are allowed' % (what, digits))


def test_nine_digit_literals_are_accepted():
    stmt = parse_one('\\morphism(-999999999,+000000001)<999999999,0>[A`B;f]')
    assert stmt.origin == LogicalPoint(-999999999, 1)
    assert stmt.spans == (999999999, 0)
    assert parse_one('\\iiixiii(0,0)000004095' + GRID_PAYLOAD_3X3).mask == 4095


@pytest.mark.parametrize('mask', ['\u00b2700', '{\u00b2700}', '{7\u0663}'])
def test_grid_mask_digits_are_ascii(mask):
    # str.isdigit() accepts both U+00B2 and U+0663
    with pytest.raises(DiagnosticError) as info:
        parse_document('\\iiixiii(0,0)' + mask + GRID_PAYLOAD_3X3)
    assert info.value.code == 'ParseError'
    assert info.value.message == 'grid mask must be a decimal number'
    assert (info.value.loc.line, info.value.loc.col) == (1, 14)


# ---- the scanners against their character loops ---------------------
#
# The parser scans from one delimiter to the next with compiled
# patterns.  These are the character-at-a-time loops it replaced; every
# statement, location and diagnostic must come out the same.

def reference_matching_brace(text, i, depth=0):
    while i < len(text):
        ch = text[i]
        if ch == '\\':
            i += 2
            continue
        if ch == '{':
            depth += 1
        elif ch == '}':
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def reference_split_fields(text, sep):
    fields = []
    start = depth = i = 0
    while i < len(text):
        ch = text[i]
        if ch == '\\':
            i += 2
            continue
        if ch == '{':
            depth += 1
        elif ch == '}':
            depth -= 1
        elif ch == sep and depth == 0:
            fields.append(text[start:i])
            start = i + 1
        i += 1
    fields.append(text[start:])
    return fields


class ReferenceScanner:
    """Character cursor with line/column bumped on every step; ``opened``
    is the offset of the last group's opener, as in the scanner."""

    def __init__(self, text, filename):
        self.text = text.replace('\r\n', '\n').replace('\r', '\n')
        self.filename = filename
        self.pos = self.opened = 0
        self.line = 1
        self.col = 1
        bad = parser._CONTROL_RE.search(self.text)
        if bad:
            raise DiagnosticError(
                PARSE_ERROR,
                'control character U+%04X is not allowed in source text'
                % ord(bad.group()), self.loc(bad.start()))

    def loc(self, at=None):
        """The stepped line and column, or those of an earlier offset
        counted from the start of the text."""
        if at is None:
            return SourceLoc(self.filename, self.line, self.col)
        before = self.text[:at]
        return SourceLoc(self.filename, before.count('\n') + 1,
                         len(before) - before.rfind('\n'))

    @property
    def more(self):
        return self.pos < len(self.text)

    def peek(self):
        return self.text[self.pos] if self.more else ''

    def take(self):
        ch = self.text[self.pos]
        self.pos += 1
        if ch == '\n':
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def take_while(self, test):
        run = []
        while self.more and test(self.peek()):
            run.append(self.take())
        return ''.join(run)

    def take_letters(self):
        return self.take_while(str.isalpha)

    def skip_blank(self):
        while self.more:
            ch = self.peek()
            if ch in ' \t\n':
                self.take()
            elif ch == '%':
                self._skip_comment()
            else:
                break

    def _skip_comment(self):
        while self.more and self.peek() != '\n':
            self.take()
        if self.more:
            self.take()
        while self.more and self.peek() in ' \t':
            self.take()

    def scan_group(self, closer, what, opened_at):
        parts = []
        depth = 0
        while self.more:
            ch = self.peek()
            if depth == 0 and ch == closer:
                self.take()
                return ''.join(parts)
            if ch == '\\':
                parts.append(self.take())
                if self.more:
                    parts.append(self.take())
                continue
            if ch == '%':
                self._skip_comment()
                continue
            if ch == '\n':
                self.take()
                while self.more and self.peek() in ' \t':
                    self.take()
                parts.append(' ')
                continue
            if ch == '{':
                depth += 1
            elif ch == '}':
                if depth == 0:
                    raise DiagnosticError(
                        UNBALANCED_GROUP,
                        "unexpected '}' inside %s" % what, self.loc())
                depth -= 1
            parts.append(self.take())
        raise DiagnosticError(
            UNBALANCED_GROUP,
            "missing '%s' closing the %s" % (closer, what), opened_at)

    def opt_group(self, opener, closer, what):
        self.skip_blank()
        if self.peek() != opener:
            return None
        opened_at = self.loc()
        self.opened = self.pos
        self.take()
        return self.scan_group(closer, what, opened_at)

    def need_group(self, opener, closer, what):
        self.skip_blank()
        if self.peek() != opener:
            raise DiagnosticError(
                PARSE_ERROR,
                "expected '%s' opening the %s" % (opener, what), self.loc())
        opened_at = self.loc()
        self.opened = self.pos
        self.take()
        return self.scan_group(closer, what, opened_at)

    def take_token(self, what):
        self.skip_blank()
        if not self.more:
            raise DiagnosticError(
                PARSE_ERROR, 'expected %s, found end of input' % what,
                self.loc())
        ch = self.peek()
        if ch == '{':
            opened_at = self.loc()
            self.opened = self.pos
            self.take()
            return self.scan_group('}', what, opened_at)
        if ch == '}':
            raise DiagnosticError(
                PARSE_ERROR, "expected %s, found '}'" % what, self.loc())
        if ch == '\\':
            word = [self.take()]
            if not self.more:
                raise DiagnosticError(
                    PARSE_ERROR, 'expected %s after backslash' % what,
                    self.loc())
            word.append(self.take())
            if word[1].isalpha():
                while self.more and self.peek().isalpha():
                    word.append(self.take())
            return ''.join(word)
        return self.take()


class GroupParser(parser._Parser):
    """The parser with the statement route off: each group is read on
    its own."""

    def _flat_shape(self, *args):
        return None


class ReferenceParser(GroupParser):
    # off the statement route: it jumps the offset past whole groups,
    # which a scanner stepping line and column cannot follow
    def __init__(self, text, filename):
        self.scan = ReferenceScanner(text, filename)


def reference_parse_document(text, filename):
    with mock.patch.multiple(parser, split_fields=reference_split_fields,
                             matching_brace=reference_matching_brace):
        return ReferenceParser(text, filename).parse()


def _locs(stmt):
    """The locations of a statement and of the statements inside it."""
    inside = (stmt.inner, stmt.trident, stmt.connector)
    return (stmt.loc, tuple(_locs(s) for s in inside if s is not None))


def outcome(parse, text):
    try:
        statements = parse(text, 'src.dxy')
    except DiagnosticError as err:
        return ('error', err.code, err.message, err.loc, err.constructor)
    return ('ok', [(s, _locs(s)) for s in statements])


GROUP_TEXT = st.text(alphabet='\\{}[]()<>|/`;,%\n\r\t a\u00e9', max_size=24)

SCAN_TOKENS = (
    list('\\{}[]()<>|/`;,%\n\r\t ')
    + ['\r\n', '%c\n', '\\%', 'a', 'x', 'f', '0', '7', '-', '\u00e9',
       '\u03bb', '\u00df', '\u00b2', '(0,0)', '<500,500>', '|alrb|',
       '/>`>`>`>/', '[A`B`C`D;f`g`h`k]', '[A`B;f]', '{x}']
    + ['\\' + keyword for keyword in parser._KEYWORDS])


@st.composite
def edited_sources(draw):
    """A round-trip corpus statement with a few tokens put in or over."""
    text = draw(st.sampled_from(ROUND_TRIP_CORPUS))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(SCAN_TOKENS)) + text[at + cut:]
    return text


SOURCES = st.one_of(
    st.lists(st.sampled_from(SCAN_TOKENS), max_size=40).map(''.join),
    edited_sources())


# field texts with escapes that do and do not protect a brace or a
# separator: split_fields blanks escapes only for the first kind
FIELD_TEXT = st.lists(st.sampled_from(
    ['a', ' ', '{', '}', ',', ';', '`', '\\eta', '\\ ', '\\a', '\\',
     '\\\\', '\\{', '\\}', '\\,', '\\;', '\\`', '^{2}', '_{\\bar{Q}}']),
    max_size=12).map(''.join)


@given(st.one_of(GROUP_TEXT, FIELD_TEXT), st.sampled_from(',;`'))
@example('{\\eta}^{1}`\\bar{Q}_{2};f', '`')
@example('a\\`b`c', '`')
@example('{a\\}b`c}`d', '`')
def test_split_fields_matches_reference(text, sep):
    fields = split_fields(text, sep)
    assert fields == reference_split_fields(text, sep)
    assert fields == parser._split_general(text, sep)


# the texts split_fields hands to str.split
@given(st.text(alphabet='[]()<>|/`;,%\n\r\t a\u00e9', max_size=24),
       st.sampled_from(',;`'))
@example('', ',')
@example(',', ',')
@example('a,,b,', ',')
def test_split_fields_without_braces_or_escapes_matches_reference(text, sep):
    assert split_fields(text, sep) == reference_split_fields(text, sep)


# a text and an offset into it, its end included
@given(GROUP_TEXT.flatmap(lambda text: st.tuples(
    st.just(text), st.integers(0, len(text)))))
# where the first-closer shortcut must refuse and the scan answer: an
# escaped closer, an escaped backslash before it, a nested group, no
# opener at the offset, and an offset at the end
@example(('{a\\}b}', 0))
@example(('{\\\\}}', 0))
@example(('{{}}', 0))
@example(('a}', 0))
@example(('{a}', 3))
def test_matching_brace_matches_reference(case):
    text, i = case
    assert matching_brace(text, i) == reference_matching_brace(text, i)
    for depth in (1, 2):
        assert (matching_brace(text, i, depth)
                == reference_matching_brace(text, i, depth))


@settings(max_examples=500)
@given(SOURCES)
def test_parse_document_matches_reference(text):
    assert (outcome(parse_document, text)
            == outcome(reference_parse_document, text))


@pytest.mark.parametrize('source, expected', [
    # a comment ends at its line break; the '}' after it is in the group
    ('\\bfig\n\\square[A% c{\n  }`B`C`D;f`g`h`k]',
     ('error', 'UnbalancedGroup',
      "unexpected '}' inside node and label list",
      SourceLoc('src.dxy', 3, 3), 'square')),
    # the same group opened at end of input
    ('\\bfig\n\\square[A`B', ('error', 'UnbalancedGroup',
                             "missing ']' closing the node and label list",
                             SourceLoc('src.dxy', 2, 8), 'square')),
    ('\\square[A\\', ('error', 'UnbalancedGroup',
                      "missing ']' closing the node and label list",
                      SourceLoc('src.dxy', 1, 8), 'square')),
    ('\\node{p', ('error', 'UnbalancedGroup',
                  "missing '}' closing the node name",
                  SourceLoc('src.dxy', 1, 6), 'node')),
    ('\\node\\', ('error', 'ParseError', 'expected node name after backslash',
                  SourceLoc('src.dxy', 1, 7), 'node')),
    # keywords and control words run over letters only: U+00B2 and the
    # digits pass str.isalnum but end the word
    ('\\square\u00b2[A`B`C`D;f`g`h`k]',
     ('error', 'ParseError', "expected '[' opening the node and label list",
      SourceLoc('src.dxy', 1, 8), 'square')),
    ('\\square1', ('error', 'ParseError',
                   "expected '[' opening the node and label list",
                   SourceLoc('src.dxy', 1, 8), 'square')),
    ('\\square\u00e9', ('error', 'UnknownConstructor',
                         '\\square\u00e9 is not a diagram constructor',
                         SourceLoc('src.dxy', 1, 1), 'square\u00e9')),
    ('\\node\\a\u00b2(0,0)[A]',
     ('error', 'ParseError', "expected '(' opening the coordinate pair",
      SourceLoc('src.dxy', 1, 8), 'node')),
    ('\\node\\a1(0,0)[A]',
     ('error', 'ParseError', "expected '(' opening the coordinate pair",
      SourceLoc('src.dxy', 1, 8), 'node')),
    # an undelimited argument missing at end of input
    ('\\bfig\\node', ('error', 'ParseError',
                      'expected node name, found end of input',
                      SourceLoc('src.dxy', 1, 11), 'node')),
    ('\\iloop', ('error', 'ParseError',
                 'expected loop text, found end of input',
                 SourceLoc('src.dxy', 1, 7), 'iloop')),
])
def test_scanner_edge_diagnostics(source, expected):
    assert outcome(parse_document, source) == expected
    assert outcome(reference_parse_document, source) == expected


def test_control_word_node_names_take_every_letter():
    assert parse_one('\\node\\a\u00e9\u03bb(0,0)[A]').name == '\\a\u00e9\u03bb'


# A keyword or control word runs over its letters.  The ASCII ones are
# read in one match; a letter past ASCII after them steps through the
# whole word again, so the outcome is that of a word read a character at
# a time.  U+00B2 and the digits pass str.isalnum but end the word.
@pytest.mark.parametrize('source', [
    '\\iiixii111111[A`B`C`D`E`F;a`b`c`d`e`f`g]',
    '\\morphism2(0,0)[A`B;f]',
    '\\morphism\u00b2(0,0)[A`B;f]',
    '\\morphism\u00e9(0,0)[A`B;f]',
    '\\morph\u00e9ism(0,0)[A`B;f]',
    '\\bfig\\efig7',
    '\\bfig\\efig\u00b2',
    '\\bfig\\efig\u00e9',
    '\\node\\ab1(0,0)[A]',
    '\\node\\ab\u00b2(0,0)[A]',
    '\\node\\a\u00e9b(0,0)[A]',
])
def test_a_keyword_reads_as_one_stepped_a_letter_at_a_time(source,
                                                          monkeypatch):
    read = outcome(parse_document, source)
    assert read == outcome(reference_parse_document, source)
    monkeypatch.setattr(parser._Scanner, 'take_letters',
                        lambda self: self.take_while(str.isalpha))
    assert read == outcome(parse_document, source)


def test_an_unknown_keyword_is_quoted_whole():
    assert outcome(parse_document, '\\morph\u00e9ism(0,0)[A`B;f]') == (
        'error', 'UnknownConstructor',
        '\\morph\u00e9ism is not a diagram constructor',
        SourceLoc('src.dxy', 1, 1), 'morph\u00e9ism')


def test_escaped_line_break_stays_in_the_text():
    # unlike a bare line break, it is not read as one space, and the
    # indent after it is kept; the lines after it still count
    source = '\\square[A\\\n  B`B`C`D;f`g`h`k]\n  \\bfig'
    square, fig = parse_document(source, 'src.dxy')
    assert square.nodes[0] == 'A\\\n  B'
    assert fig.loc == SourceLoc('src.dxy', 3, 3)
    assert (outcome(parse_document, source)
            == outcome(reference_parse_document, source))


def test_scanner_locations_behind_the_last_one_are_counted_again():
    scanner = parser._Scanner('ab\ncd\nef', 'src.dxy')
    scanner.pos = 7
    assert scanner.loc() == SourceLoc('src.dxy', 3, 2)
    scanner.pos = 4
    assert scanner.loc() == SourceLoc('src.dxy', 2, 2)
    scanner.pos = 1
    assert scanner.loc() == SourceLoc('src.dxy', 1, 2)
    scanner.pos = 8
    assert scanner.loc() == SourceLoc('src.dxy', 3, 3)


# ---- the group reader and the direct routes ----------------------------
#
# The group reader must read a group as the character-stepping reference
# does.  Raw arrow specs and fields each have a direct route in front of
# a general reader, and the route must give exactly what the general
# reader gives: the same style, fields and diagnostics.  Fields are
# compared in test_split_fields_matches_reference above.

GROUP_CLOSERS = ')]|/>}'
# plain text, control words, every escape the reader must take whole (an
# escaped closer and an escaped backslash among them), comments, line
# breaks, and the closers of other groups as text
GROUP_ATOMS = st.sampled_from(
    ['a', ' ', '0', '-', ',', '`', ';', '^', '_', '@', '\u00e9',
     '\\eta', '\\\\', '\\', '\\{', '\\}', '\\%', '\\ ', '\\\n',
     '%', '% c\n', '%}\n  ', '\n', '\n  ', '{', '}',
     *GROUP_CLOSERS, *('\\' + c for c in GROUP_CLOSERS)])


def group_bodies(depth=0):
    """Group text with braces nested up to two deep."""
    atoms = [GROUP_ATOMS]
    if depth < 2:
        atoms.append(group_bodies(depth + 1).map('{{{}}}'.format))
    return st.lists(st.one_of(atoms), max_size=8).map(''.join)


def read_group(text, at, closer):
    """What the scanner makes of the group opened at ``text[at]``."""
    scan = parser._Scanner(text, 'src.dxy')
    scan.pos = at + 1
    try:
        got = scan._group(at, closer, 'test group')
    except DiagnosticError as err:
        return ('error', err.code, err.message, err.loc, scan.opened)
    return ('ok', got, scan.pos, scan.opened)


def reference_read_group(text, at, closer):
    """:func:`read_group` by the character-stepping reference, stepped
    to the opener one character at a time so its line and column are
    right."""
    scan = ReferenceScanner(text, 'src.dxy')
    while scan.pos < at:
        scan.take()
    opened_at = scan.loc()
    scan.opened = scan.pos
    scan.take()
    try:
        got = scan.scan_group(closer, 'test group', opened_at)
    except DiagnosticError as err:
        return ('error', err.code, err.message, err.loc, scan.opened)
    return ('ok', got, scan.pos, scan.opened)


@settings(max_examples=400)
@given(st.sampled_from(['', 'ab\n', '\\bfig\n  \\square']), group_bodies(),
       st.sampled_from(GROUP_CLOSERS), st.sampled_from(['', 'x', '\n]}']),
       st.booleans())
@example('', 'a\\]b', ']', '', True)
@example('', '{a]b}', ']', '', True)
@example('', 'a% ]\n', ']', '', True)
@example('', 'a\nb', ']', '', True)
@example('', '\\\\', ']', '', True)
@example('', 'a\\', ']', '', False)
@example('x\n', '{a}b}', ']', '', True)
def test_group_reader_matches_the_reference_scanner(before, body, closer,
                                                    after, closed):
    text = before + '[' + body + (closer if closed else '') + after
    at = len(before)
    assert (read_group(text, at, closer)
            == reference_read_group(text, at, closer))


SPEC_NAMES = st.sampled_from(
    [*arrows._NAMES, 'x', '@', '>>', '{', '}', '\\>', '<-x', '@{>}', '{>}'])
SPEC_SUFFIXES = st.sampled_from(
    ['|-*@{|}', '|-*@{+}', '@<3pt>', '@<-2.722pt>', '@<0.5pt>', '@<-0pt>',
     '@<1.pt>', '@<.5pt>', '@<1234567890pt>', '@<1e3pt>', '@<3pt',
     '@<\u0663pt>', '|-*@{x}', '|-*@{|}}', 'x', '}', '{', '@{', '\\'])


@st.composite
def raw_specs(draw):
    """A table name or junk, wrapped in 0-3 layers of 0-3 suffixes."""
    spec = draw(SPEC_NAMES)
    for _ in range(draw(st.integers(0, 3))):
        suffixes = draw(st.lists(SPEC_SUFFIXES, max_size=3))
        spec = '@{%s}%s' % (spec, ''.join(suffixes))
    if draw(st.booleans()):
        spec = spec[:draw(st.integers(0, len(spec)))]
    return spec


def style_or_message(parse, spec):
    try:
        return parse(spec)
    except DiagnosticError as err:
        return (err.code, err.message, err.loc)


@settings(max_examples=400)
@given(raw_specs())
@example('@{->}|-*@{|}@<1pt>|-*@{+}@<-2pt>')
@example('@{->')
@example('@{<-}@<1234567890pt>')
@example('@{@{>}|-*@{|}}@<2pt>')
def test_spec_route_matches_the_general_reader(spec):
    assert (style_or_message(arrows.parse_arrow_spec, spec)
            == style_or_message(arrows._parse_general, spec))


@given(st.lists(st.sampled_from(['{', '}', 'a', '\\', '\\eta', '^', '\\}',
                                 '\\{', '\\\\']), max_size=10).map(''.join))
@example('{\\eta}^{1002}')
@example('{\\eta}')
@example('{a\\}')
@example('{}')
@example('{a}{b}')
def test_strip_group_matches_the_brace_scan(text):
    whole = text[:1] == '{' and reference_matching_brace(text, 0) == len(text) - 1
    assert strip_group(text) == (text[1:-1] if whole else text)


@pytest.fixture
def general_calls(monkeypatch):
    """Counts of calls into the group reader and each general reader."""
    calls = {}
    for owner, name in ((parser._Scanner, '_group'),
                        (parser, '_split_general'),
                        (arrows, '_parse_general')):
        def counted(*args, _real=getattr(owner, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


def many_files_source():
    """Figures shaped like the benchmark's many-files inputs: unique
    texts with control words and braces, raw specs with ticks and
    offsets, one constructor per figure."""
    bases = ['A', 'FB', 'G(X)', '\\alpha', '\\Sigma A', 'H\\otimes K',
             '\\bar{Q}', 'T^{2}']
    label_bases = ['f', '\\phi', 'g\\circ h', '\\eta', 'p', '\\lambda']
    names = [n for n in arrows._NAMES if '{' not in n]
    ticks = ['', '|-*@{|}', '|-*@{+}']
    serial = iter(range(1000, 100000))

    def node(k):
        return '%s_{%d}' % (bases[k % len(bases)], next(serial))

    def label(k):
        return '{%s}^{%d}' % (label_bases[k % len(label_bases)], next(serial))

    def spec(k):
        return '@{%s}%s@<%.3fpt>' % (names[k % len(names)],
                                     ticks[k % len(ticks)], k / 7 - 2)

    figures = []
    shapes = [('morphism', 1, 2, '<1200,-600>'), ('square', 4, 4, '<1200,500>'),
              ('Square', 4, 4, '<600>'), ('ptriangle', 3, 3, '<1200,500>'),
              ('hSquares', 7, 6, '<600>'), ('vSquares', 7, 6, '<600,500>')]
    k = 0
    for keyword, slots, n_nodes, spans in shapes * 3:
        specs = '`'.join(spec(k + i) for i in range(slots))
        nodes = '`'.join(node(k + i) for i in range(n_nodes))
        labels = '`'.join(label(k + i) for i in range(slots))
        figures.append('%% figure\n\\bfig\n\\%s(0,0)|%s|/%s/%s[%s;%s]\n\\efig\n'
                       % (keyword, 'a' * slots, specs, spans, nodes,
                          labels))
        k += slots
    return '\n'.join(figures)


def test_many_files_shapes_take_every_direct_route(general_calls):
    units = compile_source(many_files_source())
    assert len(units) == 18
    assert general_calls == {}


@pytest.mark.parametrize('source, reader', [
    ('\\bfig\\morphism[{A{B}}`C;f]\\efig', '_group'),
    ('\\bfig\\morphism[A`\n  C;f]\\efig', '_group'),
    ('\\bfig\\morphism[A`C;f % note\n]\\efig', '_group'),
    ('\\bfig\\morphism[A\\]`C;f]\\efig', '_group'),
    ('\\bfig\\morphism|a|/@{@{>}}/[A`C;f]\\efig', '_parse_general'),
    ('\\bfig\\morphism|a|/@{>}@<1.5pt>|-*@{x}/[A`C;f]\\efig',
     '_parse_general'),
    ('\\bfig\\morphism[A\\`B`C;f]\\efig', '_split_general'),
])
def test_other_shapes_take_the_general_reader(general_calls, source, reader):
    try:
        compile_source(source)
    except DiagnosticError:
        pass
    assert general_calls.get(reader, 0) >= 1


# ---- the statement route against the group readers --------------------

SHAPE_KEYWORDS = [keyword for keyword, how in parser._KEYWORDS.items()
                  if isinstance(how, parser._Plan)] + ['pullback', 'cube']


@st.composite
def shape_statements(draw):
    """A shape statement, each group there or not.  Now and then a field
    list is one off, a number or a text is odd, a blank, comment or line
    break stands between groups, or the statement is cut short."""
    def odd():
        return draw(st.integers(0, 39)) == 0

    def pick(usual, unusual):
        return draw(st.sampled_from(unusual if odd() else usual))

    def fields(usual, unusual, count, sep):
        if odd():
            count = max(0, count + draw(st.sampled_from([-1, 1])))
        return sep.join(pick(usual, unusual) for _ in range(count))

    def numbers(count):
        return fields(['0', '7', '500', '-600', '-0', '123456789',
                       '-123456789'],
                      ['+5', ' 5', '{5}', '1234567890', '-1234567890', '-',
                       '5x', '\u0663', ''], count, ',')

    def texts(count):
        return fields(['A', 'f', '\\alpha', "A'", '{\\eta}', 'X_{1}', '',
                       'a b', '\\`'],
                      ['{a{b}}', '\\]', '`', ';', '\n', '% c\n', '\\', '}',
                       '{', ']', '\\;'], count, '`')

    def group(text, optional=True):
        if optional and draw(st.booleans()) or not optional and odd():
            return ''
        return pick([''], [' ', '\n  ', '%c\n']) + text

    def shape(plan, origin=True):
        slots = len(plan.placements)
        text = group('(%s)' % numbers(2)) if origin else ''
        text += group('|%s|' % pick(
            [plan.placements, 'a' * slots, ' '.join(plan.placements)],
            ['ab', plan.placements + 'x']))
        text += group('/%s/' % fields(['>', '->>', ' >->', '@{->}@<1.5pt>'],
                                      ['{a/b}', '\\/', 'x\\', ''], slots, '`'))
        text += group('<%s>' % numbers(len(plan.spans)))
        if plan.border and draw(st.booleans()):
            mask = pick(['4095', '0', '12'],
                        ['1234567890', ' 5 ', '\u00b2', '', 'x'])
            text += group(draw(st.sampled_from(['{%s}', '%s'])) % mask)
            text += group('<%s>' % numbers(len(plan.border)))
        return text + group('[%s;%s]' % (texts(plan.n_nodes), texts(slots)),
                            optional=False)

    keyword = draw(st.sampled_from(SHAPE_KEYWORDS))
    if keyword == 'pullback':
        text = shape(parser._SQUARE_PLAN) + shape(parser._TRIDENT_PLAN, False)
    elif keyword == 'cube':
        text = (shape(parser._CUBE_PLAN) + shape(parser._SQUARE_PLAN)
                + '|mmmm|[w`x`y`z]')
    else:
        text = shape(parser._KEYWORDS[keyword])
    text = '\\' + keyword + text
    if odd():
        text = text[:draw(st.integers(0, len(text)))]
    return '\\bfig\n' + text + pick(['\n\\efig'], ['', ']'])


def read_statements(parser_class, text):
    """Each statement with its locations and the scanner's offsets after
    it, up to the first diagnostic."""
    reader = parser_class(text, 'src.dxy')
    scan = reader.scan
    read = []
    try:
        while True:
            scan.skip_blank()
            if not scan.peek():
                return read
            stmt = reader._statement()
            read.append((stmt, _locs(stmt), scan.pos, scan.opened))
    except DiagnosticError as err:
        read.append(('error', err.code, err.message, err.loc,
                     err.constructor, scan.pos, scan.opened))
    return read


@settings(max_examples=600)
@given(shape_statements())
@example('\\bfig\n\\square(0,-600)|alrb|/>`>`>`>/<500,500>[A`B`C`D;f`g`h`k]')
@example('\\bfig\n\\iiixiii(0,0)|aalmrmmlmrbb|/>`>`>`>`>`>`>`>`>`>`>`>/'
         '<500,500>{1234567890}' + GRID_PAYLOAD_3X3)
@example('\\bfig\n\\iiixii(0,0)7<350>' + GRID_PAYLOAD_3X2)
@example('\\bfig\n\\square(1234567890,0)[A`B`C`D;f`g`h`k]')
@example('\\bfig\n\\square<500,500>{4095}[A`B`C`D;f`g`h`k]')
@example('\\bfig\n\\morphism(0,0)[A`{B]`C};f]')
@example('\\bfig\n\\pullback[A`B`C`D;f`g`h`k](0,0)[E;p`q`r]')
@example('\\bfig\n\\morphism/x\\/[A`B;f]')
@example('\\bfig\n\\morphism/{x/[A`B;f]}/[A`B;f]')
@example('\\bfig\n\\morphism/>[A`B;f]')
def test_statement_route_matches_the_group_readers(text):
    assert (read_statements(parser._Parser, text)
            == read_statements(GroupParser, text))


@pytest.fixture
def route_calls(monkeypatch):
    """What the statement route returned, one entry per shape read:
    True where it read the shape, False where it fell through."""
    taken = []
    real = parser._Parser._flat_shape

    def counted(self, *args):
        statement = real(self, *args)
        taken.append(statement is not None)
        return statement
    monkeypatch.setattr(parser._Parser, '_flat_shape', counted)
    return taken


def big_figure_source():
    """Shapes written as the benchmark's big-figure inputs write them:
    every group, negative coordinates, grids with a braced mask and a
    border, and a pullback's trident right after its square."""
    payload4 = '[A`B`C`X_1;f`\\alpha`{\\eta}`Ff]'
    return '\n'.join([
        '\\bfig',
        '\\square(0,-2400)|albr|/>`->>` >->`<-/<600,500>' + payload4,
        '\\ptriangle(2400,-2400)|rla|/=`-->`..>/<600,500>'
        '[A\\times B`P`Y_2;\\pi_1`g`h]',
        '\\morphism(3000,-1800)|m|/=>/<-600,-600>[FA`GB;u]',
        '\\iiixiii(400,-4400)|aalmrmmlmrbb|/>`>`>`>`>`>`>`>`>`>`>`>/'
        '<500,500>{2730}<350,350>' + GRID_PAYLOAD_3X3,
        '\\pullback(600,0)|alrb|/>`>`>`>/<600,500>' + payload4
        + '|alr|/>`->>`>/<500,400>[E;p`q`r]',
        '\\efig'])


def test_benchmark_shapes_take_the_statement_route(route_calls):
    statements = parse_document(big_figure_source() + many_files_source())
    shapes = [s for s in statements if s.constructor not in ('bfig', 'efig')]
    assert len(shapes) == 5 + 18
    # the pullback reads two shapes
    assert route_calls == [True] * (len(shapes) + 1)


@pytest.mark.parametrize('source', [
    # a blank, a comment or a line break between groups
    '\\square (0,0)[A`B`C`D;f`g`h`k]',
    '\\square(0,0) [A`B`C`D;f`g`h`k]',
    '\\square(0,0)% c\n[A`B`C`D;f`g`h`k]',
    '\\square(0,0)\n<500,500>[A`B`C`D;f`g`h`k]',
    # ... or inside one
    '\\square[A`B`C`D;f`g`\n h`k]',
    '\\square[A`B`C`D;f`g`h`k % c\n]',
    # a nested brace, an escaped closer, a brace in a plain group
    '\\square[{A{B}}`B`C`D;f`g`h`k]',
    '\\square[A\\]`B`C`D;f`g`h`k]',
    '\\square/>`>`>`\\//[A`B`C`D;f`g`h`k]',
    '\\square(0,{5})[A`B`C`D;f`g`h`k]',
    # a number that is no integer, or one of too many digits
    '\\square(0,5x)[A`B`C`D;f`g`h`k]',
    '\\square<1234567890,500>[A`B`C`D;f`g`h`k]',
    # a mask the route does not read
    '\\iiixiii{ 5 }' + GRID_PAYLOAD_3X3,
    # an origin group where the shape has none, a mask on a shape
    # without one
    '\\pullback[A`B`C`D;f`g`h`k](0,0)[E;p`q`r]',
    '\\square<500,500>{5}[A`B`C`D;f`g`h`k]',
])
def test_irregular_shapes_fall_through_the_statement_route(route_calls,
                                                           source):
    try:
        parse_document(source)
    except DiagnosticError:
        pass
    assert False in route_calls
