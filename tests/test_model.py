import copy
import inspect
import math
import pickle
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from diagramc.errors import SourceLoc
from diagramc.layout import Label, NodeBox, ResolvedArrow, ResolvedScene
from diagramc.lowering import Lowerer, _Walk
from diagramc.metrics import MetricsTable
from diagramc.model import (
    MAX_SETTING,
    MIN_SETTING,
    ORIGIN,
    ArrowInstance,
    ArrowStyle,
    InlineArrowPart,
    InlineFragment,
    LogicalPoint,
    Memo,
    NodeInstance,
    Record,
    RenderConfig,
    Scene,
    to_physical,
)
from diagramc.parser import Statement, _Plan, parse_document


def test_point_arithmetic():
    p = LogicalPoint(3, -4)
    assert p.shifted(0, 4) == LogicalPoint(3, 0)


def test_to_physical_known_values():
    cfg = RenderConfig()
    assert to_physical(LogicalPoint(500, -250), cfg) == (50.0, -25.0)
    assert to_physical(ORIGIN, cfg) == (0.0, 0.0)
    narrow = RenderConfig(em_pt=7.5)
    assert to_physical(LogicalPoint(100, 0), narrow) == (7.5, 0.0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_to_physical_is_deterministic(x, y):
    cfg = RenderConfig(em_pt=11.3)
    p = LogicalPoint(x, y)
    assert to_physical(p, cfg) == to_physical(LogicalPoint(x, y), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(em_pt=0)
    with pytest.raises(ValueError):
        RenderConfig(object_margin_pt=-1)
    with pytest.raises(ValueError):
        RenderConfig(label_scale=0)


def test_axis_defaults_to_quarter_em():
    assert RenderConfig().axis == 2.5
    assert RenderConfig(em_pt=8.0).axis == 2.0


def _node(x, y, text, phantom=False):
    return NodeInstance(LogicalPoint(x, y), text, phantom=phantom)


def figure_nodes(source):
    """(text, x, y, anchor, phantom) of each node of the last figure."""
    scene = Lowerer().lower_document(parse_document(source))[-1]
    return [(n.text, n.pos.x, n.pos.y, n.anchor, n.phantom)
            for n in scene.nodes]


def test_dedupe_keeps_first_occurrence():
    nodes = figure_nodes('\\bfig \\place(0,0)[A] \\place(500,0)[B] '
                         '\\place(0,0)[A] \\place(0,0)[C] \\efig')
    assert [text for text, *_ in nodes] == ['A', 'B', 'C']


def test_dedupe_promotes_phantom_in_place():
    # \arrow places both ends as phantoms; \place then makes P real
    nodes = figure_nodes(
        '\\bfig \\node p(0,0)[P] \\node q(500,0)[Q] \\efig\n'
        '\\bfig \\arrow/->/[p`q;f] \\place(0,0)[P] \\efig')
    assert nodes == [('P', 0, 0, 'center', False),
                     ('Q', 500, 0, 'center', True)]


def test_dedupe_respects_anchor_in_key():
    nodes = figure_nodes('\\bfig \\place(0,0)[A] \\place[l](0,0)[A] '
                         '\\place(0,0)[A] \\efig')
    assert [anchor for _, _, _, anchor, _ in nodes] == ['center', 'l']


def test_translate_moves_nodes_and_arrows(translate):
    scene = Scene(
        nodes=(_node(0, 0, 'A'), _node(500, 0, 'B')),
        arrows=(ArrowInstance(ORIGIN, LogicalPoint(500, 0), ArrowStyle(),
                              src_text='A', dst_text='B'),),
        inlines=())
    moved = translate(scene, 10, -20)
    assert moved.nodes[0].pos == LogicalPoint(10, -20)
    assert moved.arrows[0].dst == LogicalPoint(510, -20)
    assert moved.arrows[0].style == scene.arrows[0].style


def test_arrow_span_and_loop_flag():
    arrow = ArrowInstance(LogicalPoint(2, 3), LogicalPoint(5, 1), ArrowStyle())
    assert not arrow.is_loop
    loop = ArrowInstance(ORIGIN, ORIGIN, ArrowStyle(), loop_out='u',
                         loop_in='r')
    assert loop.is_loop


def test_memo_calls_its_function_once_per_distinct_key():
    calls = []

    def square(n):
        calls.append(n)
        return n * n

    memo = Memo(square)
    assert [memo[n] for n in (3, 4, 3, 3, 4, 5)] == [9, 16, 9, 9, 16, 25]
    assert calls == [3, 4, 5]
    assert memo == {3: 9, 4: 16, 5: 25}


def test_a_memo_miss_that_raises_stores_nothing():
    calls = []

    def fail(key):
        calls.append(key)
        raise ValueError(key)

    memo = Memo(fail)
    for _ in range(2):
        with pytest.raises(ValueError):
            memo['x']
    assert calls == ['x', 'x']
    assert memo == {}


# ---- records -----------------------------------------------------------------

P, Q = LogicalPoint(1, 2), LogicalPoint(3, 4)
STYLE = ArrowStyle('mono', 'dashed', 'double_head', 'tick', 2.5, True)
LOC = SourceLoc('a.dxy', 2, 7)
LABEL = Label(1.0, 2.0, 'f', 'left', 5.0, 10.0)
BOX = NodeBox(1.0, 2.0, 3.0, 4.0, 2.0, 3.0, 'A')

# the arguments of one record of each class, one per slot, in slot order
SAMPLES = {
    LogicalPoint: (3, -4),
    RenderConfig: (11.0, 2.0, 0.5),
    ArrowStyle: ('mono', 'dashed', 'double_head', 'tick', 2.5, True),
    NodeInstance: (P, 'A', 'l', True),
    ArrowInstance: (P, Q, STYLE, 'f', 'a', 'A', 'B', 'u', 'r', LOC, 'square'),
    InlineArrowPart: (STYLE, 'x', 'y', 'z'),
    InlineFragment: ('two', P, (InlineArrowPart(STYLE),), 0.1, 0.8, 2.0),
    Scene: ((NodeInstance(P, 'A'),), (ArrowInstance(P, Q, STYLE),), ()),
    SourceLoc: ('a.dxy', 2, 7),
    NodeBox: (1.0, 2.0, 3.0, 4.0, 2.0, 3.0, 'A', True),
    Label: (1.0, 2.0, 'f', 'left', 5.0, 10.0, (0.0, 1.0, 2.0, 3.0)),
    ResolvedArrow: ((0.0, 1.0), (2.0, 3.0), STYLE, (LABEL,),
                    ((1.0, 1.0), (2.0, 2.0)), 0.8),
    ResolvedScene: ((BOX,), ()),
    MetricsTable: ({'A': 600}, 400, 800, 200),
    Statement: ('square', P, 'alrb', ('>',) * 4, (500, 500),
                ('A', 'B', 'C', 'D'), ('f', 'g', 'h', 'k'), 5, (400,),
                None, None, None, 'n', 'l', 'u', 'd', 300, 's', 't', 'm', LOC),
    _Plan: ('alrb', (500, 500), 4, (400, 400)),
    _Walk: (((0, 0), (1, 1)), ((0, 0, 1),), True),
}
RECORDS = sorted(SAMPLES, key=lambda cls: cls.__name__)


def fields(cls):
    """The slots a record's constructor fills from its arguments; a
    private slot is worked out from them."""
    return [name for name in cls.__slots__ if not name.startswith('_')]

# fields carried along for diagnostics but left out of equality
OUTSIDE = {ArrowInstance: {'loc', 'constructor'}, Statement: {'loc'}}


def other(value):
    """A value unequal to ``value``, of a type its field takes."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, LogicalPoint):
        return value.shifted(1, 1)
    if isinstance(value, ArrowStyle):
        return ArrowStyle()
    if isinstance(value, SourceLoc):
        return SourceLoc(value.file, value.line + 1, value.col)
    if isinstance(value, dict):
        return {**value, 'Z': 1}
    if value is None:
        return 'n'
    if isinstance(value, str):
        return value + '!'
    return value + (None,)   # a tuple


def test_every_record_class_has_a_sample():
    assert set(Record.__subclasses__()) == set(SAMPLES)


@pytest.mark.parametrize('cls', RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_holds_what_it_was_given(cls):
    # by position, and by keyword for every field but the first
    named = dict(zip(fields(cls), SAMPLES[cls]))
    first = named.pop(fields(cls)[0])
    for record in (cls(*SAMPLES[cls]), cls(first, **named)):
        assert tuple(getattr(record, name) for name in fields(cls)) == \
            SAMPLES[cls]


@pytest.mark.parametrize('cls', RECORDS, ids=lambda cls: cls.__name__)
def test_equal_value_fields_make_equal_records(cls):
    values = SAMPLES[cls]
    a, b = cls(*values), cls(*pickle.loads(pickle.dumps(values)))
    assert a == b and not a != b
    if cls is MetricsTable:   # its advances, a mapping, do not hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    for i, name in enumerate(fields(cls)):
        changed = cls(*values[:i], other(values[i]), *values[i + 1:])
        if name in OUTSIDE.get(cls, ()):
            assert changed == a and hash(changed) == hash(a), name
            assert name not in repr(changed)
        else:
            assert changed != a and not changed == a, name


def test_records_of_different_classes_never_compare_equal():
    records = [cls(*SAMPLES[cls]) for cls in RECORDS]
    for a in records:
        for b in records:
            assert (a == b) == (a is b)
        assert a != tuple(getattr(a, name) for name in a._values)
    # the same field values in two classes
    assert SourceLoc('a', 1, 2) != _Walk('a', 1, 2)
    assert LogicalPoint(1, 2) != ResolvedScene(1, 2)


@pytest.mark.parametrize('cls', RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_cannot_be_changed(cls):
    record = cls(*SAMPLES[cls])
    for name in (*cls.__slots__, 'other'):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*SAMPLES[cls])


@pytest.mark.parametrize('cls', RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_copies_and_pickles_whole(cls):
    record = cls(*SAMPLES[cls])
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record
        assert [getattr(twin, name) for name in fields(cls)] == \
            list(SAMPLES[cls])


@pytest.mark.parametrize('cls', RECORDS, ids=lambda cls: cls.__name__)
def test_no_way_of_building_a_record_leaves_it_its_twin(cls, tmp_path):
    # the filler lends each record its class's twin while it stores
    named = dict(zip(fields(cls), SAMPLES[cls]))
    required = [p.name for p in inspect.signature(cls).parameters.values()
                if p.default is p.empty]
    record = cls(*SAMPLES[cls])
    built = [record, cls(**named), cls(**{n: named[n] for n in required}),
             copy.copy(record), copy.deepcopy(record),
             pickle.loads(pickle.dumps(record))]
    if cls is MetricsTable:
        path = tmp_path / 'a.metrics'
        path.write_text('A 600\nfallback 400\n', encoding='utf-8')
        built += [MetricsTable.builtin(), MetricsTable.from_file(str(path))]
    for made in built:
        assert type(made) is cls
        for name in (cls.__slots__[0], 'other'):
            with pytest.raises(AttributeError):
                setattr(made, name, None)
            with pytest.raises(AttributeError):
                delattr(made, name)


def test_statements_that_differ_only_in_loc_compare_equal():
    first, second = parse_document('\\square[A`B`C`D;f`g`h`k]\n'
                                   '  \\square[A`B`C`D;f`g`h`k]\n', 'a.dxy')
    assert (first.loc.line, second.loc.line, second.loc.col) == (1, 2, 3)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)


@pytest.mark.parametrize('setting', ['em_pt', 'object_margin_pt',
                                     'label_scale'])
@pytest.mark.parametrize('value', [math.nan, math.inf, -math.inf])
def test_render_config_rejects_values_that_are_not_finite(setting, value):
    with pytest.raises(ValueError, match='%s must be finite' % setting):
        RenderConfig(**{setting: value})


@pytest.mark.parametrize('setting, value', [
    ('em_pt', 0.0), ('em_pt', -1.0), ('label_scale', 0.0),
    ('label_scale', -2.0), ('object_margin_pt', -0.5),
    ('em_pt', 5e-324), ('label_scale', 9.9e-7),
    ('em_pt', 1.000001e6), ('object_margin_pt', 1e7), ('label_scale', 1e306)])
def test_render_config_rejects_sizes_out_of_range(setting, value):
    with pytest.raises(ValueError, match=setting):
        RenderConfig(**{setting: value})
    assert RenderConfig(object_margin_pt=0.0).object_margin_pt == 0.0


def test_render_config_takes_its_bounds():
    assert RenderConfig(MIN_SETTING, 0.0, MIN_SETTING) == \
        RenderConfig(1e-6, 0.0, 1e-6)
    assert RenderConfig(MAX_SETTING, MAX_SETTING, MAX_SETTING).em_pt == 1e6


def test_each_metrics_table_gets_its_own_advances():
    a, b = MetricsTable(), MetricsTable.builtin()
    assert a.advances == b.advances and a.advances is not b.advances


def test_the_builtin_table_is_made_once():
    # a library caller that passes no table pays for none
    assert MetricsTable.builtin() is MetricsTable.builtin()
    assert Lowerer().metrics is MetricsTable.builtin()


def test_a_metrics_table_cannot_be_changed_through_its_advances():
    given = {'A': 600}
    table = MetricsTable(given)
    with pytest.raises(TypeError):
        table.advances['A'] = 900
    with pytest.raises(TypeError):
        del table.advances['A']
    given['A'] = 900    # the table holds its own copy
    assert table.text_advance('AA') == 1200
    assert table.advances == {'A': 600}


def test_a_metrics_table_reads_tokens_through_its_own_dict():
    table = MetricsTable({'A': 600, '\\eta': 900}, fallback=400)
    behind = table._get.__self__
    assert type(behind) is dict and behind == table.advances
    assert isinstance(table.advances, MappingProxyType)
    assert table.text_advance('A\\eta A') == 600 + 900 + 400 + 600
    # the getter is no field: equality, hash, repr, copies and pickles
    # go by the four fields alone, and each copy reads its own dict
    assert table == MetricsTable({'A': 600, '\\eta': 900}, fallback=400)
    assert repr(table) == ("MetricsTable(advances=mappingproxy({'A': 600, "
                           "'\\\\eta': 900}), fallback=400, ascent=700, "
                           "descent=300)")
    for twin in (copy.copy(table), copy.deepcopy(table),
                 pickle.loads(pickle.dumps(table))):
        assert twin == table and repr(twin) == repr(table)
        assert isinstance(twin.advances, MappingProxyType)
        assert twin._get.__self__ == behind
        assert twin._get.__self__ is not behind
        assert twin.text_advance('A\\eta A') == 2500
    with pytest.raises(TypeError):
        hash(table)


def test_record_repr_names_each_value_field():
    assert repr(LogicalPoint(3, -4)) == 'LogicalPoint(x=3, y=-4)'
    assert repr(SourceLoc('a.dxy', 1, 2)) == \
        "SourceLoc(file='a.dxy', line=1, col=2)"
