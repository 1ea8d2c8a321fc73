import pytest
from hypothesis import given, strategies as st

from diagramc.lowering import lower_document
from diagramc.model import (
    ORIGIN,
    ArrowInstance,
    ArrowStyle,
    LogicalPoint,
    Memo,
    NodeInstance,
    RenderConfig,
    Scene,
    to_physical,
    translate,
)
from diagramc.parser import parse_document


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
    scene = lower_document(parse_document(source))[-1]
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


def test_translate_moves_nodes_and_arrows():
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
    assert arrow.span() == (3, -2)
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
