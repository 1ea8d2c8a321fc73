import pytest
from hypothesis import given, strategies as st

from diagramc.model import (
    ORIGIN,
    ArrowInstance,
    ArrowStyle,
    LogicalPoint,
    Memo,
    NodeInstance,
    RenderConfig,
    Scene,
    dedupe_nodes,
    to_physical,
    translate,
)


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


def test_dedupe_keeps_first_occurrence():
    scene = Scene(
        nodes=(_node(0, 0, 'A'), _node(1, 0, 'B'), _node(0, 0, 'A'),
               _node(0, 0, 'C')),
        arrows=(), inlines=())
    out = dedupe_nodes(scene)
    assert [n.text for n in out.nodes] == ['A', 'B', 'C']


def test_dedupe_promotes_phantom_in_place():
    scene = Scene(
        nodes=(_node(0, 0, 'A', phantom=True), _node(1, 0, 'B'),
               _node(0, 0, 'A')),
        arrows=(), inlines=())
    out = dedupe_nodes(scene)
    assert [n.text for n in out.nodes] == ['A', 'B']
    assert not out.nodes[0].phantom


def test_dedupe_respects_anchor_in_key():
    scene = Scene(
        nodes=(_node(0, 0, 'A'),
               NodeInstance(LogicalPoint(0, 0), 'A', anchor='l')),
        arrows=(), inlines=())
    assert len(dedupe_nodes(scene).nodes) == 2


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
