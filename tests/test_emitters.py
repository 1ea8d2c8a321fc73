"""Scene JSON and SVG emitters: golden bytes, structure, determinism."""

import json
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings, strategies as st

from diagramc import compile_source, dump_scene
from diagramc import scenefile
from diagramc import svg as svg_module
from diagramc.model import (ArrowInstance, ArrowStyle, InlineArrowPart,
                            InlineFragment, LogicalPoint, Memo, NodeInstance,
                            Scene)
from diagramc.svg import render
from scene_oracle import scene_dict

GOLDEN_SCENE = '''\
{
  "nodes": [
    {
      "pos": {
        "x": 0,
        "y": 0
      },
      "text": "A",
      "anchor": "center",
      "phantom": false
    },
    {
      "pos": {
        "x": 500,
        "y": 0
      },
      "text": "B",
      "anchor": "center",
      "phantom": false
    }
  ],
  "arrows": [
    {
      "from": {
        "x": 0,
        "y": 0
      },
      "to": {
        "x": 500,
        "y": 0
      },
      "style": {
        "tail": "none",
        "shaft": "solid",
        "head": "normal",
        "mid": "none",
        "parallel_offset_pt": 0.0,
        "reversed": false
      },
      "label": "f",
      "label_rule": "a",
      "source_extent": "A",
      "target_extent": "B",
      "loop_out": null,
      "loop_in": null
    }
  ],
  "inlines": []
}
'''

GOLDEN_SVG = '''\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="-10.5 -17 \
71 30.5" width="71pt" height="30.5pt" font-family="Georgia, 'Times New \
Roman', serif">
  <g class="arrows">
    <g class="arrow">
      <line class="shaft" x1="5.5" y1="0" x2="44.5" y2="0" stroke="#000" \
stroke-width="0.4" fill="none" />
      <path class="head" d="M 44.5 0 L 40.5 -1.5 L 42.1 0 L 40.5 1.5 Z" \
fill="#000" />
      <text class="label" x="25" y="-5" text-anchor="middle" \
font-size="10">f</text>
    </g>
  </g>
  <g class="nodes">
    <text class="node" x="0" y="2.5" text-anchor="middle" \
font-size="10">A</text>
    <text class="node" x="50" y="2.5" text-anchor="middle" \
font-size="10">B</text>
  </g>
</svg>
'''


def one_scene(source):
    scenes = compile_source(source)
    assert len(scenes) == 1
    return scenes[0]


def svg_root(source):
    return ET.fromstring(render(one_scene(source)))


def local(tag):
    return tag.rsplit('}', 1)[-1]


def by_class(root, cls):
    return [el for el in root.iter() if el.get('class') == cls]


# ---- scene JSON ------------------------------------------------------------

def test_scene_golden_bytes():
    scene = one_scene('\\bfig\\morphism[A`B;f]\\efig')
    assert dump_scene(scene) == GOLDEN_SCENE


def test_scene_is_valid_json_with_stable_key_order():
    scene = one_scene('\\bfig\\square[A`B`C`D;f`g`h`k]\\efig')
    data = json.loads(dump_scene(scene))
    assert list(data) == ['nodes', 'arrows', 'inlines']
    assert list(data['nodes'][0]) == ['pos', 'text', 'anchor', 'phantom']
    assert list(data['arrows'][0]) == [
        'from', 'to', 'style', 'label', 'label_rule',
        'source_extent', 'target_extent', 'loop_out', 'loop_in']
    assert list(data['arrows'][0]['style']) == [
        'tail', 'shaft', 'head', 'mid', 'parallel_offset_pt', 'reversed']


def test_scene_dict_matches_dump():
    scene = one_scene('\\bfig\\Loop(0,0){A}(ul,ur)\\efig')
    data = json.loads(dump_scene(scene))
    assert data == scene_dict(scene)
    arrow = data['arrows'][0]
    assert (arrow['loop_out'], arrow['loop_in']) == ('ul', 'ur')


def test_inline_fragment_serialization():
    scene = one_scene('\\three^f|m_g')
    data = json.loads(dump_scene(scene))
    assert data == scene_dict(scene)
    fragment = data['inlines'][0]
    assert list(fragment) == ['kind', 'end', 'unit_scale', 'tip_scale',
                              'raise_pt', 'arrows']
    assert fragment['kind'] == 'three'
    assert fragment['end'] == {'x': 300, 'y': 0}
    assert [p['mid'] for p in fragment['arrows']] == ['m', '', '']
    assert [p['style']['parallel_offset_pt']
            for p in fragment['arrows']] == [0.0, 4.5, -4.5]


def test_unicode_survives_unescaped():
    scene = one_scene('\\bfig\\place(0,0)[α]\\efig')
    text = dump_scene(scene)
    assert 'α' in text and '\\u' not in text


def test_dump_ends_with_one_newline():
    text = dump_scene(one_scene('\\bfig\\efig'))
    assert text.endswith('}\n') and not text.endswith('\n\n')


def test_recompilation_is_byte_identical():
    source = '\\bfig\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][x`y`z`w]\\efig'
    first = dump_scene(one_scene(source))
    second = dump_scene(one_scene(source))
    assert first == second
    assert render(one_scene(source)) == render(one_scene(source))


# ---- SVG -------------------------------------------------------------------

def test_svg_golden_bytes():
    assert render(one_scene('\\bfig\\morphism[A`B;f]\\efig')) == GOLDEN_SVG


def test_svg_is_well_formed_with_frame():
    root = svg_root('\\bfig\\square[A`B`C`D;f`g`h`k]\\efig')
    assert local(root.tag) == 'svg'
    assert root.get('version') == '1.1'
    assert root.get('width').endswith('pt')
    assert root.get('height').endswith('pt')
    numbers = [float(v) for v in root.get('viewBox').split()]
    assert len(numbers) == 4
    assert numbers[2] > 0 and numbers[3] > 0
    assert 'Georgia' in root.get('font-family')


def test_svg_groups_arrows_before_nodes():
    root = svg_root('\\bfig\\morphism[A`B;f]\\efig')
    groups = [el.get('class') for el in root if local(el.tag) == 'g']
    assert groups == ['arrows', 'nodes']


def test_svg_empty_scene_fallback_frame():
    text = render(Scene())
    root = ET.fromstring(text)
    assert root.get('viewBox') == '0 0 10 10'
    assert by_class(root, 'node') == []


def test_svg_named_nodes_paint_where_defined():
    scenes = compile_source(
        '\\bfig\\node p(0,0)[A]\\node q(600,0)[B]\\efig\n'
        '\\bfig\\arrow/->/[p`q;f]\\efig')
    root = ET.fromstring(render(scenes[0]))
    assert len(by_class(root, 'node')) == 2


def test_svg_phantom_only_scene_has_no_node_text():
    scenes = compile_source(
        '\\bfig\\node p(0,0)[A]\\node q(600,0)[B]\\efig\n'
        '\\bfig\\arrow/->/[p`q;f]\\efig')
    root = ET.fromstring(render(scenes[1]))
    assert by_class(root, 'node') == []
    assert len(by_class(root, 'shaft')) == 1


def test_svg_dash_patterns():
    root = svg_root('\\bfig\\morphism/-->/[A`B;f]\\efig')
    shaft, = by_class(root, 'shaft')
    assert shaft.get('stroke-dasharray') == '4 2'
    root = svg_root('\\bfig\\morphism/..>/[A`B;f]\\efig')
    shaft, = by_class(root, 'shaft')
    assert shaft.get('stroke-dasharray') == '1 2'


def test_svg_double_shaft_and_double_head():
    root = svg_root('\\bfig\\morphism/=>/[A`B;f]\\efig')
    assert len(by_class(root, 'shaft')) == 2
    root = svg_root('\\bfig\\morphism/->>/[A`B;f]\\efig')
    assert len(by_class(root, 'head')) == 2


def test_svg_hook_tail_is_an_arc_and_shortens_the_shaft():
    root = svg_root('\\bfig\\morphism/ (->/[A`B;f]\\efig')
    tail, = by_class(root, 'tail')
    assert ' A ' in tail.get('d')
    shaft, = by_class(root, 'shaft')
    assert float(shaft.get('x1')) == pytest.approx(9.5)   # 5.5 clip + 4 tip


def test_svg_reversed_spec_points_at_the_source():
    root = svg_root('\\bfig\\morphism/<-/[A`B;f]\\efig')
    head, = by_class(root, 'head')
    assert head.get('d').startswith('M 5.5 ')


def test_svg_mid_glyphs():
    root = svg_root('\\bfig\\morphism/@{>}|-*@{|}/[A`B;f]\\efig')
    assert len(by_class(root, 'mid')) == 1
    root = svg_root('\\bfig\\morphism/@{>}|-*@{+}/[A`B;f]\\efig')
    assert len(by_class(root, 'mid')) == 2


def test_svg_loop_draws_a_cubic():
    root = svg_root('\\bfig\\Loop(0,0){A}(ul,ur)\\efig')
    shaft, = by_class(root, 'shaft')
    assert ' C ' in shaft.get('d')


def test_svg_mid_label_backing_rect():
    root = svg_root('\\bfig\\morphism|m|[A`B;f]\\efig')
    backing, = by_class(root, 'backing')
    assert backing.get('fill') == '#fff'
    label, = by_class(root, 'label')
    assert label.text == 'f'


def test_svg_has_no_external_references():
    text = render(one_scene(
        '\\bfig\\square/ >->` (->`|->`=>/[A`B`C`D;f`g`h`k]\\efig'))
    assert 'href' not in text
    assert 'script' not in text
    assert text.count('http') == 1   # the svg namespace


def test_svg_coordinates_are_trimmed():
    text = render(one_scene('\\bfig\\Diamond[A`B`C`D;f`g`h`k]\\efig'))
    body = text.split('\n', 1)[1]   # keep the xml declaration out of it
    for value in re.findall(r'"(-?[0-9.]+)"', body):
        assert not re.fullmatch(r'-0(\.0*)?', value)
        if '.' in value:
            assert len(value.split('.')[1]) <= 3
            assert not value.endswith('0')


def test_svg_label_scale_sets_font_size():
    from diagramc.model import RenderConfig
    cfg = RenderConfig(label_scale=0.7)
    scene = compile_source('\\bfig\\morphism[A`B;f]\\efig', config=cfg)[0]
    root = ET.fromstring(render(scene, cfg=cfg))
    label, = by_class(root, 'label')
    assert label.get('font-size') == '7'
    node = by_class(root, 'node')[0]
    assert node.get('font-size') == '10'


# ---- string writers against the generic encoders ---------------------------

XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>\n'
SVG_NS = ' xmlns="http://www.w3.org/2000/svg"'

# quotes, backslash, controls (legal in XML or not), a line separator,
# non-ASCII, markup, and the format-string sigil of the writers' templates
TRICKY = '"\\\x00\x01\x1f\x7f\t\n\r αé→&<>%{} a'


def xml_safe(text):
    """True when an XML parser gives ``text`` back unchanged."""
    return all(c in '\t\n' or c >= ' ' for c in text)


def reference_json(scene):
    return json.dumps(scene_dict(scene), indent=2,
                      ensure_ascii=False) + '\n'


def reference_svg(text):
    """``text`` reparsed and written back by ElementTree, which the SVG
    writer once used; equal bytes mean the same tree, the same escaping
    and the same indentation."""
    root = ET.fromstring(text[len(XML_DECL):].replace(SVG_NS, '', 1))
    ET.indent(root, space='  ')
    body = ET.tostring(root, encoding='unicode')
    return XML_DECL + body.replace('<svg', '<svg' + SVG_NS, 1) + '\n'


texts = st.text(alphabet=TRICKY, max_size=6)


@st.composite
def scenes(draw):
    node_texts = draw(st.lists(texts, min_size=1, max_size=4))
    # far apart, so no two boxes crowd one another
    nodes = tuple(NodeInstance(LogicalPoint(3000 * i, 0), t)
                  for i, t in enumerate(node_texts))
    arrows = tuple(
        ArrowInstance(a.pos, b.pos, ArrowStyle(), label=draw(texts),
                      label_rule='a', src_text=a.text, dst_text=b.text)
        for a, b in zip(nodes, nodes[1:]))
    parts = tuple(InlineArrowPart(ArrowStyle(), draw(texts), draw(texts),
                                  draw(texts))
                  for _ in range(draw(st.integers(0, 2))))
    inlines = (InlineFragment('to', LogicalPoint(300, 0), parts),) if parts \
        else ()
    return Scene(nodes, arrows, inlines)


def svg_texts(root, cls):
    return [el.text or '' for el in by_class(root, cls)]


@settings(max_examples=200, deadline=None)
@given(scenes())
def test_writers_match_generic_encoders_on_tricky_text(scene):
    text = dump_scene(scene)
    assert text == reference_json(scene)
    assert json.loads(text) == scene_dict(scene)

    document = render(scene)
    nodes = [n.text for n in scene.nodes if n.text]
    labels = [a.label for a in scene.arrows if a.label]
    for fragment in scene.inlines:
        for part in fragment.parts:
            labels += [t for t in (part.sup, part.sub, part.mid) if t]
    if all(xml_safe(t) for t in nodes + labels):
        root = ET.fromstring(document)
        assert svg_texts(root, 'node') == nodes
        assert svg_texts(root, 'label') == labels
        assert document == reference_svg(document)
    else:
        # XML 1.0 has no way to carry these characters; the writer passes
        # them through, escaping only markup, as ElementTree did
        for t in nodes + labels:
            escaped = (t.replace('&', '&amp;').replace('<', '&lt;')
                       .replace('>', '&gt;'))
            assert '>%s</text>' % escaped in document


def test_invisible_headless_unlabelled_arrow_is_an_empty_group():
    a, b = LogicalPoint(0, 0), LogicalPoint(500, 0)
    scene = Scene(
        (NodeInstance(a, 'A'), NodeInstance(b, 'B')),
        (ArrowInstance(a, b, ArrowStyle(shaft='invisible', head='none'),
                       src_text='A', dst_text='B'),))
    document = render(scene)
    assert ('  <g class="arrows">\n    <g class="arrow" />\n  </g>\n'
            in document)
    assert document == reference_svg(document)


def test_empty_groups_self_close():
    assert render(Scene()) == (
        XML_DECL + '<svg' + SVG_NS + ' version="1.1" viewBox="0 0 10 10" '
        'width="10pt" height="10pt" font-family="Georgia, \'Times New '
        'Roman\', serif">\n  <g class="arrows" />\n  <g class="nodes" />\n'
        '</svg>\n')
    scene = Scene((NodeInstance(LogicalPoint(0, 0), 'A', phantom=True),),
                  (ArrowInstance(LogicalPoint(0, 0), LogicalPoint(500, 0),
                                 ArrowStyle()),))
    document = render(scene)
    assert document.endswith('    </g>\n  </g>\n  <g class="nodes" />\n'
                             '</svg>\n')
    assert document == reference_svg(document)


def test_empty_text_self_closes():
    fmt = svg_module._fmt
    assert [svg_module._text(fmt, 'label', 1.0, 2.0, '', 10.0),
            svg_module._text(fmt, 'label', 1.0, 2.0, 'a<b', 10.0)] == [
        '<text class="label" x="1" y="-2" text-anchor="middle" '
        'font-size="10" />',
        '<text class="label" x="1" y="-2" text-anchor="middle" '
        'font-size="10">a&lt;b</text>']


def test_empty_lists_are_written_bare():
    assert dump_scene(Scene()) == (
        '{\n  "nodes": [],\n  "arrows": [],\n  "inlines": []\n}\n')


def test_inline_fragments_match_json_dumps():
    scene = one_scene('\\three^f|m_g')
    assert scene.inlines and scene.inlines[0].parts
    assert dump_scene(scene) == reference_json(scene)
    fragment = InlineFragment('to', LogicalPoint(300, 0), ())
    assert dump_scene(Scene((), (), (fragment,))) == reference_json(
        Scene((), (), (fragment,)))


@pytest.mark.parametrize('value', [3, 2.5, -0.0, 1e300, float('inf'),
                                   float('-inf'), float('nan'), True, False])
def test_scalar_leaves_match_json_dumps(value):
    style = ArrowStyle(parallel_offset_pt=value)
    scene = Scene((), (ArrowInstance(LogicalPoint(0, 0), LogicalPoint(1, 0),
                                     style),))
    assert dump_scene(scene) == reference_json(scene)


def test_strings_are_quoted_as_json_dumps_quotes_them():
    # every code point in one string, lone surrogates and controls included,
    # and printable strings, which take a quicker path
    for text in (''.join(map(chr, range(0x110000))), 'A\\times "B"\\',
                 'caf\u00e9 \u2192', ''):
        assert scenefile._leaf(text) == json.dumps(text, ensure_ascii=False)


# ---- memoized formatters ---------------------------------------------------

def plain_number(v):
    """The SVG number formula before it was memoized."""
    text = '%.3f' % v
    text = text.rstrip('0').rstrip('.')
    return '0' if text in ('-0', '') else text


EDGE_NUMBERS = [0.0, -0.0, 0.0004, -0.0004, 0.0005, -0.0005, 1, 1.0, -1,
                True, 2 ** 53 + 1, -(10 ** 30), 1e300, -1e300, 5e-324,
                0.1 + 0.2, 999.9995, -999.9995]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10 ** 20, 10 ** 20),
    st.sampled_from(EDGE_NUMBERS)), max_size=30))
@example(EDGE_NUMBERS)
@example(EDGE_NUMBERS[::-1])
def test_memoized_number_text_matches_the_plain_formula(values):
    # the memo render_resolved formats one document's numbers through
    fmt = Memo(svg_module._fmt).__getitem__
    # twice through one memo, so the second pass reads back what equal
    # values of another type or sign left there
    for v in values + values[::-1]:
        assert fmt(v) == plain_number(v) == svg_module._fmt(v)


def test_negative_zero_offsets_keep_their_sign_in_the_scene():
    # -0.0 == 0.0, so a memo keyed on ArrowStyle values would print one
    # sign for both arrows
    scene = one_scene('\\bfig\n'
                      '\\morphism(0,0)|a|/@{>}@<-0pt>/<500,0>[A`B;f]\n'
                      '\\morphism(0,500)|a|/@{>}@<0pt>/<500,0>[C`D;g]\n'
                      '\\morphism(0,1000)|a|/@{>}@<-0pt>/<500,0>[E`F;h]\n'
                      '\\efig\n')
    text = dump_scene(scene)
    assert text == reference_json(scene)
    assert re.findall(r'"parallel_offset_pt": (\S+),', text) == [
        '-0.0', '0.0', '-0.0']


def test_bools_and_ints_in_typed_slots_match_json_dumps():
    # True == 1 and False == 0: flags and coordinates of those values must
    # still print as JSON prints them
    p, q = LogicalPoint(1, 0), LogicalPoint(0, 1)
    scene = Scene(
        (NodeInstance(p, '1', 'center', True), NodeInstance(q, 'true'),
         NodeInstance(LogicalPoint(-1, 1), 'null', 'u', False)),
        (ArrowInstance(p, q, ArrowStyle(reversed=True), '0', 'l',
                       src_text='1', dst_text=None),
         ArrowInstance(q, q, ArrowStyle(), src_text='true', dst_text='true',
                       loop_out='u', loop_in='r')),
        (InlineFragment('to', LogicalPoint(1, 0), (
            InlineArrowPart(ArrowStyle(reversed=True), 'true', '', '1'),)),))
    assert dump_scene(scene) == reference_json(scene)
