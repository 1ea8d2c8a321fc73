"""Structured scene output.

One scene unit serializes to one JSON document with a fixed key order,
two-space indentation, and a trailing newline, so recompiling an
unchanged source yields byte-identical files.  Coordinates stay in
integer logical units; nothing here depends on the render configuration.
"""

from __future__ import annotations

from .model import (
    ArrowInstance,
    ArrowStyle,
    InlineFragment,
    LogicalPoint,
    Memo,
    NodeInstance,
    Scene,
)

__all__ = ['scene_to_dict', 'dump_scene']


def _point(p: LogicalPoint) -> dict:
    return {'x': p.x, 'y': p.y}


def _style(style: ArrowStyle) -> dict:
    return {
        'tail': style.tail,
        'shaft': style.shaft,
        'head': style.head,
        'mid': style.mid,
        'parallel_offset_pt': style.parallel_offset_pt,
        'reversed': style.reversed,
    }


def _node(node: NodeInstance) -> dict:
    return {
        'pos': _point(node.pos),
        'text': node.text,
        'anchor': node.anchor,
        'phantom': node.phantom,
    }


def _arrow(arrow: ArrowInstance) -> dict:
    return {
        'from': _point(arrow.src),
        'to': _point(arrow.dst),
        'style': _style(arrow.style),
        'label': arrow.label,
        'label_rule': arrow.label_rule,
        'source_extent': arrow.src_text,
        'target_extent': arrow.dst_text,
        'loop_out': arrow.loop_out,
        'loop_in': arrow.loop_in,
    }


def _fragment(fragment: InlineFragment) -> dict:
    return {
        'kind': fragment.kind,
        'end': _point(fragment.end),
        'unit_scale': fragment.unit_scale,
        'tip_scale': fragment.tip_scale,
        'raise_pt': fragment.raise_pt,
        'arrows': [
            {'style': _style(part.style), 'sup': part.sup,
             'sub': part.sub, 'mid': part.mid}
            for part in fragment.parts
        ],
    }


def scene_to_dict(scene: Scene) -> dict:
    return {
        'nodes': [_node(n) for n in scene.nodes],
        'arrows': [_arrow(a) for a in scene.arrows],
        'inlines': [_fragment(f) for f in scene.inlines],
    }


# ---- canonical text ----------------------------------------------------
#
# The bytes are those of json.dumps(scene_to_dict(scene), indent=2,
# ensure_ascii=False) plus a newline, written without building the dict:
# each record shape is one format string, and each slot is filled by the
# formatter of its field's type.  Lattice coordinates are ints, written
# by %d; flags are bools; texts are str or None, encoded by _leaf once
# per scene through a Memo; the float fields go through _leaf each time,
# since -0.0 == 0.0 would share one key.

_INF = float('inf')
# what json.dumps(..., ensure_ascii=False) escapes in a string: the quote,
# the backslash and every code point below U+0020, which is not printable
_ESCAPES = str.maketrans({**{chr(c): '\\u%04x' % c for c in range(0x20)},
                          '"': '\\"', '\\': '\\\\', '\b': '\\b', '\f': '\\f',
                          '\n': '\\n', '\r': '\\r', '\t': '\\t'})
_STYLE_KEYS = 'tail shaft head mid parallel_offset_pt reversed'
_BOOL = ('false', 'true')   # indexed by a bool


def _template(keys: str, depth: int, slot: str = '%s') -> str:
    """Format string of an object at nesting ``depth``, one slot per key."""
    pad = '\n' + '  ' * (depth + 1)
    body = ','.join('%s"%s": %s' % (pad, key, slot) for key in keys.split())
    return '{%s\n%s}' % (body, '  ' * depth)


_DOC = _template('nodes arrows inlines', 0) + '\n'
_NODE = _template('pos text anchor phantom', 2)
_ARROW = _template('from to style label label_rule source_extent '
                   'target_extent loop_out loop_in', 2)
_FRAGMENT = _template('kind end unit_scale tip_scale raise_pt arrows', 2)
_PART = _template('style sup sub mid', 4)
_POINT = _template('x y', 3, '%d')
_ARROW_STYLE = _template(_STYLE_KEYS, 3)
_PART_STYLE = _template(_STYLE_KEYS, 5)


def _leaf(value) -> str:
    """One scalar, written as json.dumps writes it."""
    if isinstance(value, str):
        if value.isprintable():   # replace is quicker than a translate
            return '"%s"' % value.replace('\\', '\\\\').replace('"', '\\"')
        return '"%s"' % value.translate(_ESCAPES)
    if value is None:
        return 'null'
    if value is True:
        return 'true'
    if value is False:
        return 'false'
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return 'NaN'
        if value == _INF:
            return 'Infinity'
        if value == -_INF:
            return '-Infinity'
        return float.__repr__(value)
    raise TypeError('Object of type %s is not JSON serializable'
                    % type(value).__name__)


def _list(items: list[str], depth: int) -> str:
    if not items:
        return '[]'
    pad = '\n' + '  ' * (depth + 1)
    return '[%s%s\n%s]' % (pad, (',' + pad).join(items), '  ' * depth)


def _style_text(style: ArrowStyle, template: str, strings: Memo) -> str:
    return template % (
        strings[style.tail], strings[style.shaft], strings[style.head],
        strings[style.mid], _leaf(style.parallel_offset_pt),
        _BOOL[style.reversed])


def _node_text(node: NodeInstance, strings: Memo) -> str:
    pos = node.pos
    return _NODE % (_POINT % (pos.x, pos.y), strings[node.text],
                    strings[node.anchor], _BOOL[node.phantom])


def _arrow_text(arrow: ArrowInstance, strings: Memo) -> str:
    src, dst = arrow.src, arrow.dst
    return _ARROW % (
        _POINT % (src.x, src.y), _POINT % (dst.x, dst.y),
        _style_text(arrow.style, _ARROW_STYLE, strings),
        strings[arrow.label], strings[arrow.label_rule],
        strings[arrow.src_text], strings[arrow.dst_text],
        strings[arrow.loop_out], strings[arrow.loop_in])


def _fragment_text(fragment: InlineFragment, strings: Memo) -> str:
    parts = [_PART % (_style_text(part.style, _PART_STYLE, strings),
                      strings[part.sup], strings[part.sub],
                      strings[part.mid])
             for part in fragment.parts]
    end = fragment.end
    return _FRAGMENT % (
        strings[fragment.kind], _POINT % (end.x, end.y),
        _leaf(fragment.unit_scale), _leaf(fragment.tip_scale),
        _leaf(fragment.raise_pt), _list(parts, 3))


def dump_scene(scene: Scene) -> str:
    """Serialize one scene unit to its canonical JSON text."""
    strings = Memo(_leaf)
    return _DOC % (
        _list([_node_text(n, strings) for n in scene.nodes], 1),
        _list([_arrow_text(a, strings) for a in scene.arrows], 1),
        _list([_fragment_text(f, strings) for f in scene.inlines], 1))
