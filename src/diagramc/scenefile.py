"""Structured scene output.

One scene unit serializes to one JSON document with a fixed key order,
two-space indentation, and a trailing newline, so recompiling an
unchanged source yields byte-identical files.  Coordinates stay in
integer logical units; nothing here depends on the render configuration.
"""

from __future__ import annotations

from .model import (ArrowInstance, ArrowStyle, InlineFragment, Memo,
                    NodeInstance, Scene)

__all__ = ['dump_scene']


# ---- canonical text ----------------------------------------------------
#
# The bytes are those of json.dumps(data, indent=2, ensure_ascii=False)
# plus a newline, where data holds each record as a dict of its fields in
# the key order below, but no dict is built: each record shape is one
# format string, and each slot is filled by the formatter of its field's
# type.  Lattice coordinates are ints, written by %d; flags are bools;
# texts are str or None, encoded by _leaf once per scene through a Memo;
# the float fields go through _leaf each time, since -0.0 == 0.0 would
# share one key.

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


_DOC = (_template('nodes arrows inlines', 0) + '\n').split('%s')
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
    # the whole document in one list, joined once; a comma follows each item
    doc = []
    for head, text, records in zip(_DOC, (_node_text, _arrow_text,
                                          _fragment_text),
                                   (scene.nodes, scene.arrows, scene.inlines)):
        doc.append(head + ('[\n    ' if records else '[]'))
        for record in records:
            doc += (text(record, strings), ',\n    ')
        if records:
            doc[-1] = '\n  ]'
    doc.append(_DOC[3])
    return ''.join(doc)
