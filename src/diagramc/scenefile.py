"""Structured scene output.

One scene unit serializes to one JSON document with a fixed key order,
two-space indentation, and a trailing newline, so recompiling an
unchanged source yields byte-identical files.  Coordinates stay in
integer logical units; nothing here depends on the render configuration.
The text is made a record at a time and handed to a ``write`` as one
iterator, each record one fill of its format string.  Each unit's memo
of texts starts as a copy of a table made at import for the fixed words.
Per unit, one table holds the text of each arrow style object,
made at its first arrow: a figure's arrows share a few styles, one per
spec text.  It is keyed by ``id``, as the scene holds each style for the
whole call.  So a miss hashes no record in Python, and a ``-0.0`` offset
stays apart from a ``0.0`` one, which a key by value would merge.
"""

from __future__ import annotations

from functools import partial

from .arrows import _NAMES, COMPASS
from .model import (RULE_LETTERS, ArrowInstance, ArrowStyle, InlineFragment,
                    Memo, NodeInstance, Scene)

__all__ = ['dump_scene']


# ---- canonical text ----------------------------------------------------
#
# The bytes are those of json.dumps(data, indent=2, ensure_ascii=False)
# plus a newline, where data holds each record as a dict of its fields in
# the key order below, but no dict is built: each record shape is one
# format string, its points pasted in, and each slot is filled by the
# formatter of its field's type.  Lattice coordinates are ints, written by
# %d; flags are bools; texts are str or None, encoded by _leaf once per
# scene through a Memo, or once at import for the fixed words;
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
_POINTS = ('pos', 'from', 'to', 'end')   # the keys of lattice points


def _template(keys: str, depth: int, slot: str = '%s') -> str:
    """Format string of an object at nesting ``depth``, one slot per key;
    a lattice point is pasted in, with a %d slot for each of x and y."""
    pad = '\n' + '  ' * (depth + 1)
    body = ','.join('%s"%s": %s' % (
        pad, key, _template('x y', depth + 1, '%d') if key in _POINTS
        else slot) for key in keys.split())
    return '{%s\n%s}' % (body, '  ' * depth)


_DOC = (_template('nodes arrows inlines', 0) + '\n').split('%s')
# a top-level record starts with the text before it in its list
_NODE = '%s' + _template('pos text anchor phantom', 2)
_ARROW = '%s' + _template('from to style label label_rule source_extent '
                          'target_extent loop_out loop_in', 2)
_FRAGMENT = '%s' + _template('kind end unit_scale tip_scale raise_pt arrows',
                             2)
_PART = _template('style sup sub mid', 4)
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


# the text of each fixed word a record can hold (a style's parts, compass
# directions, label rules, anchors, None); read only, copied per unit
_WORDS = {word: _leaf(word) for word in (
    *(word for name in _NAMES.values() for word in name[:3]), *COMPASS,
    *RULE_LETTERS, 'none', 'tick', 'cross', 'center', None)}


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


def _node_text(lead: str, node: NodeInstance, strings: Memo) -> str:
    pos = node.pos
    return _NODE % (lead, pos.x, pos.y, strings[node.text],
                    strings[node.anchor], _BOOL[node.phantom])


def _arrow_text(styles: dict[int, str], lead: str, arrow: ArrowInstance,
                strings: Memo) -> str:
    src, dst, style = arrow.src, arrow.dst, arrow.style
    text = styles.get(id(style))
    if text is None:
        text = styles[id(style)] = _style_text(style, _ARROW_STYLE, strings)
    return _ARROW % (
        lead, src.x, src.y, dst.x, dst.y, text,
        strings[arrow.label], strings[arrow.label_rule],
        strings[arrow.src_text], strings[arrow.dst_text],
        strings[arrow.loop_out], strings[arrow.loop_in])


def _fragment_text(lead: str, fragment: InlineFragment,
                   strings: Memo) -> str:
    parts = [_PART % (_style_text(part.style, _PART_STYLE, strings),
                      strings[part.sup], strings[part.sub],
                      strings[part.mid])
             for part in fragment.parts]
    end = fragment.end
    return _FRAGMENT % (
        lead, strings[fragment.kind], end.x, end.y,
        _leaf(fragment.unit_scale), _leaf(fragment.tip_scale),
        _leaf(fragment.raise_pt), _list(parts, 3))


def _pieces(scene: Scene):
    """The canonical JSON text of ``scene``, a record at a time, each
    after the comma that parts it from the one before."""
    strings = Memo(_leaf)
    strings.update(_WORDS)
    styles: dict[int, str] = {}
    for head, text, records in zip(_DOC, (_node_text,
                                          partial(_arrow_text, styles),
                                          _fragment_text),
                                   (scene.nodes, scene.arrows, scene.inlines)):
        lead = head + '[\n    '
        for record in records:
            yield text(lead, record, strings)
            lead = ',\n    '
        yield '\n  ]' if records else head + '[]'
    yield _DOC[3]


def dump_scene(scene: Scene, write=''.join) -> str:
    """Serialize one scene unit to its canonical JSON text: what ``write``
    returns for an iterator of the text in order, a record at a time,
    which the default joins."""
    return write(_pieces(scene))
