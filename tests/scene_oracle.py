"""The scene file format, written down once as plain dicts.

``scene_dict`` builds the data of a scene field by field, in the key
order of the format, without going through ``diagramc.scenefile``.  The
emitter tests compare ``dump_scene`` against ``json.dumps`` of it, so the
writer is checked against an independent statement of the format.
"""

from diagramc.model import (ArrowInstance, ArrowStyle, InlineFragment,
                            LogicalPoint, NodeInstance, Scene)


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


def scene_dict(scene: Scene) -> dict:
    return {
        'nodes': [_node(n) for n in scene.nodes],
        'arrows': [_arrow(a) for a in scene.arrows],
        'inlines': [_fragment(f) for f in scene.inlines],
    }
