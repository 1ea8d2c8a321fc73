"""Spans around the public entry points of each diagramc module.

The tracer rebinds names in the program's modules to timing wrappers
and restores them afterwards; no file of the program changes.  Each call
records a span (name, start, end, parent span, file id) in memory.  The
file id is the index of the file most recently handed to
`parse_document`, whose second argument names it.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# span name -> layer, i.e. the module the entry point belongs to
LAYER = {
    'parse_document': 'parser',
    'lower_document': 'lowering',
    'parse_arrow_spec': 'arrows',
    'text_advance': 'metrics',
    'morphism_width': 'metrics',
    'node_box': 'layout',
    'resolve_scene': 'layout',
    'render_resolved': 'svg',
    'dump_scene': 'scenefile',
    'scene_to_dict': 'scenefile',
    'main': 'cli',
}
LAYERS = ('parser', 'lowering', 'arrows', 'metrics', 'layout', 'svg',
          'scenefile', 'cli')


def _text_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode('utf-8'))


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Install with `install()`, read one pass, `reset()`, `remove()`."""

    def __init__(self) -> None:
        self.file_ids: dict[str, int] = {}
        self.reset()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.file = -1
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)

    # -- hooks: counts taken where the work happens ---------------------

    def _enter_parse(self, args, kwargs) -> None:
        text = _arg(args, kwargs, 0, 'text', '')
        name = _arg(args, kwargs, 1, 'filename', '<input>')
        self.file = self.file_ids.setdefault(name, len(self.file_ids))
        self.counts['parser.src_bytes'] += _text_len(text)

    def _exit_parse(self, args, kwargs, result) -> None:
        self.counts['parser.statements'] += len(result)

    def _exit_lower(self, args, kwargs, units) -> None:
        self.counts['lowering.units'] += len(units)
        for unit in units:
            self.counts['lowering.nodes'] += len(unit.nodes)
            self.counts['lowering.arrows'] += len(unit.arrows) + sum(
                len(fragment.parts) for fragment in unit.inlines)

    def _key_spec(self, args, kwargs, result) -> None:
        self.keys['arrows.parse_spec'].add(_arg(args, kwargs, 0, 'spec'))

    def _key_advance(self, args, kwargs, result) -> None:
        # args[0] is the MetricsTable itself
        self.keys['metrics.text_advance'].add(
            (_arg(args, kwargs, 1, 'text'),
             _arg(args, kwargs, 2, 'scale', 1.0)))

    def _key_box(self, args, kwargs, result) -> None:
        node = _arg(args, kwargs, 0, 'node')
        self.keys['layout.node_box'].add((node.text, node.anchor))

    def _svg_bytes(self, args, kwargs, result) -> None:
        self.counts['svg.bytes'] += _text_len(result)

    def _scene_bytes(self, args, kwargs, result) -> None:
        self.counts['scenefile.bytes'] += _text_len(result)

    # -- patching ---------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every entry point found; return the ones that are missing."""
        import diagramc
        from diagramc import cli, layout, lowering, parser, scenefile, svg
        from diagramc.metrics import MetricsTable
        points = [
            ('parse_document', (diagramc, cli, parser), self._enter_parse,
             self._exit_parse),
            ('lower_document', (lowering.Lowerer,), None, self._exit_lower),
            ('parse_arrow_spec', (lowering,), None, self._key_spec),
            ('text_advance', (MetricsTable,), None, self._key_advance),
            ('morphism_width', (MetricsTable,), None, None),
            ('node_box', (layout,), None, self._key_box),
            ('resolve_scene', (svg,), None, None),
            ('render_resolved', (svg,), None, self._svg_bytes),
            ('dump_scene', (diagramc, cli, scenefile), None,
             self._scene_bytes),
            ('scene_to_dict', (scenefile,), None, None),
            ('main', (cli,), None, None),
        ]
        missing = []
        for name, owners, enter, leave in points:
            found = False
            for owner in owners:
                original = owner.__dict__.get(name)
                if original is None:
                    continue
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(name, original, enter, leave))
                found = True
            if not found:
                missing.append(name)
        return missing

    def _wrap(self, name: str, fn, enter, leave):
        # reads tracer.spans on every call, since reset() replaces it
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            spans, stack = tracer.spans, tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.file]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if leave is not None:
                leave(args, kwargs, result)
            return result

        return traced

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- reading a pass ---------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass recorded since the last reset."""
        spans = self.spans
        own = self.self_times()
        dur: Counter = Counter()
        self_by_name: Counter = Counter()
        self_by_layer: Counter = Counter()
        outer_by_layer: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = LAYER[name]
            dur[name] += end - start
            calls[name] += 1
            self_by_name[name] += own[i]
            self_by_layer[layer] += own[i]
            if parent < 0 or LAYER[spans[parent][0]] != layer:
                outer_by_layer[layer] += end - start
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[layer + '.s'] = outer_by_layer[layer]
            m[layer + '.self_s'] = self_by_layer[layer]
        c = self.counts
        m['parser.statements'] = c['parser.statements']
        m['parser.src_bytes_per_s'] = (
            c['parser.src_bytes'] / dur['parse_document']
            if dur['parse_document'] else 0.0)
        for key in ('lowering.units', 'lowering.nodes', 'lowering.arrows',
                    'svg.bytes', 'scenefile.bytes'):
            m[key] = c[key]
        m['arrows.parse_spec_s'] = dur['parse_arrow_spec']
        m['arrows.parse_spec_calls'] = calls['parse_arrow_spec']
        m['arrows.parse_spec_distinct'] = len(self.keys['arrows.parse_spec'])
        m['metrics.text_advance_s'] = dur['text_advance']
        m['metrics.text_advance_calls'] = calls['text_advance']
        m['metrics.text_advance_distinct'] = len(
            self.keys['metrics.text_advance'])
        m['metrics.morphism_width_calls'] = calls['morphism_width']
        m['layout.node_box_s'] = dur['node_box']
        m['layout.node_box_calls'] = calls['node_box']
        m['layout.node_box_distinct'] = len(self.keys['layout.node_box'])
        m['scenefile.to_dict_s'] = dur['scene_to_dict']
        m['scenefile.encode_s'] = self_by_name['dump_scene']
        m['trace.spans'] = len(spans)
        return m

    def write_spans(self, path: str) -> None:
        """Write the recorded spans, one JSON object a line, times from 0."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, 'w', encoding='utf-8') as handle:
            for name, start, end, parent, file_id in self.spans:
                handle.write(json.dumps({
                    'name': name, 'start': start - origin,
                    'end': end - origin, 'parent': parent,
                    'file': file_id}) + '\n')
