"""Output checks that do not use the compiler under test.

The first output directory of a run is checked in full against the
workload's manifest: every expected file exists and nothing else does,
each scene file parses as JSON with the manifest's node and arrow
counts, and each SVG parses as XML with one `g.arrow` per resolved arrow
and one `text.node` per visible node of its scene.  Its per-file sha256
digests become the run's reference; every later output, from the CLI or
in process, must repeat them byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import xml.etree.ElementTree as ET

from gen import unit_names


def expected_outputs(manifest: dict) -> dict[str, str]:
    """Map each expected output name to the stem of its source."""
    names = {}
    for record in manifest['files']:
        for pair in unit_names(record['stem'], len(record['units'])):
            for name in pair:
                names[name] = record['stem']
    return names


def digest(hashes: dict[str, str]) -> str:
    """One sha256 over every output, in name order."""
    h = hashlib.sha256()
    for name in sorted(hashes):
        h.update(('%s %s\n' % (name, hashes[name])).encode())
    return h.hexdigest()


def read_outputs(out_dir: str) -> dict[str, bytes]:
    outputs = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), 'rb') as handle:
            outputs[name] = handle.read()
    return outputs


def _tag(el: ET.Element) -> str:
    return el.tag.rsplit('}', 1)[-1]


def _classed(root: ET.Element, tag: str, cls: str) -> int:
    return sum(1 for el in root.iter()
               if _tag(el) == tag and el.get('class') == cls)


def _unit_problem(scene_bytes: bytes, svg_bytes: bytes,
                  expected: dict | None) -> str | None:
    try:
        scene = json.loads(scene_bytes.decode('utf-8'))
        nodes, arrows, inlines = (scene['nodes'], scene['arrows'],
                                  scene['inlines'])
        drawn = len(arrows) + sum(len(f['arrows']) for f in inlines)
        visible = sum(1 for n in nodes if n['text'] and not n['phantom'])
    except (ValueError, KeyError, TypeError) as exc:
        return 'scene file is malformed: %r' % exc
    if expected is not None and (len(nodes), len(arrows)) != (
            expected['nodes'], expected['arrows']):
        return 'scene has %d nodes, %d arrows; expected %d, %d' % (
            len(nodes), len(arrows), expected['nodes'], expected['arrows'])
    try:
        root = ET.fromstring(svg_bytes)
    except ET.ParseError as exc:
        return 'SVG does not parse: %s' % exc
    if _tag(root) != 'svg':
        return 'SVG root is <%s>' % _tag(root)
    if _classed(root, 'g', 'arrow') != drawn:
        return 'SVG has %d arrow groups for %d resolved arrows' % (
            _classed(root, 'g', 'arrow'), drawn)
    if _classed(root, 'text', 'node') != visible:
        return 'SVG has %d node texts for %d visible nodes' % (
            _classed(root, 'text', 'node'), visible)
    return None


def check_full(manifest: dict, outputs: dict[str, bytes]
               ) -> dict[str, str]:
    """Check one output set against the manifest; map failed stems to why."""
    expected = expected_outputs(manifest)
    failed = {}
    for name in sorted(set(outputs) - set(expected)):
        failed[name.split('.', 1)[0]] = 'unexpected output %s' % name
    for record in manifest['files']:
        stem = record['stem']
        pairs = unit_names(stem, len(record['units']))
        for (scene_name, svg_name), exp in zip(pairs, record['units']):
            if scene_name not in outputs or svg_name not in outputs:
                failed[stem] = 'missing %s or %s' % (scene_name, svg_name)
                break
            problem = _unit_problem(outputs[scene_name], outputs[svg_name],
                                    exp)
            if problem:
                failed[stem] = '%s: %s' % (svg_name, problem)
                break
    return failed


class Checker:
    """Counts files attempted and failed across every output set of a run."""

    def __init__(self, manifest: dict) -> None:
        self.manifest = manifest
        self.files = len(manifest['files'])
        self.reference: dict[str, str] | None = None
        self.reference_failed: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def check(self, outputs: dict[str, bytes],
              errors: dict[str, str] | None = None) -> None:
        """Check one output set: the whole batch of one invocation or pass.

        `errors` maps the stem of each file that failed to compile to
        why, and '*' to why a CLI invocation exited nonzero; a file in
        `errors` counts as failed, and '*' counts as one failed file when
        no file's outputs fail.
        """
        hashes = {name: hashlib.sha256(data).hexdigest()
                  for name, data in outputs.items()}
        self.attempted += self.files
        if hashes == self.reference:
            # the same bytes as the set already checked, with its verdict
            failed = dict(self.reference_failed)
        else:
            failed = check_full(self.manifest, outputs)
            if self.reference is None:
                self.reference, self.reference_failed = hashes, dict(failed)
            for name in set(hashes) | set(self.reference):
                if hashes.get(name) != self.reference.get(name):
                    failed.setdefault(name.split('.', 1)[0],
                                      '%s differs from the first run' % name)
            self.problems.extend('%s: %s' % item
                                 for item in sorted(failed.items()))
        for stem, why in sorted((errors or {}).items(),
                                key=lambda item: item[0] == '*'):
            if stem != '*' or not failed:
                failed[stem] = why
            self.problems.append('%s: %s' % (stem, why))
        self.digests.add(digest(hashes))
        self.failed += min(len(failed), self.files)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.digests) == 1
