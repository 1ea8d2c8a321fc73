"""Byte-for-byte pins of every corpus output.

``tests/golden/`` holds the ``.svg`` and ``.scene.json`` files the CLI
writes for ``tests/corpus/`` under the default options.  Any change to
either emitter, to layout arithmetic or to output naming shows up here
as a differing file or a differing set of names.

To refresh the pins after an intended output change, run
``python -m diagramc -o tests/golden tests/corpus/*.dxy`` from the
repository root and review the diff.
"""

from pathlib import Path

from diagramc.cli import main

HERE = Path(__file__).parent
CORPUS_DIR = HERE / 'corpus'
GOLDEN_DIR = HERE / 'golden'


def test_corpus_outputs_match_goldens(tmp_path):
    sources = sorted(str(p) for p in CORPUS_DIR.glob('*.dxy'))
    assert main(['-o', str(tmp_path)] + sources) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    pinned = sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert written == pinned
    differing = [name for name in pinned
                 if (tmp_path / name).read_bytes()
                 != (GOLDEN_DIR / name).read_bytes()]
    assert differing == []
