"""Byte-for-byte pins of every corpus output.

``tests/golden/`` holds the ``.svg`` and ``.scene.json`` files the CLI
writes for ``tests/corpus/`` under the default options.  Any change to
either emitter, to layout arithmetic or to output naming shows up here
as a differing file or a differing set of names.

To refresh the pins after an intended output change, run
``python -m diagramc -o tests/golden tests/corpus/*.dxy`` from the
repository root and review the diff.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from diagramc import Lowerer, MetricsTable, RenderConfig, dump_scene
from diagramc import parse_document, render
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


# the oldest interpreter pyproject.toml admits, and those after the one
# the suite mostly runs under: a pattern or syntax only some compile
# shows here
@pytest.mark.parametrize('version', ['3.10', '3.12', '3.13'])
def test_other_interpreters_write_the_goldens(tmp_path, version):
    found = shutil.which('python' + version)
    probe = found and subprocess.run(
        [found, '-c', 'import sys; print("%d.%d" % sys.version_info[:2])'],
        capture_output=True, text=True)
    if not probe or probe.returncode or probe.stdout.strip() != version:
        pytest.skip('no working python%s on PATH' % version)
    sources = sorted(str(p) for p in CORPUS_DIR.glob('*.dxy'))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / 'src'))
    subprocess.run([found, '-m', 'diagramc', '-o', str(tmp_path)] + sources,
                   env=env, check=True, capture_output=True)
    assert ({p.name: p.read_bytes() for p in tmp_path.iterdir()}
            == {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()})


# ---- no memo outlives its unit ---------------------------------------------

def _unit_outputs(path, metrics, cfg):
    """{output name: bytes} of one corpus file, compiled in this process."""
    text = Path(path).read_text(encoding='utf-8')
    units = Lowerer(metrics, cfg).lower_document(parse_document(text, path))
    stem = Path(path).stem
    names = ([stem] if len(units) == 1 else
             ['%s.%d' % (stem, n + 1) for n in range(len(units))])
    outputs = {}
    for name, unit in zip(names, units):
        outputs[name + '.svg'] = render(unit, metrics, cfg).encode('utf-8')
        outputs[name + '.scene.json'] = dump_scene(unit).encode('utf-8')
    return outputs


def test_settings_interleaved_in_one_process_match_fresh_runs(tmp_path):
    sources = sorted(str(p) for p in CORPUS_DIR.glob('*.dxy'))
    wide_table = tmp_path / 'wide.metrics'
    wide_table.write_text('A 900\n', encoding='utf-8')
    builtin = MetricsTable.builtin()
    wide = MetricsTable.from_file(str(wide_table))
    small = RenderConfig(em_pt=12.5, object_margin_pt=0.7, label_scale=0.8)
    small_flags = ['--em-pt', '12.5', '--margin-pt', '0.7',
                   '--label-scale', '0.8']
    settings = [
        (builtin, RenderConfig(), []),
        (wide, RenderConfig(), ['--metrics', str(wide_table)]),
        (builtin, small, small_flags),
        (wide, small, ['--metrics', str(wide_table)] + small_flags),
    ]
    # a fresh interpreter per setting compiles the corpus once
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / 'src'))
    fresh = []
    for k, (_, _, flags) in enumerate(settings):
        out = tmp_path / ('fresh-%d' % k)
        subprocess.run([sys.executable, '-m', 'diagramc', '-o', str(out)]
                       + flags + sources, env=env, check=True,
                       capture_output=True)
        fresh.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert fresh[0] == {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()}
    assert len({frozenset(f.items()) for f in fresh}) == len(settings)
    # in this process: each file under every setting in turn, the order
    # turning from file to file, twice over
    interleaved = [{} for _ in settings]
    for _ in range(2):
        for i, path in enumerate(sources):
            for j in range(len(settings)):
                k = (i + j) % len(settings)
                metrics, cfg, _ = settings[k]
                outputs = _unit_outputs(path, metrics, cfg)
                for name, data in outputs.items():
                    assert interleaved[k].setdefault(name, data) == data
    for k in range(len(settings)):
        assert interleaved[k] == fresh[k], k
