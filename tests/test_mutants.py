"""A regression net made of broken corpus files.

Each mutant is a corpus file with a few cuts, insertions or duplications
of its text.  Whatever it holds, compiling it must end in output or in a
named diagnostic at a source position, never in another exception; the
SVG it makes holds only finite numbers and its scene file is JSON.  The
seeds and counts are fixed, and every mutant made is checked: none is
dropped for failing.
"""

import json
import math
import random
import re
import xml.etree.ElementTree as ET
from pathlib import Path

from diagramc import DiagnosticError, cli, compile_source, dump_scene, render

CORPUS = sorted((Path(__file__).parent / 'corpus').glob('*.dxy'))
SEEDS = (1, 2)
PER_FILE = 50   # mutants per corpus file and seed: 3,000 in all
# characters the grammar gives a meaning to, and a few it does not
ALPHABET = '\\{}[]()<>|/`;,^_@-=.:!\'" %\n0123456789aAxé'
# SVG attributes that hold words, not numbers
WORDS = {'class', 'fill', 'stroke', 'font-family', 'text-anchor', 'xmlns',
         'version'}
PATH_COMMANDS = set('MmLlHhVvCcSsQqTtAaZz')


def mutate(text, rng):
    """``text`` after one or two cuts, insertions or duplications."""
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(text) + 1)
        size = rng.randint(1, 12)
        how = rng.randrange(3)
        if how == 0:
            text = text[:at] + text[at + size:]
        elif how == 1:
            text = text[:at] + ''.join(
                rng.choice(ALPHABET) for _ in range(size)) + text[at:]
        else:
            start = rng.randrange(len(text) + 1)
            text = text[:at] + text[start:start + size] + text[at:]
    return text


def mutants(seed, per_file):
    """(name, text) of ``per_file`` mutants of each corpus file."""
    rng = random.Random(seed)
    for path in CORPUS:
        text = path.read_text(encoding='utf-8')
        for n in range(per_file):
            yield '%s-%d-%d.dxy' % (path.stem, seed, n), mutate(text, rng)


def svg_numbers(svg):
    """Every number in the attributes of the SVG text ``svg``."""
    for element in ET.fromstring(svg.encode('utf-8')).iter():
        for name, value in element.attrib.items():
            if name in WORDS:
                continue
            for token in re.split(r'[\s,]+', value.strip()):
                if token not in PATH_COMMANDS:
                    yield float(token.removesuffix('pt'))


def reject(constant):
    raise ValueError('scene file holds %s' % constant)


def outputs(name, text):
    """The scene and SVG texts of each unit, or the diagnostic raised."""
    try:
        return [(dump_scene(unit), render(unit))
                for unit in compile_source(text, name)]
    except DiagnosticError as err:
        return err


def test_mutants_compile_or_fail_with_a_located_diagnostic():
    compiled = failed = 0
    for seed in SEEDS:
        for name, text in mutants(seed, PER_FILE):
            result = outputs(name, text)
            if isinstance(result, DiagnosticError):
                failed += 1
                loc = result.loc
                assert loc is not None, (name, text, result.format())
                assert loc.file == name and loc.line >= 1 and loc.col >= 1, \
                    (name, text, result.format())
                continue
            compiled += 1
            for scene, svg in result:
                json.loads(scene, parse_constant=reject)
                for number in svg_numbers(svg):
                    assert math.isfinite(number), (name, text)
    assert compiled + failed == len(SEEDS) * PER_FILE * len(CORPUS)
    # both outcomes are common, so the net reaches the readers and past them
    assert compiled > 600 and failed > 600, (compiled, failed)


def test_the_cli_writes_what_the_library_returns(tmp_path, cut_pieces):
    # the CLI writes each text a piece at a time through temps and keeps
    # a file that already holds its bytes; none of that may alter a byte.
    # Of the 1,200 mutants of seed 3, 319 compile, and each is one input
    # of the run
    source, out = tmp_path / 'src', tmp_path / 'out'
    source.mkdir()
    inputs, expected = [], {}
    for name, text in mutants(3, 40):
        result = outputs(name, text)
        if isinstance(result, DiagnosticError):
            continue
        path = source / name
        path.write_text(text, encoding='utf-8')
        inputs.append(str(path))
        numbers = (['.'] if len(result) == 1 else
                   ['.%d.' % n for n in range(1, len(result) + 1)])
        for number, (scene, svg) in zip(numbers, result):
            expected[path.stem + number + 'scene.json'] = scene.encode()
            expected[path.stem + number + 'svg'] = svg.encode()
    assert len(inputs) > 200, len(inputs)

    def written(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    assert cli.main(['-o', str(out), *inputs]) == 0
    assert written(out) == expected
    # in pieces of a few characters: a file that holds its bytes is kept,
    # one of the same size with another last byte is replaced (the bytes
    # before it copied from it), and each output is written anew where
    # there is none
    stale = sorted(expected)[::2]
    for name in stale:
        (out / name).write_bytes(expected[name][:-1] + b'~')
    inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
    cut_pieces(5)
    for directory in (out, tmp_path / 'fresh'):
        assert cli.main(['-o', str(directory), *inputs]) == 0
        assert written(directory) == expected
    # a temp is made while the file it replaces still exists, so a
    # replaced file never keeps its inode
    assert sorted(p.name for p in out.iterdir()
                  if p.stat().st_ino != inodes[p.name]) == stale
