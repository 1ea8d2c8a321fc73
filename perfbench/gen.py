"""Seeded inputs for the three workloads, and what each should produce.

Every generator writes `.dxy` sources into a directory and returns a
manifest the compiler never sees: for each source, the output stem and,
per scene unit, the node and arrow counts the constructor semantics
documented in README.md imply.  The counts are worked out here from the
generator's own model of each constructor, never by calling the compiler.

Constructors are laid out one per cell of a square lattice whose pitch
is far wider than any constructor, so nodes of different constructors
never share a position and no arrow ever runs between overlapping boxes.
"""

from __future__ import annotations

import os
import random
import shutil

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), 'corpus')

# Scene units per corpus file, counted by hand: one per \bfig...\efig
# pair plus one per free-standing inline fragment.
CORPUS_UNITS = {
    '01-morphism': 1, '02-square': 1, '03-square-styles': 1,
    '04-auto-square': 1, '05-diamond': 1, '06-ptriangle': 1,
    '07-qtriangle': 1, '08-dtriangle': 1, '09-btriangle': 1,
    '10-big-triangles': 4, '11-triangle-pairs': 4, '12-pullback': 1,
    '13-pullback-spans': 1, '14-hsquares': 1, '15-h-auto-squares': 1,
    '16-vsquares': 1, '17-v-auto-squares': 1, '18-cube': 1,
    '19-grid3x3': 1, '20-grid3x3-mask': 1, '21-grid3x2': 1,
    '22-vect-place': 1, '23-named-arrows': 1, '24-loops': 2,
    '25-inline': 3, '26-inline-presets': 5, '27-twoar': 4,
    '28-exponential': 1, '29-kernel': 1, '30-mixed-units': 3,
}

TRIANGLES = ('ptriangle', 'qtriangle', 'dtriangle', 'btriangle',
             'Atriangle', 'Vtriangle', 'Ctriangle', 'Dtriangle')
SIDES = 'alrbm'
COMPASS = ('l', 'r', 'u', 'd', 'ul', 'ur', 'dl', 'dr')

# big-figure: one small vocabulary shared by every arrow, so a memo of
# spec parsing or box metrics would hit almost always.
BIG_NODES = ('A', 'B', 'C', 'D', 'E', 'P', 'X', 'Y', 'Z', 'FA', 'FB',
             'GA', 'GB', "A'", "B'", 'X_1', 'Y_2', 'A\\times B')
BIG_LABELS = ('f', 'g', 'h', 'k', 'u', 'v', '\\alpha', '\\beta',
              '\\pi_1', '\\pi_2', 'Ff', 'Gg', '{\\eta}')
BIG_SPECS = ('>', '->>', ' >->', '-->', '=', '=>', '..>', '<-')
BIG_PITCH = 2400
BIG_DOCS = 2
# Constructor mix of one big figure: 4,500 arrows in 1,070 cells.
BIG_MIX = (('grid', 90), ('square', 300), ('triangle', 320),
           ('pullback', 60), ('morphism', 250), ('loop', 50))
GRID_BORDERS = 6

# many-files: every text and almost every arrow spec unique, with control
# words, so a memo of text metrics, box metrics or spec parsing would
# miss.  Specs are raw `@{name}` forms with a parallel offset drawn from
# 8,001 values and an optional mid-shaft tick.
MANY_FILES = 300
MANY_WIDTH = 1200  # room for two of the longest unique texts side by side
# one constructor per figure: small files, so per-file CLI work weighs more
MANY_KINDS = ('auto_square', 'h_auto_squares', 'v_auto_squares', 'square',
              'triangle', 'morphism')
MANY_BASES = ('A', 'FB', 'G(X)', '\\alpha', '\\Sigma A', 'H\\otimes K',
              '\\bar{Q}', 'T^{2}')
MANY_LABEL_BASES = ('f', '\\phi', 'g\\circ h', '\\eta', 'p', '\\lambda')
MANY_SPEC_NAMES = ('>', '->', '->>', ' >->', '|->', '-->', '..>', '=>', '-',
                   '<-', '<<-', '<--', '<..', '<=', '<-|')
MANY_TICKS = ('', '|-*@{|}', '|-*@{+}')


def unit_names(stem: str, count: int) -> list[tuple[str, str]]:
    """(scene, svg) output names of a source with `count` units."""
    if count == 1:
        return [(stem + '.scene.json', stem + '.svg')]
    return [('%s.%d.scene.json' % (stem, n), '%s.%d.svg' % (stem, n))
            for n in range(1, count + 1)]


def generate(workload: str, seed: int, dest: str) -> dict:
    """Write the workload's sources under `dest`; return its manifest.

    The manifest maps `files` to a list of records, in the order the
    sources go on the command line: `path`, `stem`, and `units`, a list
    with one `{"nodes": n, "arrows": m}` record per scene unit, or None
    per unit where only the unit count is known (the corpus).
    """
    os.makedirs(dest, exist_ok=True)
    rng = random.Random('%s:%d' % (workload, seed))
    if workload == 'corpus-cli':
        files = _corpus(rng, dest)
    elif workload == 'big-figure':
        files = _big_figure(rng, dest)
    elif workload == 'many-files':
        files = _many_files(rng, dest)
    else:
        raise ValueError('unknown workload %r' % workload)
    return {'workload': workload, 'seed': seed, 'files': files}


def _corpus(rng: random.Random, dest: str) -> list[dict]:
    stems = sorted(CORPUS_UNITS)
    rng.shuffle(stems)
    files = []
    for stem in stems:
        path = os.path.join(dest, stem + '.dxy')
        shutil.copyfile(os.path.join(CORPUS_DIR, stem + '.dxy'), path)
        files.append({'path': path, 'stem': stem,
                      'units': [None] * CORPUS_UNITS[stem]})
    return files


def _write(dest: str, stem: str, figures: list[list[str]]) -> str:
    path = os.path.join(dest, stem + '.dxy')
    with open(path, 'w', encoding='utf-8', newline='\n') as handle:
        for n, lines in enumerate(figures):
            handle.write('%% figure %d\n\\bfig\n' % (n + 1))
            handle.write('\n'.join(lines))
            handle.write('\n\\efig\n\n')
    return path


def _pick(rng: random.Random, seq, n: int) -> list:
    return [rng.choice(seq) for _ in range(n)]


def _payload(nodes: list[str], labels: list[str]) -> str:
    return '[%s;%s]' % ('`'.join(nodes), '`'.join(labels))


class _Shapes:
    """Source text for one constructor and the nodes/arrows it yields.

    `node`, `label` and `spec` are callables returning the next node
    text, label text and arrow spec; each method returns (source, nodes,
    arrows).
    """

    def __init__(self, rng: random.Random, node, label, spec,
                 width: int) -> None:
        self.rng = rng
        self.node = node
        self.label = label
        self.spec = spec
        self.width = width  # horizontal span of the fixed-size shapes

    def _common(self, slots: int, x: int, y: int) -> str:
        return '(%d,%d)|%s|/%s/' % (x, y, ''.join(_pick(self.rng, SIDES,
                                                        slots)),
                                    self._specs(slots))

    def _specs(self, slots: int) -> str:
        return '`'.join(self.spec() for _ in range(slots))

    def _texts(self, nodes: int, labels: int) -> str:
        return _payload([self.node() for _ in range(nodes)],
                        [self.label() for _ in range(labels)])

    def morphism(self, x: int, y: int) -> tuple[str, int, int]:
        w = self.width
        dx, dy = self.rng.choice(((w, 0), (0, -600), (w, -600), (-w, -600),
                                  (0, 600)))
        origin = self._common(1, x + w, y + 600)
        return ('\\morphism%s<%d,%d>%s' % (origin, dx, dy, self._texts(2, 1)),
                2, 1)

    def square(self, x: int, y: int) -> tuple[str, int, int]:
        return ('\\square%s<%d,500>%s' % (self._common(4, x, y), self.width,
                                          self._texts(4, 4)), 4, 4)

    def triangle(self, x: int, y: int) -> tuple[str, int, int]:
        name = self.rng.choice(TRIANGLES)
        return ('\\%s%s<%d,500>%s' % (name, self._common(3, x, y),
                                      self.width, self._texts(3, 3)), 3, 3)

    def grid(self, x: int, y: int) -> tuple[str, int, int]:
        mask = sum(1 << bit for bit in self.rng.sample(range(12),
                                                       GRID_BORDERS))
        return ('\\iiixiii%s<500,500>{%d}<350,350>%s'
                % (self._common(12, x + 400, y + 400), mask,
                   self._texts(9, 12)),
                9 + GRID_BORDERS, 12 + GRID_BORDERS)

    def pullback(self, x: int, y: int) -> tuple[str, int, int]:
        rng = self.rng
        trident = '|%s|/%s/<500,400>[%s;%s]' % (
            ''.join(_pick(rng, SIDES, 3)), self._specs(3),
            self.node(), '`'.join(self.label() for _ in range(3)))
        return ('\\pullback%s<600,500>%s%s'
                % (self._common(4, x + 600, y), self._texts(4, 4), trident),
                5, 7)

    def loop(self, x: int, y: int) -> tuple[str, int, int]:
        out, back = self.rng.sample(COMPASS, 2)
        return ('\\Loop(%d,%d)%s(%s,%s)' % (x + 600, y + 600,
                                            '{%s}' % self.node(), out, back),
                1, 1)

    def auto_square(self, x: int, y: int) -> tuple[str, int, int]:
        return ('\\Square%s<600>%s' % (self._common(4, x, y),
                                       self._texts(4, 4)), 4, 4)

    def h_auto_squares(self, x: int, y: int) -> tuple[str, int, int]:
        return ('\\hSquares%s<600>%s' % (self._common(7, x, y),
                                         self._texts(6, 7)), 6, 7)

    def v_auto_squares(self, x: int, y: int) -> tuple[str, int, int]:
        return ('\\vSquares%s<600,500>%s' % (self._common(7, x, y),
                                             self._texts(6, 7)), 6, 7)


def _big_figure(rng: random.Random, dest: str) -> list[dict]:
    shapes = _Shapes(rng, lambda: rng.choice(BIG_NODES),
                     lambda: rng.choice(BIG_LABELS),
                     lambda: rng.choice(BIG_SPECS), 600)
    files = []
    for doc in range(BIG_DOCS):
        kinds = [kind for kind, count in BIG_MIX for _ in range(count)]
        rng.shuffle(kinds)
        columns = int(len(kinds) ** 0.5) + 1
        lines, nodes, arrows = [], 0, 0
        for cell, kind in enumerate(kinds):
            row, col = divmod(cell, columns)
            source, n, m = getattr(shapes, kind)(col * BIG_PITCH,
                                                 -row * BIG_PITCH)
            lines.append(source)
            nodes += n
            arrows += m
        stem = 'big-%d' % (doc + 1)
        files.append({'path': _write(dest, stem, [lines]), 'stem': stem,
                      'units': [{'nodes': nodes, 'arrows': arrows}]})
    return files


def _many_files(rng: random.Random, dest: str) -> list[dict]:
    serial = iter(range(1000, 100000))
    shapes = _Shapes(
        rng,
        lambda: '%s_{%d}' % (rng.choice(MANY_BASES), next(serial)),
        lambda: '{%s}^{%d}' % (rng.choice(MANY_LABEL_BASES), next(serial)),
        lambda: '@{%s}%s@<%.3fpt>' % (
            rng.choice(MANY_SPEC_NAMES), rng.choice(MANY_TICKS),
            rng.randrange(-4000, 4001) / 1000.0),
        MANY_WIDTH)
    # equal numbers of one-, two- and three-figure files, and of each
    # constructor, in seeded order: the total work does not depend on the seed
    counts = [1 + n % 3 for n in range(MANY_FILES)]
    rng.shuffle(counts)
    kinds = [MANY_KINDS[n % len(MANY_KINDS)] for n in range(sum(counts))]
    rng.shuffle(kinds)
    kinds = iter(kinds)
    files = []
    for index, count in enumerate(counts):
        figures, units = [], []
        for _ in range(count):
            source, nodes, arrows = getattr(shapes, next(kinds))(0, 0)
            figures.append([source])
            units.append({'nodes': nodes, 'arrows': arrows})
        stem = 'doc-%04d' % index
        files.append({'path': _write(dest, stem, figures), 'stem': stem,
                      'units': units})
    return files
