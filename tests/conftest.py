"""Folds the test_acceptance.py results into one line per criterion, and
holds the fixtures several test modules share."""
import re

import pytest

from diagramc.model import ArrowInstance, NodeInstance, Scene

CRITERIA = {
    1: 'constructor defaults (placements, specs, spans; exact)',
    2: 'label side table, all 32 sign cases (exact)',
    3: 'pasted shapes equal their square decompositions (exact)',
    4: 'auto width matches the transcribed chain, clamp at 500 (exact)',
    5: 'twoar endpoints over [-5,5]^2 (exact)',
    6: 'all 4096 grid masks, popcount and endpoints (exact, <5s)',
    7: 'pullback corner and trident targets, randomized (exact)',
    8: 'translation equivariance, clipping, label anchors (1e-9 pt)',
    9: 'corpus compiles byte-identically twice, SVG well-formed',
    10: 'five error paths: diagnostic on stderr, exit status 1',
}

NODE_RE = re.compile(r'test_acceptance\.py::test_c(\d\d)')


def _translate(scene, dx, dy):
    """``scene`` with every coordinate shifted by (dx, dy)."""
    nodes = tuple(NodeInstance(n.pos.shifted(dx, dy), n.text, n.anchor,
                               n.phantom) for n in scene.nodes)
    arrows = tuple(ArrowInstance(
        a.src.shifted(dx, dy), a.dst.shifted(dx, dy), a.style, a.label,
        a.label_rule, a.src_text, a.dst_text, a.loop_out, a.loop_in, a.loc,
        a.constructor) for a in scene.arrows)
    return Scene(nodes, arrows, scene.inlines)


@pytest.fixture
def translate():
    """The scene translation the equivariance tests shift by."""
    return _translate


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    passed = {}
    for status in ('passed', 'failed', 'error', 'skipped'):
        for report in terminalreporter.stats.get(status, ()):
            match = NODE_RE.search(getattr(report, 'nodeid', '') or '')
            if match is None:
                continue
            number = int(match.group(1))
            ok = status == 'passed'
            passed[number] = passed.get(number, True) and ok
    if not passed:
        return
    terminalreporter.section('acceptance criteria')
    for number in sorted(CRITERIA):
        if number in passed:
            verdict = 'PASS' if passed[number] else 'FAIL'
        else:
            verdict = 'not run'
        terminalreporter.write_line(
            'C%02d  %-58s %s' % (number, CRITERIA[number], verdict))
