"""A fixed reference workload that tracks how fast this CPU is right now.

On a shared host the speed of one virtual CPU swings by up to 2x from
second to second, so raw timings of the same code spread widely between
runs.  The reference is plain CPU-bound Python with the same kinds of
work the compiler does (small dicts and objects, float formatting, the
pure-Python `json` encoder, ElementTree, regex scans) and uses nothing
from diagramc, so no change to the program can change its cost.  Timing
it right before and right after each sample and dividing gives the
sample's cost in reference units, which the host's speed swings largely
cancel out of.  Set-up time, which is mostly process start, is divided
in the same way by a bare interpreter start instead.
"""

from __future__ import annotations

import json
import re
import time
import xml.etree.ElementTree as ET

# Median wall time of a bare `python3 -S -c pass` on the host this
# benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11.7).  setup_s
# is measured in bare starts timed around each set-up sample and reported
# as seconds at this speed of starting an interpreter.
BARE_START_S = 0.0134

_TOKEN = re.compile(r'\\[A-Za-z]+|\\.|.')
_RECORDS = [{'pos': {'x': i * 50, 'y': -i * 30}, 'text': 'X_{%d}' % i,
             'anchor': 'center', 'phantom': i % 7 == 0} for i in range(120)]


def _once() -> None:
    json.dumps({'nodes': _RECORDS}, indent=2, ensure_ascii=False)
    root = ET.Element('svg')
    group = ET.SubElement(root, 'g', {'class': 'arrows'})
    for i in range(150):
        x, y = i * 1.25, i / 3.0
        ET.SubElement(group, 'line', {
            'class': 'shaft', 'x1': '%.2f' % x, 'y1': '%.2f' % -y,
            'x2': '%.2f' % (x + 40.0), 'y2': '%.2f' % (y - 12.5)})
    ET.indent(root, space='  ')
    ET.tostring(root, encoding='unicode')
    for record in _RECORDS:
        _TOKEN.findall('\\alpha%s(A\\times B)' % record['text'])


def reference_seconds(at_least: float) -> float:
    """Repeat the reference for `at_least` seconds; return seconds per rep."""
    reps = 0
    start = time.perf_counter()
    while True:
        _once()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed / reps
