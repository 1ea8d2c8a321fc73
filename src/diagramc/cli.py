"""Command line driver.

Compiles each input file independently: parse, lower, then write the
requested scene and SVG outputs.  A file with several figure or inline
units numbers its outputs ``name.1.svg``, ``name.2.svg``, and so on; a
single unit writes plain ``name.svg``.  A file that fails, even by a
fault in the compiler (reported as ``InternalError``), never stops the
files after it.  Inputs go through one at a time, in the order given.
An input fails with an ``OutputCollision``, before it writes anything,
when one of its outputs is an input or was written by an earlier input
of the run, by name or as the same file through a link; an output that
is a directory fails it as early.  The files after it still compile.
Each unit's scene file is made and written first; the CLI then drops the
unit once layout has resolved it, so the unit's records are freed before
its SVG text is made from what layout resolved.  No text is held whole:
each emitter hands ``_write`` its text as one iterator of pieces, which
is compared with the file at its output as it is made.  A file that
holds the same bytes is left untouched; else the text goes to a hidden
temp file beside it, renamed once all of an input's are written, so no
output is ever half-written.  Outputs an earlier run made with another
unit count are warned of, and left in place.

Exit status: 0 when everything compiled, 1 when any file failed with a
diagnostic (a source that is not UTF-8 among them), 2 for invocation
problems such as inputs that cannot be opened, a bad metrics table, an
output directory that is a file, or colliding outputs.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import suppress
from errno import ENAMETOOLONG
from functools import partial
from itertools import chain
from stat import S_ISDIR, S_ISREG

from .errors import INTERNAL_ERROR, OUTPUT_COLLISION, DiagnosticError
from .lowering import Lowerer
from .metrics import MetricsTable
from .model import RenderConfig, Scene
from .parser import decode_source, parse_document
from .scenefile import dump_scene
from . import svg

_DEFAULT = RenderConfig()   # each setting's default, for its option
_EXTENSIONS = {'scene': ('scene.json',), 'svg': ('svg',),
               'both': ('scene.json', 'svg')}
_SLICE = 1 << 16   # characters encoded, compared and written at a time


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog='diagramc',
        description='Compile commutative diagram sources to SVG and '
                    'structured scene files.')
    p.add_argument('inputs', nargs='+', metavar='FILE',
                   help='diagram source files')
    p.add_argument('--format', choices=_EXTENSIONS,
                   default='both', help='which outputs to write')
    p.add_argument('-o', '--out-dir', metavar='DIR',
                   help='output directory (default: next to each input)')
    p.add_argument('--em-pt', type=float, default=_DEFAULT.em_pt,
                   metavar='PT', help='font size; one em in points')
    p.add_argument('--margin-pt', type=float,
                   default=_DEFAULT.object_margin_pt, metavar='PT',
                   help='clearance between node text and arrow ends')
    p.add_argument('--metrics', metavar='FILE',
                   help='glyph advance table (default: builtin)')
    p.add_argument('--label-scale', type=float,
                   default=_DEFAULT.label_scale, metavar='S',
                   help='label size relative to node text')
    p.add_argument('--strict', action='store_true',
                   help='fail on glyphs missing from the metrics table')
    return p


def _unit_texts(unit: Scene):
    for node in unit.nodes:
        yield node.text
    for arrow in unit.arrows:
        yield arrow.label
    for fragment in unit.inlines:
        for part in fragment.parts:
            yield part.sup
            yield part.sub
            yield part.mid


def _scan_glyphs(units: list[Scene], metrics: MetricsTable) -> list[str]:
    texts = set(chain.from_iterable(map(_unit_texts, units)))
    return sorted(set().union(*map(metrics.unknown_tokens, texts)))


def _prefix(path: str, out_dir: str | None) -> str:
    """The outputs' path for ``path``, less their number and extension."""
    stem = os.path.splitext(os.path.basename(path))[0]
    directory = out_dir if out_dir is not None else (
        os.path.dirname(path) or '.')
    return os.path.join(directory, stem)


def _stale(prefix: str, count: int, ext: str):
    """Outputs of ``prefix`` under another unit count than ``count``: the
    other form of name, then each number past it up to the first missing."""
    if count != 1:
        yield prefix + '.' + ext
    n = count + 1 if count > 1 else 1
    while _stat('%s.%d.%s' % (prefix, n, ext)):
        yield '%s.%d.%s' % (prefix, n, ext)
        n += 1


def _stat(path: str) -> os.stat_result | None:
    """The file at ``path``, links followed, or None."""
    try:
        return os.stat(path)
    except OSError:   # nothing there yet; a write error is reported later
        return None


def _write(path: str, old: os.stat_result | None,
           temps: dict[str, tuple[str, os.stat_result]], pieces) -> str:
    """Write the text ``pieces`` yields to the output ``path``, encoded
    about ``_SLICE`` characters at a time; return ''.  ``old``, the file
    at ``path``, stays if it holds the same bytes and no more; else a temp
    beside it is made at the first byte that differs, and ``temps`` holds
    its name and its ``fstat``, whose identity it keeps once renamed."""
    handle = held = None   # the temp; the old file, while its bytes match
    pieces = iter(pieces)
    end = 0   # 1 for the last slice, which reads a byte past the text
    # try and finally, not an ExitStack: most outputs are small, and a
    # stack cost a third of what this function adds to writing one
    try:
        if old and S_ISREG(old.st_mode):
            with suppress(OSError):   # not a file it can read: write anew
                held = open(path, 'rb')
        while not end:
            part, size, data = [], 0, None   # the last slice let go
            for piece in pieces:
                part.append(piece)
                size += len(piece)
                if size >= _SLICE:
                    break
            else:
                end = 1
            data = ''.join(part).encode('utf-8')
            if handle is None:
                matched = 0 if held is None else held.tell()
                if held is not None and held.read(len(data) + end) == data:
                    continue
                head, tail = os.path.split(path)
                temp = os.path.join(head, '.%s.%d.tmp' % (tail, os.getpid()))
                try:
                    handle = open(temp, 'xb')   # never one there
                except OSError as exc:   # too long where the output's fits
                    if exc.errno != ENAMETOOLONG:
                        raise
                    temp = os.path.join(head, '.%d.%d.tmp' % (os.getpid(),
                                                              len(temps)))
                    handle = open(temp, 'xb')
                temps[path] = temp, os.fstat(handle.fileno())
                for start in range(0, matched, _SLICE):   # what matched
                    held.seek(start)
                    handle.write(held.read(min(_SLICE, matched - start)))
            handle.write(data)
    finally:
        try:
            if handle is not None:
                handle.close()
        finally:
            if held is not None:
                held.close()
    return ''


def _failure(path: str, exc: Exception) -> int:
    """Report why one input failed; return the exit status it earns."""
    if isinstance(exc, DiagnosticError):
        print(exc.format(path), file=sys.stderr)
        return 1
    if isinstance(exc, OSError):
        print('%s: error: %s' % (exc.filename or path, exc.strerror or exc),
              file=sys.stderr)
        return 2
    # a fault in the compiler itself: name it and where it was raised,
    # and let the rest of the batch go on
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    where = '' if tb is None else ' (raised at %s:%d in %s)' % (
        os.path.basename(tb.tb_frame.f_code.co_filename), tb.tb_lineno,
        tb.tb_frame.f_code.co_name)
    print('%s: error: %s: %s: %s%s' % (path, INTERNAL_ERROR,
                                       type(exc).__name__, exc, where),
          file=sys.stderr)
    return 1


def _compile_input(path: str, args: argparse.Namespace,
                   metrics: MetricsTable, cfg: RenderConfig,
                   sources: dict[tuple[int, int], str],
                   missing: dict[str, str],
                   written: dict[tuple[int, int], str]) -> tuple[int, int]:
    """Compile and write one input: (exit status, its unit count).

    ``sources`` holds the inputs by file identity.  An input with no
    file has no identity, so ``missing`` holds those by real path, which
    an output naming one, or reaching it through a linked directory,
    resolves to.  ``written`` holds the outputs written so far by file
    identity, which a later output has whether it names the file or links
    to it.  An output found in any of them fails this input before any
    write; an output joins ``written`` once it has its name.
    """
    try:
        with open(path, 'rb') as handle:
            text = decode_source(handle.read(), path)
        units = Lowerer(metrics, cfg).lower_document(
            parse_document(text, filename=path))
        unknown = _scan_glyphs(units, metrics)
    except Exception as exc:   # one bad file never stops the batch
        return _failure(path, exc), 0
    if unknown:
        severity = 'error' if args.strict else 'warning'
        for glyph in unknown:
            print('%s: %s: no metrics for %r; using the fallback advance'
                  % (path, severity, glyph), file=sys.stderr)
        if args.strict:
            return 1, 0
    prefix = _prefix(path, args.out_dir)
    numbers = (['.'] if len(units) == 1 else
               ['.%d.' % (n + 1) for n in range(len(units))])
    outputs = {ext: [prefix + number + ext for number in numbers]
               for ext in _EXTENSIONS[args.format]}
    found = {}   # each output path: the file there now, or None
    for out in chain.from_iterable(outputs.values()):
        found[out] = stat = _stat(out)
        ident = stat and (stat.st_dev, stat.st_ino)
        source = sources.get(ident)
        if stat is None and missing:
            source = missing.get(os.path.realpath(out))
        if source is not None:
            clash = '%s would overwrite the input %s through %s' % (
                path, source, out)
        elif ident in written:
            clash = '%s and %s both write %s' % (written[ident], path, out)
        elif stat and S_ISDIR(stat.st_mode):   # no file can be renamed onto it
            print('%s: error: Is a directory' % out, file=sys.stderr)
            return 2, 0
        else:
            continue
        print('diagramc: error: %s: %s' % (OUTPUT_COLLISION, clash),
              file=sys.stderr)
        return 2, 0
    temps = {}   # output path: its temp's name and fstat, until renamed
    try:
        # the temps take their names only once every one is written, so
        # a layout error leaves no outputs behind
        for n in range(len(units)):
            if 'scene.json' in outputs:
                out = outputs['scene.json'][n]
                dump_scene(units[n], partial(_write, out, found[out], temps))
            if 'svg' in outputs:
                resolved = svg.resolve_scene(units[n], metrics, cfg)
                units[n] = None   # freed before its SVG is made
                out = outputs['svg'][n]
                svg.render_resolved(resolved, metrics, cfg,
                                    partial(_write, out, found[out], temps))
                del resolved   # not held while the next unit's scene is made
        for out, stat in found.items():
            if out in temps:
                temp, stat = temps[out]
                os.replace(temp, out)
                del temps[out]
            written[stat.st_dev, stat.st_ino] = path
    except Exception as exc:   # one bad file never stops the batch
        if isinstance(exc, OSError):
            exc.filename = out   # the output it was writing, not a temp
        return _failure(path, exc), 0
    finally:
        for temp, _ in temps.values():
            try:
                os.unlink(temp)
            except OSError:
                pass
    return 0, len(units)


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        metrics = (MetricsTable.from_file(args.metrics) if args.metrics
                   else MetricsTable.builtin())
        cfg = RenderConfig(em_pt=args.em_pt,
                           object_margin_pt=args.margin_pt,
                           label_scale=args.label_scale)
    except (OSError, ValueError) as exc:
        if isinstance(exc, OSError):   # a ValueError names its file:line
            exc = '%s: %s' % (exc.filename or args.metrics,
                              exc.strerror or exc)
        print('diagramc: error: %s' % exc, file=sys.stderr)
        return 2
    if args.out_dir is not None:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            reason = ('Not a directory'   # it exists, but as a file
                      if isinstance(exc, FileExistsError)
                      else exc.strerror or exc)
            print('diagramc: error: %s: %s' % (exc.filename or args.out_dir,
                                               reason), file=sys.stderr)
            return 2
    # the inputs by file identity, or by real path when there is no
    # file, so no output overwrites one
    sources: dict[tuple[int, int], str] = {}
    missing: dict[str, str] = {}
    for path in args.inputs:
        stat = _stat(path)
        if stat is None:
            missing[os.path.realpath(path)] = path
        else:
            sources[stat.st_dev, stat.st_ino] = path
    written: dict[tuple[int, int], str] = {}
    compiled = []   # (input, its unit count) of each that wrote outputs
    status = 0
    # compiling makes no reference cycles, so the cyclic collector would
    # only walk the records the batch builds; it is restored as it was
    collecting = gc.isenabled()
    gc.disable()
    try:
        for path in args.inputs:
            code, count = _compile_input(path, args, metrics, cfg, sources,
                                         missing, written)
            if code == 0:
                compiled.append((path, count))
            status = max(status, code)
    finally:
        if collecting:
            gc.enable()
    # outputs of an earlier run with another unit count; none is deleted
    claimed = written.keys() | sources.keys()
    for path, count in compiled:
        for ext in _EXTENSIONS[args.format]:
            for out in _stale(_prefix(path, args.out_dir), count, ext):
                stat = _stat(out)
                if stat and (stat.st_dev, stat.st_ino) not in claimed:
                    print('%s: warning: stale output %s left in place'
                          % (path, out), file=sys.stderr)
    return status


if __name__ == '__main__':
    sys.exit(main())
