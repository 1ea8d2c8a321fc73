"""diagramc benchmark: one seeded workload through the real CLI.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it compiles the checkout's own
`src/diagramc` and nothing else, and exits 2 without a result if that is
missing.  The inputs are made from `--seed` (see gen.py) and every output
is checked by oracle.py.

With `--trace 0` it measures the end-to-end metrics, tracing off.  One
client runs a closed loop: each CLI invocation compiles the whole batch
in a fresh interpreter with a fresh output directory, and waits for the
previous one to end; between invocations the same batch is compiled in
process, warm, for the throughput.  Each sample is divided by the time of
a fixed reference workload run right before and after it (calibrate.py):
the CLI child's user CPU time gives the gated `cli_user_rel`, and the
in-process rate the gated `arrows_per_ref`.  The CLI's wall time in the
same units, `wall_rel`, and its system time are printed ungated: on a
virtual disk the kernel's cost of creating the output files swung
several-fold between runs, and no reference followed it.  Set-up samples,
spread over the run, are divided by bare interpreter starts timed right
before and after each, and `setup_s` is that ratio in seconds at the
bare start time of calibrate.BARE_START_S.  Raw seconds are printed too.
With `--trace 1` it measures the
per-layer metrics instead: interpreter start and `-X importtime`, then
in-process passes of `cli.main` with every module's entry points wrapped
by tracer.py, alternating with untraced and traced compile passes whose
ratio is the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted` and `failed` (input files checked, and those whose outputs
failed the oracle) and `metrics`, holding exactly the metrics that
BENCHMARK.json lists for the mode.  The lines before it are a readable
summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')
# Outputs go under the benchmark's own directory, inside the checkout:
# the benchmark may write nowhere else.  This is disk, not tmpfs.
WORK = os.path.join(HERE, '.work')

sys.path.insert(0, HERE)
import gen  # noqa: E402
from oracle import Checker, read_outputs  # noqa: E402
from calibrate import BARE_START_S, reference_seconds  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ('corpus-cli', 'big-figure', 'many-files')
SETUP_SAMPLES = 20      # fresh interpreters timed for setup_s
STARTUP_SAMPLES = 7     # interpreter starts and -X importtime runs
MIN_SAMPLES = 3         # per timed series, however short --seconds is
INPROC_SHARE = 0.5      # in-process time per unit of CLI time
CHUNK_BYTES = 20000     # source per in-process sample: one big figure
REF_MIN_S = 0.02        # shortest reference timing around a sample
REF_SHARE = 0.3         # reference time per unit of sample time
STDLIB_IMPORTS = ('xml.etree.ElementTree', 'json', 'argparse')
SETUP_CODE = ('import diagramc.cli, diagramc\n'
              'diagramc.MetricsTable.builtin()\n')


def child_env() -> dict:
    env = dict(os.environ)
    env['PYTHONPATH'] = SRC
    # users pay compiling to .pyc once; keep the bytecode cache warm
    env.pop('PYTHONDONTWRITEBYTECODE', None)
    return env


class Spawner:
    """The small helper process that starts every child; see spawner.py."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, '-S', os.path.join(HERE, 'spawner.py')],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stderr: str | None = None) -> dict:
        """Run a child to completion; return the spawner's reply."""
        self.proc.stdin.write(json.dumps({'argv': argv, 'stderr': stderr})
                              + '\n')
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError('the spawner process ended early')
        return json.loads(line)

    def bare_start(self) -> float:
        """The quicker of two interpreter starts without site or imports."""
        return min(self.run([sys.executable, '-S', '-c', 'pass'])['wall']
                   for _ in range(2))

    def setup_sample(self) -> tuple[float, float]:
        """One set-up start: (seconds, bare starts timed around it)."""
        before = self.bare_start()
        child = self.run([sys.executable, '-c', SETUP_CODE])
        if child['status'] != 0:
            raise RuntimeError('set-up child exited with %d' % child['status'])
        wall = child['wall']
        return wall, 2.0 * wall / (before + self.bare_start())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with ten samples beyond it, and its value."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


class Bench:
    def __init__(self, workload: str, seed: int, work: str) -> None:
        import diagramc
        from diagramc import cli, scenefile, svg
        self.diagramc, self.cli, self.svg, self.scenefile = (
            diagramc, cli, svg, scenefile)
        self.metrics = diagramc.MetricsTable.builtin()
        self.config = diagramc.RenderConfig()
        self.work = work
        self.manifest = gen.generate(workload, seed, os.path.join(work, 'in'))
        self.files = self.manifest['files']
        self.paths = [record['path'] for record in self.files]
        self.sources = []
        for record in self.files:
            with open(record['path'], encoding='utf-8') as handle:
                self.sources.append(handle.read())
        self.checker = Checker(self.manifest)
        self._outs = 0
        self.spawner = Spawner()

    def fresh_dir(self) -> str:
        self._outs += 1
        path = os.path.join(self.work, 'out-%d' % self._outs)
        os.makedirs(path)
        return path

    def collect(self, out_dir: str, status: int = 0) -> int:
        """Check one output directory; return its total bytes.

        `status` is the exit status of the run that wrote it.  The
        directory stays until the run ends: on an ext4 disk mounted with
        `discard`, deleting thousands of files between invocations slowed
        the writes of later ones, more with every deletion.
        """
        outputs = read_outputs(out_dir)
        self.checker.check(outputs, {'*': 'diagramc exited with status %d'
                                          % status} if status else None)
        return sum(len(data) for data in outputs.values())

    # -- the three ways of compiling the batch ---------------------------

    def run_cli(self) -> tuple[dict, str]:
        """One CLI process over the batch: (spawner's reply, out dir)."""
        out = self.fresh_dir()
        return self.spawner.run(
            [sys.executable, '-m', 'diagramc', '-o', out] + self.paths), out

    def compile_pass(self, files: list[int] | None = None
                     ) -> tuple[float, int, list]:
        """Compile the batch, or the given files of it, in process.

        No file I/O.  Returns (seconds, arrows, outputs): per file, its
        list of (SVG, scene) texts, or the exception it raised.  Pass the
        outputs of a whole batch to `check_pass`, outside the timed region.
        """
        d, svg, scenefile = self.diagramc, self.svg, self.scenefile
        metrics, config = self.metrics, self.config
        paths, sources = self.paths, self.sources
        outputs = []
        arrows = 0
        start = time.perf_counter()
        for i in files if files is not None else range(len(paths)):
            texts = []
            try:
                for unit in d.compile_source(sources[i], paths[i], metrics,
                                             config):
                    resolved = svg.resolve_scene(unit, metrics, config)
                    arrows += len(resolved.arrows)
                    texts.append((svg.render_resolved(resolved, metrics,
                                                      config),
                                  scenefile.dump_scene(unit)))
            except Exception as exc:  # a program fault fails this file only
                texts = exc
            outputs.append(texts)
        return time.perf_counter() - start, arrows, outputs

    def chunks(self) -> list[list[int]]:
        """Consecutive files of at least CHUNK_BYTES of source each."""
        chunks, current, size = [], [], 0
        for i, text in enumerate(self.sources):
            current.append(i)
            size += len(text)
            if size >= CHUNK_BYTES:
                chunks.append(current)
                current, size = [], 0
        if current:
            if chunks:
                chunks[-1].extend(current)
            else:
                chunks.append(current)
        return chunks

    def check_pass(self, outputs: list) -> None:
        """Check one in-process batch under the names the CLI gives it."""
        named, errors = {}, {}
        for record, texts in zip(self.files, outputs):
            if isinstance(texts, Exception):
                errors[record['stem']] = '%s: %s' % (type(texts).__name__,
                                                     texts)
                continue
            names = gen.unit_names(record['stem'], len(texts))
            for (scene_name, svg_name), (svg_text, scene_text) in zip(
                    names, texts):
                named[svg_name] = svg_text.encode('utf-8')
                named[scene_name] = scene_text.encode('utf-8')
        self.checker.check(named, errors)

    def main_pass(self) -> tuple[float, str, int]:
        """`cli.main` over the batch in this process.

        Returns (seconds, out dir, exit status).
        """
        out = self.fresh_dir()
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(['-o', out] + self.paths)
        return time.perf_counter() - start, out, code

    # -- the two modes ------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, list[str]]:
        child, out = self.run_cli()     # warm-up; fills the .pyc cache
        self.collect(out, child['status'])
        self.check_pass(self.compile_pass()[2])
        walls, wall_rel, user_rel, sys_times, rss, sizes = ([], [], [], [],
                                                            [], [])
        rates, rate_rel, refs, setup = [], [], [], []
        ref, ref_len = reference_seconds(REF_MIN_S), REF_MIN_S

        def reference_after(sample: float) -> float:
            """Reference time around a sample: the timings just before and
            after it, each weighted by how long it ran."""
            nonlocal ref, ref_len
            before, before_len = ref, ref_len
            ref_len = max(REF_MIN_S, REF_SHARE * sample)
            ref = reference_seconds(ref_len)
            refs.append(ref)
            return (before * before_len + ref * ref_len) / (before_len
                                                            + ref_len)

        chunks = self.chunks()
        batch = []              # outputs of the batch compiled so far
        cli_time = inproc_time = 0.0
        start = time.perf_counter()
        while True:
            child, out = self.run_cli()
            wall = child['wall']
            unit = reference_after(wall)
            user_rel.append(child['user'] / unit)
            wall_rel.append(wall / unit)
            walls.append(wall)
            sys_times.append(child['sys'])
            rss.append(child['maxrss'])
            sizes.append(self.collect(out, child['status']))
            cli_time += wall
            while inproc_time < cli_time * INPROC_SHARE:
                files = chunks[len(rates) % len(chunks)]
                elapsed, arrows, outputs = self.compile_pass(files)
                rate_rel.append(arrows * reference_after(elapsed) / elapsed)
                rates.append(arrows / elapsed)
                batch.extend(outputs)
                if files is chunks[-1]:
                    self.check_pass(batch)
                    batch = []
                inproc_time += elapsed
            # set-up samples spread evenly over the run
            done = (time.perf_counter() - start) / seconds
            while len(setup) < min(SETUP_SAMPLES, 1 + int(done
                                                          * SETUP_SAMPLES)):
                setup.append(self.spawner.setup_sample())
                ref, ref_len = reference_seconds(REF_MIN_S), REF_MIN_S
            if (done >= 1.0 and len(walls) >= MIN_SAMPLES
                    and len(rates) >= MIN_SAMPLES * len(chunks)):
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(self.spawner.setup_sample())
        values = {
            'cli_user_rel': statistics.median(user_rel),
            'wall_rel': statistics.median(wall_rel),
            'cli_sys_s': statistics.median(sys_times),
            'arrows_per_ref': statistics.median(rate_rel),
            'setup_s': BARE_START_S * statistics.median(
                bare for _, bare in setup),
            'setup_raw_s': statistics.median(wall for wall, _ in setup),
            'peak_rss_mb': statistics.median(rss) / 1024.0,
            'output_bytes': statistics.median(sizes),
            'wall_s': statistics.median(walls),
            'arrows_per_s': statistics.median(rates),
            'reference_s': statistics.median(refs),
            'fail_ratio': self.checker.failed / self.checker.attempted,
        }
        t = tail(walls)
        if t and t[0] >= 50:
            values['wall_s_p%.0f' % t[0]] = t[1]
        notes = ['samples: %d CLI invocations, %d in-process compiles of '
                 'one of %d chunks of the batch, %d set-up starts, %d '
                 'reference timings' % (len(walls), len(rates), len(chunks),
                                        len(setup), len(refs)),
                 'ungated: wall_rel, cli_sys_s (the CLI child\'s system '
                 'time), wall_s, arrows_per_s and setup_raw_s (raw '
                 'medians), reference_s (one reference rep), the wall_s '
                 'tail (%s) and fail_ratio (failed/attempted files)'
                 % ('p%.0f, the highest percentile with ten samples beyond '
                    'it' % t[0] if t and t[0] >= 50 else
                    'needs 20 samples for a percentile above the median')]
        return values, notes

    def layers(self, seconds: float) -> tuple[dict, list[str]]:
        _, out, code = self.main_pass()  # warm-up and full oracle check
        self.collect(out, code)
        self.check_pass(self.compile_pass()[2])
        values = startup_metrics(self.spawner)
        tracer = Tracer()
        overhead, plain_times, passes = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            plain, _, outputs = self.compile_pass()
            plain_times.append(plain)
            self.check_pass(outputs)
            missing = tracer.install()
            try:
                tracer.reset()
                traced, _, outputs = self.compile_pass()
                # traced over untraced throughput of the same batch
                overhead.append(plain / traced)
                tracer.reset()
                _, out, code = self.main_pass()
            finally:
                tracer.remove()
            self.check_pass(outputs)
            names = os.listdir(out)
            pass_metrics = tracer.metrics()
            pass_metrics['cli.files'] = len(self.paths)
            pass_metrics['cli.outputs'] = len(names)
            pass_metrics['cli.bytes_written'] = self.collect(out, code)
            passes.append(pass_metrics)
            if (time.perf_counter() >= deadline
                    and len(passes) >= MIN_SAMPLES):
                break
        os.makedirs(os.path.join(WORK, 'spans'), exist_ok=True)
        spans_path = os.path.join(WORK, 'spans', '%s-seed%d.jsonl' % (
            self.manifest['workload'], self.manifest['seed']))
        tracer.write_spans(spans_path)
        for key in passes[0]:
            values[key] = statistics.median(p[key] for p in passes)
        values['trace.overhead_ratio'] = statistics.median(overhead)
        notes = ['samples: %d traced cli.main passes, %d pairs of untraced '
                 'and traced compile passes, %d interpreter starts'
                 % (len(passes), len(overhead), STARTUP_SAMPLES),
                 'untraced in-process compile of the batch: %.4f s (median)'
                 % statistics.median(plain_times),
                 'spans of the last traced pass: %s'
                 % os.path.relpath(spans_path, ROOT)]
        if missing:
            notes.append('entry points not found, their metrics are 0: %s'
                         % ', '.join(missing))
        shares = ', '.join('%s %.1f%%' % (layer, 100.0 * values[
            layer + '.self_s'] / values['cli.s']) for layer in LAYERS)
        notes.append('self time share of cli.s (%.4f s a pass): %s'
                     % (values['cli.s'], shares))
        return values, notes


def _importtime(stderr: str) -> dict[str, tuple[float, float, int]]:
    """Module -> (self s, cumulative s, depth) from `-X importtime` output."""
    found = {}
    for line in stderr.splitlines():
        m = re.match(r'import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$', line)
        if m:
            found[m.group(4)] = (int(m.group(1)) / 1e6, int(m.group(2)) / 1e6,
                                 len(m.group(3)))
    return found


def startup_metrics(spawner: Spawner) -> dict[str, float]:
    interp, samples = [], []
    log = os.path.join(WORK, 'importtime-%d.txt' % os.getpid())
    for _ in range(STARTUP_SAMPLES):
        interp.append(spawner.run([sys.executable, '-c', 'pass'])['wall'])
        code = spawner.run([sys.executable, '-X', 'importtime', '-c',
                            'import diagramc.cli'], stderr=log)['status']
        with open(log, encoding='utf-8') as handle:
            text = handle.read()
        if code != 0:
            raise RuntimeError('import diagramc.cli failed:\n' + text)
        samples.append(_importtime(text))
    os.remove(log)
    values = {'startup.interp_s': statistics.median(interp)}
    values['startup.import_s'] = statistics.median(
        sum(cumulative for name, (_, cumulative, depth) in s.items()
            if depth == 0 and name.split('.')[0] == 'diagramc')
        for s in samples)
    modules = sorted({name for s in samples for name in s
                      if name.split('.')[0] == 'diagramc'})
    for name in modules:
        values['startup.import.%s_s' % name] = statistics.median(
            s.get(name, (0.0,))[0] for s in samples)
    for name in STDLIB_IMPORTS:
        values['startup.import.%s_s' % name] = statistics.median(
            s.get(name, (0.0, 0.0))[1] for s in samples)
    return values


def load_spec() -> dict:
    with open(os.path.join(ROOT, 'BENCHMARK.json'), encoding='utf-8') as h:
        return json.load(h)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    p.add_argument('--workload', choices=WORKLOADS, required=True)
    p.add_argument('--seed', type=int, required=True)
    p.add_argument('--seconds', type=float, required=True)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, 'diagramc', '__init__.py')):
        print('run.py: no src/diagramc under %s; run from the root of a '
              'diagramc checkout' % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import diagramc
    if not os.path.abspath(diagramc.__file__).startswith(SRC + os.sep):
        print('run.py: imported diagramc from %s, not from %s'
              % (diagramc.__file__, SRC), file=sys.stderr)
        return 2
    spec = load_spec()
    listed = spec['per_layer' if args.trace else 'end_to_end']
    work = os.path.join(WORK, '%s-%d-%d' % (args.workload, args.seed,
                                            os.getpid()))
    bench = None
    try:
        bench = Bench(args.workload, args.seed, work)
        run = bench.layers if args.trace else bench.end_to_end
        values, notes = run(args.seconds)
    finally:
        if bench is not None:
            bench.spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    checker = bench.checker
    metrics = {}
    gated = {entry['name'] for entry in listed}
    for name in sorted(set(values) - gated) if not args.trace else ():
        print('%-40s %16.6g (ungated)' % (name, values[name]))
    for entry in listed:
        name = entry['name']
        if name not in values and args.trace:
            # a layer whose entry point or module is gone reads 0
            values[name] = 0.0
            notes.append('%s: not measured in this tree' % name)
        metrics[name] = {'value': values[name], 'unit': entry['unit']}
        print('%-40s %16.6g %s' % (name, values[name], entry['unit']))
    for note in notes:
        print(note)
    print('outputs: %s; sha256 of all outputs %s' % (
        'identical in every invocation and pass'
        if len(checker.digests) == 1 else 'NOT identical across the run',
        ' '.join(sorted(checker.digests))))
    for problem in checker.problems[:20]:
        print('oracle: ' + problem)
    print(json.dumps({'correct': checker.correct,
                      'attempted': checker.attempted,
                      'failed': checker.failed,
                      'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
