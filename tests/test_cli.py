"""Command line behavior: outputs, flags, diagnostics, exit codes."""

import contextlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from diagramc import cli
from diagramc.cli import main
from diagramc.svg import resolve_scene

SQUARE = '\\bfig\\square[A`B`C`D;f`g`h`k]\\efig\n'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding='utf-8')
    return path


def test_single_unit_writes_plain_names(tmp_path, capsys):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main([str(source)]) == 0
    assert capsys.readouterr().err == ''
    scene = tmp_path / 'dia.scene.json'
    svg = tmp_path / 'dia.svg'
    assert scene.exists() and svg.exists()
    data = json.loads(scene.read_text(encoding='utf-8'))
    assert len(data['nodes']) == 4
    assert svg.read_text(encoding='utf-8').startswith('<?xml')


def test_multiple_units_are_numbered(tmp_path):
    source = write(tmp_path, 'multi.dxy', SQUARE + '\\to^f\n' + SQUARE)
    assert main([str(source)]) == 0
    for n in (1, 2, 3):
        assert (tmp_path / ('multi.%d.scene.json' % n)).exists()
        assert (tmp_path / ('multi.%d.svg' % n)).exists()
    assert not (tmp_path / 'multi.scene.json').exists()


def test_format_selects_outputs(tmp_path):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main(['--format', 'scene', str(source)]) == 0
    assert (tmp_path / 'dia.scene.json').exists()
    assert not (tmp_path / 'dia.svg').exists()

    source2 = write(tmp_path, 'other.dxy', SQUARE)
    assert main(['--format', 'svg', str(source2)]) == 0
    assert (tmp_path / 'other.svg').exists()
    assert not (tmp_path / 'other.scene.json').exists()


def test_out_dir_is_created(tmp_path):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    out = tmp_path / 'build' / 'nested'
    assert main(['-o', str(out), str(source)]) == 0
    assert (out / 'dia.svg').exists()


def test_an_out_dir_that_is_a_file_exits_2_and_writes_nothing(tmp_path,
                                                              capsys):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    out = write(tmp_path, 'outf', 'kept')
    assert main(['-o', str(out), str(source)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: %s: Not a directory\n' % out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ['dia.dxy', 'outf']
    assert out.read_text(encoding='utf-8') == 'kept'


@pytest.mark.parametrize('below', ['sub', 'sub/deeper'])
def test_an_out_dir_below_a_file_exits_2_and_names_the_path(tmp_path, capsys,
                                                            below):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    write(tmp_path, 'outf', 'kept')
    out = tmp_path / 'outf' / below
    assert main(['-o', str(out), str(source)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: %s: Not a directory\n' % (tmp_path / 'outf' / 'sub'))
    assert sorted(p.name for p in tmp_path.iterdir()) == ['dia.dxy', 'outf']


def test_outputs_use_lf_and_end_with_newline(tmp_path):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main([str(source)]) == 0
    for name in ('dia.scene.json', 'dia.svg'):
        raw = (tmp_path / name).read_bytes()
        assert b'\r' not in raw
        assert raw.endswith(b'\n')


# ---- diagnostics -----------------------------------------------------------

def test_parse_error_reports_location_and_exits_1(tmp_path, capsys):
    source = write(tmp_path, 'bad.dxy',
                   '\\bfig\n\\square[A`B`C;f`g`h`k]\n\\efig\n')
    assert main([str(source)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('%s:2:8: error: ArityError:' % source)
    assert '[in \\square]' in err
    assert not (tmp_path / 'bad.scene.json').exists()


def test_render_time_error_names_its_statement(tmp_path, capsys):
    crowded = ('\\bfig\\node p(0,0)[A]\\node q(30,0)[B]'
               '\\arrow/->/[p`q;f]\\efig\n')
    source = write(tmp_path, 'tight.dxy', crowded)
    assert main([str(source)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('%s:1:37: error: NodesOverlap:' % source)
    assert err.rstrip().endswith('[in \\arrow]')
    # the scene format stays purely logical, so it still compiles
    assert main(['--format', 'scene', str(source)]) == 0
    assert (tmp_path / 'tight.scene.json').exists()


def test_overlap_in_a_shape_reports_its_line_and_keyword(tmp_path, capsys):
    source = write(tmp_path, 'ov.dxy',
                   '\\bfig\n\\square<60,600>[AAAAAAAA`BBBBBBBBB`C`D;f`g`h`k]\n'
                   '\\efig\n')
    assert main([str(source)]) == 1
    err = capsys.readouterr().err
    assert err == ("%s:2:1: error: NodesOverlap: the boxes around 'C' and 'D' "
                   'overlap; no room is left for the arrow between them '
                   '[in \\square]\n' % source)
    assert not (tmp_path / 'ov.svg').exists()


def test_missing_input_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / 'absent.dxy')]) == 2
    assert 'absent.dxy' in capsys.readouterr().err


def test_status_is_the_worst_across_files(tmp_path, capsys):
    good = write(tmp_path, 'good.dxy', SQUARE)
    bad = write(tmp_path, 'bad.dxy', '\\square[A;f]\n')
    assert main([str(good), str(bad)]) == 1
    assert (tmp_path / 'good.svg').exists()
    assert 'bad.dxy' in capsys.readouterr().err


def test_no_inputs_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---- metrics ---------------------------------------------------------------

def test_unknown_glyphs_warn_by_default(tmp_path, capsys):
    source = write(tmp_path, 'uni.dxy', '\\bfig\\place(0,0)[αβ]\\efig\n')
    assert main([str(source)]) == 0
    err = capsys.readouterr().err
    assert "warning: no metrics for 'α'" in err
    assert "warning: no metrics for 'β'" in err
    assert (tmp_path / 'uni.svg').exists()


def test_strict_turns_unknown_glyphs_into_errors(tmp_path, capsys):
    source = write(tmp_path, 'uni.dxy', '\\bfig\\place(0,0)[α]\\efig\n')
    # a scene-only run never lays a unit out, so the check cannot rest
    # on layout's measuring
    for fmt in ('both', 'scene'):
        assert main(['--strict', '--format', fmt, str(source)]) == 1
        assert capsys.readouterr().err == (
            "%s: error: no metrics for 'α'; using the fallback advance\n"
            % source)
        assert os.listdir(tmp_path) == ['uni.dxy']


@pytest.mark.parametrize('body, glyphs', [
    # a label whose placement is no rule letter is dropped, not drawn
    ('\\bfig\\morphism|x|[A`B;\\alpha]\\efig', []),
    # a phantom node's text, named in the figure after its own: one warning
    ('\\bfig\\node p(0,0)[\\gamma]\\efig\n'
     '\\bfig\\node q(500,0)[Q]\\arrow[p`q;f]\\efig', ['\\gamma']),
    # inline labels above, below and on the shaft
    ('\\to^{\\alpha}_{\\beta}\n\\three|{\\gamma}',
     ['\\alpha', '\\beta', '\\gamma']),
])
def test_the_glyph_check_reads_each_drawn_text(tmp_path, capsys, body,
                                               glyphs):
    source = write(tmp_path, 'g.dxy', body + '\n')
    assert main([str(source)]) == 0
    assert capsys.readouterr().err == ''.join(
        "%s: warning: no metrics for %r; using the fallback advance\n"
        % (source, glyph) for glyph in glyphs)


def test_each_distinct_text_is_scanned_once_for_glyphs(tmp_path, capsys,
                                                     monkeypatch):
    scanned = []
    unknown_tokens = cli.MetricsTable.unknown_tokens

    def counting(table, text):
        scanned.append(text)
        return unknown_tokens(table, text)

    monkeypatch.setattr(cli.MetricsTable, 'unknown_tokens', counting)
    source = write(tmp_path, 'rep.dxy',
                   '\\bfig\\square[A`β`A`α;f`f`α`f]\\efig\n')
    assert main([str(source)]) == 0
    assert sorted(scanned) == ['A', 'f', 'α', 'β']
    assert capsys.readouterr().err == ''.join(
        "%s: warning: no metrics for %r; using the fallback advance\n"
        % (source, glyph) for glyph in 'αβ')


def test_metrics_file_drives_auto_width(tmp_path):
    table = write(tmp_path, 'wide.metrics', 'A 4000\nB 4000\n')
    source = write(tmp_path, 'auto.dxy',
                   '\\bfig\\Square[A`B`C`D;f`g`h`k]\\efig\n')
    assert main(['--metrics', str(table), str(source)]) == 0
    data = json.loads((tmp_path / 'auto.scene.json').read_text())
    xs = {node['pos']['x'] for node in data['nodes']}
    # (4000 + 2*500 + 4000)/2 -> 450 units, + 350 pad
    assert xs == {0, 800}


def test_the_environment_chooses_no_metrics_table(tmp_path, monkeypatch):
    # only --metrics picks a table: every output is a function of the
    # source and the flags
    source = write(tmp_path, 'auto.dxy',
                   '\\bfig\\Square[A`A`C`D;f`g`h`k]\\efig\n')
    outputs = ('auto.scene.json', 'auto.svg')
    assert main([str(source)]) == 0
    plain = [(tmp_path / name).read_bytes() for name in outputs]
    env_table = write(tmp_path, 'env.metrics', 'fallback 900\nA 4000\n')
    monkeypatch.setenv('DIAGRAMC_METRICS', str(env_table))
    assert main([str(source)]) == 0
    assert [(tmp_path / name).read_bytes() for name in outputs] == plain

    flag_table = write(tmp_path, 'flag.metrics', 'A 6000\n')
    assert main(['--metrics', str(flag_table), str(source)]) == 0
    data = json.loads((tmp_path / 'auto.scene.json').read_text())
    assert {n['pos']['x'] for n in data['nodes']} == {0, 1000}


def test_bad_metrics_path_exits_2(tmp_path, capsys, monkeypatch):
    # named as given, with the system's reason, as a bad -o is
    monkeypatch.chdir(tmp_path)
    write(tmp_path, 'dia.dxy', SQUARE)
    (tmp_path / 'd').mkdir()
    for option, reason in [('nothere', 'nothere: No such file or directory'),
                           ('d', 'd: Is a directory')]:
        assert main(['--metrics', option, 'dia.dxy']) == 2
        assert capsys.readouterr().err == 'diagramc: error: %s\n' % reason


@pytest.mark.parametrize('line', [
    'A not-a-number', '99999999999 500', 'U+110000 500', 'U+zz 500',
    '1114112 500', 'A ' + '9' * 400, 'descent -900', 'fallback -700',
    'A +5', 'A \u0663', '\u0663\u0663 500', 'U+%s 500' % ('0' * 10 + '41'),
])
def test_malformed_metrics_exits_2(tmp_path, capsys, line):
    table = write(tmp_path, 'junk.metrics', '# widths\n%s\n' % line)
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main(['--metrics', str(table), str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith('diagramc: error: %s:2: ' % table)
    assert err.count('\n') == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        'dia.dxy', 'junk.metrics']


def test_metrics_not_utf8_exits_2_naming_the_line(tmp_path, capsys):
    table = tmp_path / 'bad.tbl'
    table.write_bytes(b'A 500\n\xe9 600\n')
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main(['--metrics', str(table), str(source)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: %s:2: not valid UTF-8\n' % table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ['bad.tbl',
                                                          'dia.dxy']


# ---- configuration ---------------------------------------------------------

@pytest.mark.parametrize('flag', ['--em-pt', '--margin-pt', '--label-scale'])
@pytest.mark.parametrize('value', ['nan', 'inf', '-inf', '1.1e6', '1e200',
                                   '1e306'])
def test_non_finite_settings_exit_2_and_write_nothing(tmp_path, capsys, flag,
                                                      value):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main(['%s=%s' % (flag, value), str(source)]) == 2
    assert capsys.readouterr().err.startswith('diagramc: error: ')
    assert sorted(p.name for p in tmp_path.iterdir()) == ['dia.dxy']


def test_bad_em_size_exits_2(tmp_path, capsys):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    for value in ('0', '5e-324'):   # the least double rounds lengths to 0
        assert main(['--em-pt', value, str(source)]) == 2
        assert 'diagramc: error:' in capsys.readouterr().err


def test_em_pt_scales_svg_but_not_scene(tmp_path):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main([str(source)]) == 0
    base_scene = (tmp_path / 'dia.scene.json').read_text()
    base_svg = (tmp_path / 'dia.svg').read_text()
    assert main(['--em-pt', '20', str(source)]) == 0
    assert (tmp_path / 'dia.scene.json').read_text() == base_scene
    assert (tmp_path / 'dia.svg').read_text() != base_svg


def test_margin_flag_reaches_clipping(tmp_path):
    source = write(tmp_path, 'dia.dxy',
                   '\\bfig\\morphism(0,400)<600,0>[A`B;f]\\efig\n')
    assert main(['--margin-pt', '5', str(source)]) == 0
    svg = (tmp_path / 'dia.svg').read_text()
    assert 'x1="7.5"' in svg


def test_module_entry_point(tmp_path):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    # the child runs the package under test, installed or not
    package_root = pathlib.Path(cli.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, '-m', 'diagramc', str(source)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(package_root)))
    assert result.returncode == 0
    assert (tmp_path / 'dia.svg').exists()


# ---- batches ---------------------------------------------------------------

def test_internal_error_names_the_file_and_the_batch_goes_on(tmp_path, capsys,
                                                            monkeypatch):
    # a fault in layout, injected into the resolve of one file of the
    # batch: a failed input keeps none of its outputs, so that file writes
    # nothing
    def resolving(unit, metrics, cfg):
        if any(node.text == 'Huge' for node in unit.nodes):
            raise OverflowError('int too large to convert to float')
        return resolve_scene(unit, metrics, cfg)

    monkeypatch.setattr(cli.svg, 'resolve_scene', resolving)
    huge = write(tmp_path, 'huge.dxy',
                 '\\bfig\\morphism(0,0)<500,0>[Huge`B;f]\\efig\n')
    good = write(tmp_path, 'good.dxy', SQUARE)
    out = tmp_path / 'out'
    assert main(['-o', str(out), str(huge), str(good)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('%s: error: InternalError: OverflowError:' % huge)
    assert 'Traceback' not in err
    assert sorted(p.name for p in out.iterdir()) == [
        'good.scene.json', 'good.svg']


def test_a_source_that_is_not_utf8_is_a_located_parse_error(tmp_path, capsys):
    latin = tmp_path / 'latin.dxy'
    latin.write_bytes(b'\\bfig\\place(0,0)[\xe9]\\efig\n')
    good = write(tmp_path, 'good.dxy', SQUARE)
    assert main([str(latin), str(good)]) == 1
    assert capsys.readouterr().err == (
        '%s:1:18: error: ParseError: byte 0xE9 is not valid UTF-8\n' % latin)
    assert (tmp_path / 'good.svg').exists()


def test_a_bad_byte_is_located_as_the_scanner_counts(tmp_path, capsys):
    # CRLF and a lone CR each end one line, and a multibyte character
    # before the bad byte on its line is one column
    source = tmp_path / 'crlf.dxy'
    source.write_bytes(b'\\bfig\r\n\\place(0,0)[A]\r'
                       b'\\place(0,500)[\xce\xbbx\xff]\r\n\\efig\r\n')
    good = write(tmp_path, 'good.dxy', SQUARE)
    assert main([str(source), str(good)]) == 1
    assert capsys.readouterr().err == (
        '%s:3:17: error: ParseError: byte 0xFF is not valid UTF-8\n'
        % source)
    assert not (tmp_path / 'crlf.svg').exists()
    assert (tmp_path / 'good.svg').exists()


def test_one_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    bom = b'\xef\xbb\xbf'
    plain = write(tmp_path, 'plain.dxy', SQUARE)
    marked = tmp_path / 'marked.dxy'
    marked.write_bytes(bom + SQUARE.encode('utf-8'))
    table = tmp_path / 'bom.tab'
    table.write_bytes(bom + b'A 600\n')
    out = tmp_path / 'out'
    assert main(['--metrics', str(table), '-o', str(out), str(plain),
                 str(marked)]) == 0
    assert capsys.readouterr().err == ''
    for ext in ('svg', 'scene.json'):
        assert (out / ('marked.' + ext)).read_bytes() == \
            (out / ('plain.' + ext)).read_bytes()
    # a byte after the mark is located as it would be without it, and
    # only one mark is skipped
    bad = tmp_path / 'bad.dxy'
    bad.write_bytes(bom + b'ab\xe9\n')
    twice = tmp_path / 'twice.dxy'
    twice.write_bytes(bom + bom + SQUARE.encode('utf-8'))
    assert main([str(bad), str(twice)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == '%s:1:3: error: ParseError: byte 0xE9 is not valid ' \
        'UTF-8' % bad
    assert err[1].startswith(
        "%s:1:1: error: ParseError: unexpected character '\\ufeff'" % twice)


def test_the_second_input_writing_one_path_fails_and_writes_nothing(
        tmp_path, capsys):
    first = tmp_path / 'a' / 'x.dxy'
    second = tmp_path / 'b' / 'x.dxy'
    for path in (first, second):
        path.parent.mkdir()
        path.write_text(SQUARE, encoding='utf-8')
    out = tmp_path / 'out'
    assert main(['-o', str(out), str(first), str(second)]) == 2
    err = capsys.readouterr().err
    assert err == ('diagramc: error: OutputCollision: %s and %s both write '
                   '%s\n' % (first, second, out / 'x.scene.json'))
    assert sorted(p.name for p in out.iterdir()) == ['x.scene.json', 'x.svg']


def test_numbered_outputs_collide_with_a_dotted_stem(tmp_path, capsys,
                                                     monkeypatch):
    writes = []
    real_write = cli._write

    def recording(path, *rest):
        writes.append(path)
        return real_write(path, *rest)

    monkeypatch.setattr(cli, '_write', recording)
    two = write(tmp_path, 'x.dxy', SQUARE + SQUARE)    # x.1.svg, x.2.svg
    dotted = write(tmp_path, 'x.1.dxy', SQUARE)        # x.1.svg
    assert main(['--format', 'svg', str(two), str(dotted)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: %s and %s both write %s\n'
        % (two, dotted, tmp_path / 'x.1.svg'))
    # x.dxy writes x.1.svg and x.2.svg; x.1.dxy writes nothing
    assert (tmp_path / 'x.2.svg').exists()
    assert writes == [str(tmp_path / 'x.1.svg'), str(tmp_path / 'x.2.svg')]
    # with one figure, x.dxy writes x.svg and nothing clashes
    writes.clear()
    write(tmp_path, 'x.dxy', SQUARE)
    assert main(['--format', 'svg', str(two), str(dotted)]) == 0
    assert writes == [str(tmp_path / 'x.svg'), str(tmp_path / 'x.1.svg')]


def test_a_failing_input_claims_no_paths(tmp_path):
    bad = tmp_path / 'a' / 'x.dxy'
    bad.parent.mkdir()
    bad.write_text('\\square[A;f]\n', encoding='utf-8')
    good = write(tmp_path, 'x.dxy', SQUARE)
    out = tmp_path / 'out'
    assert main(['-o', str(out), str(bad), str(good)]) == 1
    assert (out / 'x.svg').exists()


def test_an_input_is_never_overwritten_by_its_own_output(tmp_path, capsys):
    source = write(tmp_path, 'self.svg', SQUARE)
    assert main([str(source)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: %s would overwrite the input '
        '%s through %s\n' % (source, source, source))
    assert source.read_text(encoding='utf-8') == SQUARE
    assert sorted(p.name for p in tmp_path.iterdir()) == ['self.svg']


def test_an_input_is_never_overwritten_by_an_earlier_one(tmp_path, capsys):
    source = write(tmp_path, 'a.dxy', SQUARE)
    scene = write(tmp_path, 'a.scene.json', '{}\n')
    assert main([str(source), str(scene)]) == 2
    assert ('would overwrite the input %s through %s\n' % (scene, scene)
            in capsys.readouterr().err)
    assert scene.read_text(encoding='utf-8') == '{}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        'a.dxy', 'a.scene.json']
    # numbered outputs count too: a.dxy with two figures writes a.2.svg
    write(tmp_path, 'a.dxy', SQUARE + SQUARE)
    numbered = write(tmp_path, 'a.2.svg', '<svg/>\n')
    assert main(['--format', 'svg', str(source), str(numbered)]) == 2
    assert numbered.read_text(encoding='utf-8') == '<svg/>\n'
    assert not (tmp_path / 'a.1.svg').exists()


def test_an_output_linked_to_its_own_input_is_refused(tmp_path, capsys):
    source = write(tmp_path, 'a.dxy', SQUARE)
    (tmp_path / 'a.svg').symlink_to('a.dxy')
    assert main([str(source)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: %s would overwrite the input %s '
        'through %s\n' % (source, source, tmp_path / 'a.svg'))
    assert source.read_text(encoding='utf-8') == SQUARE
    assert sorted(p.name for p in tmp_path.iterdir()) == ['a.dxy', 'a.svg']


def test_an_output_linked_to_another_input_is_refused(tmp_path, capsys):
    first = write(tmp_path, 'a.dxy', SQUARE)
    second = write(tmp_path, 'b.dxy', SQUARE)
    out = tmp_path / 'out'
    out.mkdir()
    (out / 'a.scene.json').symlink_to(second)
    assert main(['-o', str(out), str(first), str(second)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: %s would overwrite the input %s '
        'through %s\n' % (first, second, out / 'a.scene.json'))
    assert second.read_text(encoding='utf-8') == SQUARE
    # the other input's outputs are still written
    assert sorted(p.name for p in out.iterdir()) == [
        'a.scene.json', 'b.scene.json', 'b.svg']


def test_an_output_linked_to_an_earlier_output_is_refused(tmp_path, capsys):
    first = write(tmp_path, 'x.dxy', SQUARE)
    second = write(tmp_path, 'y.dxy', '\\bfig\\morphism[A`B;f]\\efig\n')
    third = write(tmp_path, 'z.dxy', SQUARE)
    (tmp_path / 'y.svg').symlink_to('x.svg')
    assert main(['--format', 'svg', str(first), str(second), str(third)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: %s and %s both write %s\n'
        % (first, second, tmp_path / 'y.svg'))
    assert (tmp_path / 'x.svg').read_text(encoding='utf-8') == (
        tmp_path / 'z.svg').read_text(encoding='utf-8')


def test_a_refused_input_claims_none_of_its_outputs(tmp_path, capsys):
    # a rebuild: x.1.svg is on disk from the first run, x.dxy is refused for
    # x.2.svg, and x.1.dxy may still write x.1.svg
    two = write(tmp_path, 'x.dxy', SQUARE + SQUARE)
    dotted = write(tmp_path, 'x.1.dxy', '\\bfig\\morphism[A`B;f]\\efig\n')
    assert main(['--format', 'svg', str(two)]) == 0
    stale = (tmp_path / 'x.1.svg').read_text(encoding='utf-8')
    numbered = tmp_path / 'x.2.svg'
    assert main(['--format', 'svg', str(two), str(numbered), str(dotted)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (
        'diagramc: error: OutputCollision: %s would overwrite the input %s '
        'through %s' % (two, numbered, numbered))
    assert err[1].startswith('%s:1:1: error: ParseError: ' % numbered)
    assert len(err) == 2
    assert (tmp_path / 'x.1.svg').read_text(encoding='utf-8') != stale


def test_an_input_clashing_with_an_earlier_one_leaves_the_rest_alone(
        tmp_path, capsys):
    first, second, third = (tmp_path / d / n for d, n in (
        ('a', 'x.dxy'), ('b', 'x.dxy'), ('c', 'y.dxy')))
    for path in (first, second, third):
        path.parent.mkdir()
        path.write_text(SQUARE, encoding='utf-8')
    out = tmp_path / 'out'
    assert main(['-o', str(out), str(first), str(second), str(third)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: %s and %s both write %s\n'
        % (first, second, out / 'x.scene.json'))
    assert sorted(p.name for p in out.iterdir()) == [
        'x.scene.json', 'x.svg', 'y.scene.json', 'y.svg']


def test_an_output_reaching_a_missing_input_through_a_linked_dir_is_refused(
        tmp_path, capsys, monkeypatch):
    # out -> . makes out/x.svg the missing input ./x.svg: by absolute path
    # they differ, and a missing input has no file identity
    monkeypatch.chdir(tmp_path)
    write(tmp_path, 'x.dxy', SQUARE)
    (tmp_path / 'out').symlink_to('.')
    assert main(['-o', 'out', 'x.dxy', 'x.svg']) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: x.dxy would overwrite the input '
        'x.svg through %s\nx.svg: error: No such file or directory\n'
        % os.path.join('out', 'x.svg'))
    assert sorted(p.name for p in tmp_path.iterdir()) == ['out', 'x.dxy']


def test_an_output_linked_to_a_missing_input_is_refused(tmp_path, capsys):
    # a dangling link: writing x.svg would create the input y.dxy
    first = write(tmp_path, 'x.dxy', SQUARE)
    second = tmp_path / 'y.dxy'
    (tmp_path / 'x.svg').symlink_to('y.dxy')
    assert main(['--format', 'svg', str(first), str(second)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: %s would overwrite the input %s '
        'through %s\n%s: error: No such file or directory\n'
        % (first, second, tmp_path / 'x.svg', second))
    assert not second.exists()


def test_an_output_named_like_a_missing_input_is_refused(tmp_path, capsys):
    # without the name check a.dxy would write a.svg, which would then be
    # compiled as a source
    source = write(tmp_path, 'a.dxy', SQUARE)
    missing = tmp_path / 'a.svg'
    assert main([str(source), str(missing)]) == 2
    assert capsys.readouterr().err == (
        'diagramc: error: OutputCollision: %s would overwrite the input %s '
        'through %s\n%s: error: No such file or directory\n'
        % (source, missing, missing, missing))
    assert sorted(p.name for p in tmp_path.iterdir()) == ['a.dxy']


def test_diagnostics_come_in_input_order(tmp_path, capsys):
    bad = write(tmp_path, 'bad.dxy', '\\square[A`B`C;f`g`h`k]\n')
    good = write(tmp_path, 'x.dxy', SQUARE)
    dotted = write(tmp_path, 'x.1.dxy', '\\square[A`B;f`g`h`k]\n')
    assert main([str(bad), str(good), str(dotted)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(':')[0] for line in err] == [str(bad), str(dotted)]
    assert all('ArityError' in line for line in err)


# One batch of clash-prone inputs: (directory, name, content) each, the
# content a key of _CONTENTS, where None is a missing file.
_STEMS = ('x', 'x.1', 'x.2', 'x.1.2', 'a')
_CONTENTS = {'one': SQUARE, 'two': SQUARE + SQUARE,
             'junk': '\\square[A;f]\n', 'missing': None}
_BATCHES = st.lists(
    st.tuples(st.sampled_from(('d0', 'd1')),
              st.builds('{}{}'.format, st.sampled_from(_STEMS),
                        st.sampled_from(('.dxy', '.svg', '.scene.json'))),
              st.sampled_from(sorted(_CONTENTS))),
    min_size=1, max_size=4, unique_by=lambda entry: entry[:2])
_CLASH = re.compile(r'diagramc: error: OutputCollision: (?:(\S+) would '
                    r'overwrite the input (\S+) through (\S+)|(\S+) and '
                    r'(\S+) both write (\S+))$')


def _run_batch(root, batch, argv):
    """main over the batch in a fresh ``root``: status, stderr, writes."""
    inputs = []
    for directory, name, content in batch:
        path = root / directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if _CONTENTS[content] is not None:
            path.write_text(_CONTENTS[content], encoding='utf-8')
        inputs.append(str(path))
    before = {path: pathlib.Path(path).read_bytes() for path in inputs
              if os.path.exists(path)}
    writes, current = [], [None]
    real_compile, real_write = cli._compile_input, cli._write

    def compiling(path, *rest):
        current[0] = path
        return real_compile(path, *rest)

    def writing(path, *rest):
        writes.append((current[0], os.path.abspath(path)))
        return real_write(path, *rest)

    stderr = io.StringIO()
    with mock.patch.object(cli, '_compile_input', compiling), \
            mock.patch.object(cli, '_write', writing), \
            contextlib.redirect_stderr(stderr):
        status = main(argv + inputs)
    after = {path: pathlib.Path(path).read_bytes() for path in inputs
             if os.path.exists(path)}
    assert after == before, 'an input changed or appeared'
    return inputs, status, stderr.getvalue().splitlines(), writes


@settings(max_examples=100, deadline=None)
@given(_BATCHES)
@example([('d0', 'a.dxy', 'one'), ('d0', 'a.svg', 'missing')])
@example([('d0', 'x.dxy', 'two'), ('d0', 'x.1.dxy', 'one'),
          ('d1', 'x.dxy', 'junk'), ('d1', 'x.2.svg', 'one')])
def test_no_output_overwrites_an_input_or_an_earlier_output(batch):
    with tempfile.TemporaryDirectory() as temp:
        for n, (fmt, out_dir) in enumerate(itertools.product(
                ('scene', 'svg', 'both'), (False, True))):
            root = pathlib.Path(temp) / str(n)
            argv = ['--format', fmt]
            if out_dir:
                argv += ['-o', str(root / 'out')]
            inputs, status, err, writes = _run_batch(root, batch, argv)
            paths = [path for _, path in writes]
            assert len(set(paths)) == len(paths), 'a path written twice'
            assert not set(paths) & {os.path.abspath(p) for p in inputs}
            clashed = set()
            for line in err:
                match = _CLASH.match(line)
                if match is None:
                    continue
                failing, source, through, owner, second, shared = \
                    match.groups()
                if failing is not None:
                    assert source in inputs
                    assert (os.path.abspath(through)
                            == os.path.abspath(source))
                else:
                    failing = second
                    assert (owner, os.path.abspath(shared)) in writes
                clashed.add(failing)
            contents = [content for _, _, content in batch]
            expected = max([2] * bool(clashed)
                           + [2] * ('missing' in contents)
                           + [1] * ('junk' in contents) + [0])
            assert status == expected, err
            per_format = 2 if fmt == 'both' else 1
            for path, content in zip(inputs, contents):
                written = sum(owner == path for owner, _ in writes)
                if path in clashed or content in ('junk', 'missing'):
                    assert written == 0, path
                else:
                    assert written == per_format * (
                        2 if content == 'two' else 1), path


def test_control_character_is_a_located_parse_error(tmp_path, capsys):
    source = write(tmp_path, 'ctl.dxy', '\\bfig\n\\place(0,0)[a\x01b]\\efig\n')
    assert main([str(source)]) == 1
    assert capsys.readouterr().err == (
        '%s:2:14: error: ParseError: control character U+0001 is not '
        'allowed in source text\n' % source)
    assert not (tmp_path / 'ctl.svg').exists()
    # XML 1.0 forbids U+FFFE and U+FFFF as well
    for line, col, code in (('\\place(0,0)[a\ufffeb]', 14, 'FFFE'),
                            ('\\morphism[A\uffff`B;f]', 12, 'FFFF')):
        source = write(tmp_path, 'ctl.dxy', '\\bfig\n%s\\efig\n' % line)
        assert main([str(source)]) == 1
        assert capsys.readouterr().err == (
            '%s:2:%d: error: ParseError: control character U+%s is not '
            'allowed in source text\n' % (source, col, code))
        assert sorted(p.name for p in tmp_path.iterdir()) == ['ctl.dxy']


@pytest.mark.parametrize('body, message', [
    ('\\morphism(%s,0)[A`B;f]' % ('1' * 5000),
     'ParseError: coordinate pair has 5000 digits; at most 9 are allowed'),
    ('\\morphism<1%s,0>[A`B;f]' % ('0' * 400),
     'ParseError: span has 401 digits; at most 9 are allowed'),
    ('\\iiixii(0,0)7<1234567890>[A`B`C`D`E`F;a`b`c`d`e`f`g]',
     'ParseError: span has 10 digits; at most 9 are allowed'),
    ('\\iiixii(0,0)1234567890[A`B`C`D`E`F;a`b`c`d`e`f`g]',
     'ParseError: grid mask has 10 digits; at most 9 are allowed'),
    ('\\iiixii(0,0)\u00b2700[A`B`C`D`E`F;a`b`c`d`e`f`g]',
     'ParseError: grid mask must be a decimal number'),
    ('\\iiixii(0,0){\u00b2700}[A`B`C`D`E`F;a`b`c`d`e`f`g]',
     'ParseError: grid mask must be a decimal number'),
    ('\\square/@{->}@<%spt>`>`>`>/[A`B`C`D;f`g`h`k]' % ('9' * 400),
     "UnsupportedArrowSpec: unsupported arrow spec '@{->}@<999"),
    ('\\morphism/@{->}@<\u0663pt>/[A`B;f]',
     "UnsupportedArrowSpec: unsupported arrow spec '@{->}@<\u0663pt>' at "
     'position 5 [in \\morphism]'),
])
def test_bad_literals_are_named_diagnostics(tmp_path, capsys, body, message):
    source = write(tmp_path, 'bad.dxy', '\\bfig\n%s\n\\efig\n' % body)
    assert main([str(source)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('%s:2:' % source)
    assert message in err
    assert 'InternalError' not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ['bad.dxy']



def test_a_failed_write_exits_2_and_names_the_output(tmp_path, capsys):
    # an output that is a directory, or a link to one, fails its input
    # before anything is written: no output of it is new
    source = write(tmp_path, 'a.dxy', SQUARE)
    (tmp_path / 'a.svg').mkdir()
    assert main([str(source)]) == 2
    assert capsys.readouterr().err == (
        '%s: error: Is a directory\n' % (tmp_path / 'a.svg'))
    assert sorted(p.name for p in tmp_path.iterdir()) == ['a.dxy', 'a.svg']
    source = write(tmp_path, 'b.dxy', SQUARE)
    (tmp_path / 'b.svg').symlink_to('a.svg')
    assert main([str(source)]) == 2
    assert capsys.readouterr().err == (
        '%s: error: Is a directory\n' % (tmp_path / 'b.svg'))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        'a.dxy', 'a.svg', 'b.dxy', 'b.svg']
    assert list((tmp_path / 'a.svg').iterdir()) == []


# ---- how outputs are written ---------------------------------------------

TWO = SQUARE + '\\bfig\\morphism(0,0)<10,0>[XXXX`YYYY;f]\\efig\n'


def temps(directory):
    return sorted(p.name for p in directory.iterdir()
                  if p.name.endswith('.tmp'))


def test_a_write_that_fails_partway_keeps_the_old_file(tmp_path, capsys,
                                                      cut_pieces):
    # the scene file is the first output written
    source = write(tmp_path, 'a.dxy', SQUARE)
    (tmp_path / 'a.scene.json').write_bytes(b'old scene')
    cut_pieces(64, OSError(28, 'No space left on device'))
    assert main([str(source)]) == 2
    assert capsys.readouterr().err == (
        '%s: error: No space left on device\n' % (tmp_path / 'a.scene.json'))
    assert (tmp_path / 'a.scene.json').read_bytes() == b'old scene'
    assert sorted(p.name for p in tmp_path.iterdir()) == ['a.dxy',
                                                          'a.scene.json']


def test_a_layout_error_in_a_later_figure_writes_no_output(tmp_path, capsys):
    source = write(tmp_path, 'two.dxy', TWO)
    (tmp_path / 'two.1.svg').write_bytes(b'old')
    assert main([str(source)]) == 1
    assert 'NodesOverlap' in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ['two.1.svg',
                                                          'two.dxy']
    assert (tmp_path / 'two.1.svg').read_bytes() == b'old'


@pytest.mark.parametrize('where', ['write', 'render'])
def test_an_interrupt_leaves_no_temp(tmp_path, monkeypatch, cut_pieces,
                                     where):
    source = write(tmp_path, 'two.dxy', SQUARE + SQUARE)
    if where == 'write':
        cut_pieces(64, KeyboardInterrupt)
    else:   # the second figure, once the first one's outputs are written
        resolves = []

        def resolving(*args):
            resolves.append(args)
            if len(resolves) == 2:
                raise KeyboardInterrupt
            return resolve_scene(*args)

        monkeypatch.setattr(cli.svg, 'resolve_scene', resolving)
    with pytest.raises(KeyboardInterrupt):
        main([str(source)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ['two.dxy']


def test_each_output_is_written_before_the_next_is_made(tmp_path,
                                                        monkeypatch):
    # each output's temp is made at its first byte, as its emitter runs;
    # the temps made before are whole, and layout resolves a unit only
    # once its scene file is
    source = write(tmp_path, 'two.dxy', SQUARE + SQUARE)
    seen = []
    for owner, name in ((cli.svg, 'resolve_scene'),
                        (cli.svg, 'render_resolved'), (cli, 'dump_scene')):
        def making(*args, _real=getattr(owner, name)):
            seen.append({temp: (tmp_path / temp).stat().st_size
                         for temp in temps(tmp_path)})
            return _real(*args)

        monkeypatch.setattr(owner, name, making)
    assert main([str(source)]) == 0
    names = ('1.scene.json', '1.svg', '2.scene.json', '2.svg')
    made = ['.two.%s.%d.tmp' % (name, os.getpid()) for name in names]
    sizes = [(tmp_path / ('two.' + name)).stat().st_size for name in names]
    whole = [dict(zip(made[:n], sizes[:n])) for n in range(4)]
    assert seen == [whole[0], whole[1], whole[1], whole[2], whole[3],
                    whole[3]]
    assert temps(tmp_path) == []


def test_a_temp_name_in_use_is_never_overwritten(tmp_path, capsys):
    source = write(tmp_path, 'a.dxy', SQUARE)
    taken = tmp_path / ('.a.svg.%d.tmp' % os.getpid())
    taken.write_bytes(b'not ours')
    assert main([str(source)]) == 2
    assert capsys.readouterr().err.startswith(
        '%s: error: File exists' % (tmp_path / 'a.svg'))
    assert taken.read_bytes() == b'not ours'
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name,
                                                          'a.dxy']


def test_an_output_whose_name_fits_gets_a_temp_that_fits(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    # the longest names the directory takes: x.1.scene.json fits, but
    # .x.1.scene.json.<pid>.tmp does not, so its temp takes a short name,
    # one of its own among the temps of the input
    name_max = os.pathconf(tmp_path, 'PC_NAME_MAX')
    stem = 'x' * (name_max - len('.1.scene.json'))
    source = write(tmp_path, stem + '.dxy', SQUARE + SQUARE)
    names = [stem + '.%d.%s' % (n, ext) for n in (1, 2)
             for ext in ('scene.json', 'svg')]
    short = ['.%d.%d.tmp' % (os.getpid(), n) for n in range(4)]
    expected = []
    for n, name in enumerate(names):
        temp = '.%s.%d.tmp' % (name, os.getpid())
        expected.append((temp if len(temp) <= name_max else short[n], name))
    assert expected[0] == (short[0], names[0])
    assert expected[2] == (short[2], names[2])
    renamed = []

    def replacing(temp, out, _replace=os.replace):
        renamed.append((os.path.basename(temp), os.path.basename(out)))
        return _replace(temp, out)
    monkeypatch.setattr(os, 'replace', replacing)
    assert main([str(source)]) == 0
    assert capsys.readouterr().err == ''
    assert sorted(renamed) == sorted(expected)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        names + [source.name])
    # a short name in use is never overwritten
    for name in names:
        (tmp_path / name).write_bytes(b'old')
    taken = tmp_path / short[0]
    taken.write_bytes(b'not ours')
    assert main([str(source)]) == 2
    assert capsys.readouterr().err == '%s: error: File exists\n' % (
        tmp_path / names[0])
    assert taken.read_bytes() == b'not ours'
    assert all((tmp_path / name).read_bytes() == b'old' for name in names)


def test_a_temp_that_cannot_be_removed_leaves_the_diagnostic(
        tmp_path, monkeypatch, capsys):
    # the layout error in the second figure stands, with its own status,
    # and the temps written before it are left where they are
    source = write(tmp_path, 'two.dxy', TWO)
    assert main([str(source)]) == 1
    expected = capsys.readouterr().err
    assert 'NodesOverlap' in expected
    refused = []

    def refusing(path, *args, **kwargs):
        refused.append(os.path.basename(path))
        raise PermissionError(13, 'Permission denied', path)
    monkeypatch.setattr(os, 'unlink', refusing)
    assert main([str(source)]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == expected
    made = ['.two.%s.%d.tmp' % (name, os.getpid())
            for name in ('1.scene.json', '1.svg', '2.scene.json')]
    assert refused == made
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        made + ['two.dxy'])


def test_a_rebuild_rewrites_only_what_changed(tmp_path):
    # the inline arrow's label is not ASCII: its UTF-8 is longer than
    # the text, and the comparison must count bytes
    source = write(tmp_path, 'multi.dxy', SQUARE + '\\to^{\u00e9}\n')
    out = tmp_path / 'out'
    assert main(['-o', str(out), str(source)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 4
    for path in out.iterdir():
        os.utime(path, (1e9, 1e9))
    before = {p.name: (p.stat().st_ino, p.read_bytes())
              for p in out.iterdir()}
    assert main(['-o', str(out), str(source)]) == 0
    for path in out.iterdir():
        assert path.stat().st_mtime == 1e9, path.name
        assert (path.stat().st_ino, path.read_bytes()) == before[path.name]
    # a changed file, of its own size or not, is written anew
    svg = out / 'multi.2.svg'
    svg.write_bytes(before['multi.2.svg'][1].replace(b'<g', b'<G', 1))
    (out / 'multi.1.svg').write_bytes(b'short')
    assert main(['-o', str(out), str(source)]) == 0
    for path in out.iterdir():
        assert path.read_bytes() == before[path.name][1]
        changed = path.name in ('multi.1.svg', 'multi.2.svg')
        assert (path.stat().st_mtime != 1e9) == changed, path.name
    assert sorted(p.name for p in out.iterdir()) == names


def test_each_output_is_known_by_the_file_it_ends_as(tmp_path, monkeypatch):
    # an output joins ``written`` under the identity of its renamed temp,
    # or of the old file where that one is kept
    batches = []
    real_compile = cli._compile_input

    def compiling(path, *rest):
        batches.append(rest[-1])   # ``written``, filled as the batch goes
        return real_compile(path, *rest)
    monkeypatch.setattr(cli, '_compile_input', compiling)
    source = write(tmp_path, 'multi.dxy', SQUARE + '\\to^{\u00e9}\n')
    out = tmp_path / 'out'
    for _ in range(2):   # every output new, then one of four rewritten
        assert main(['-o', str(out), str(source)]) == 0
        assert batches[-1] == {(p.stat().st_dev, p.stat().st_ino):
                               str(source) for p in out.iterdir()}
        (out / 'multi.2.svg').write_bytes(b'short')


def test_an_unchanged_rebuild_makes_no_file(tmp_path, monkeypatch, capsys):
    # where no file can be made, as in a directory that is read-only or
    # full, outputs that already hold their bytes need none; an output
    # that changed needs its temp, and fails its input without one
    source = write(tmp_path, 'multi.dxy', SQUARE + '\\to^{\u00e9}\n')
    out = tmp_path / 'out'
    assert main(['-o', str(out), str(source)]) == 0
    os.utime(out, (1e9, 1e9))
    inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
    refused = []

    def refusing(path, mode='r', *args, _open=open, **kwargs):
        if 'x' in mode:
            refused.append(os.path.basename(path))
            raise PermissionError(13, 'Permission denied', path)
        return _open(path, mode, *args, **kwargs)
    monkeypatch.setattr(cli, 'open', refusing, raising=False)
    assert main(['-o', str(out), str(source)]) == 0
    assert refused == []
    assert out.stat().st_mtime == 1e9
    assert {p.name: p.stat().st_ino for p in out.iterdir()} == inodes
    (out / 'multi.2.svg').write_bytes(b'short')
    assert main(['-o', str(out), str(source)]) == 2
    assert refused == ['.multi.2.svg.%d.tmp' % os.getpid()]
    assert capsys.readouterr().err.endswith(
        '\n%s: error: Permission denied\n' % (out / 'multi.2.svg'))
    assert sorted(p.name for p in out.iterdir()) == sorted(inodes)

NON_ASCII = '\\bfig\\square[\u00c5`\u2192`\U0001d538`D;\u00e9`g`h`k]\\efig\n'


@pytest.mark.parametrize('case', ['prefix', 'longer', 'first', 'last',
                                  'same'])
def test_an_existing_output_is_compared_byte_for_byte(tmp_path, cut_pieces,
                                                      case):
    # each piece of 3 characters is compared with the old file as it is
    # written; only an old file equal in every byte, and no longer, stays
    source = write(tmp_path, 'a.dxy', NON_ASCII)
    fresh, out = tmp_path / 'fresh', tmp_path / 'out'
    assert main(['-o', str(fresh), str(source)]) == 0
    out.mkdir()
    for path in fresh.iterdir():
        new = path.read_bytes()
        cut = new.index('\u2192'.encode('utf-8')) + 1   # inside a character
        (out / path.name).write_bytes({
            'prefix': new[:cut], 'longer': new + b' ',
            'first': bytes([new[0] ^ 1]) + new[1:],
            'last': new[:-1] + bytes([new[-1] ^ 1]), 'same': new}[case])
        os.utime(out / path.name, (1e9, 1e9))
    inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
    cut_pieces(3)
    assert main(['-o', str(out), str(source)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ['a.scene.json', 'a.svg']
    for path in out.iterdir():
        assert path.read_bytes() == (fresh / path.name).read_bytes()
        kept = (path.stat().st_ino, path.stat().st_mtime) == (
            inodes[path.name], 1e9)
        assert kept == (case == 'same'), path.name


def test_an_output_it_cannot_read_is_written_anew(tmp_path, monkeypatch):
    # root reads a file of mode 000, so the refusal is patched in: an
    # output of the right size that cannot be opened is replaced
    source = write(tmp_path, 'a.dxy', SQUARE)
    assert main([str(source)]) == 0
    svg = tmp_path / 'a.svg'
    before = (svg.stat().st_ino, svg.read_bytes())
    refused = []

    def refusing(path, *args, _open=open, **kwargs):
        if path == str(svg):
            refused.append(path)
            raise PermissionError(13, 'Permission denied', path)
        return _open(path, *args, **kwargs)
    monkeypatch.setattr(cli, 'open', refusing, raising=False)
    assert main([str(source)]) == 0
    assert refused == [str(svg)]
    assert svg.stat().st_ino != before[0]
    assert svg.read_bytes() == before[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        'a.dxy', 'a.scene.json', 'a.svg']


def test_an_output_that_is_a_link_is_replaced_not_followed(tmp_path):
    source = write(tmp_path, 'a.dxy', SQUARE)
    target = tmp_path / 'elsewhere.svg'
    target.write_bytes(b'kept')
    (tmp_path / 'a.svg').symlink_to(target)
    assert main([str(source)]) == 0
    assert not (tmp_path / 'a.svg').is_symlink()
    assert (tmp_path / 'a.svg').read_text(encoding='utf-8').startswith(
        '<?xml')
    assert target.read_bytes() == b'kept'


def test_new_outputs_take_their_mode_from_the_umask(tmp_path):
    source = write(tmp_path, 'a.dxy', SQUARE)
    old = os.umask(0o027)
    try:
        assert main([str(source)]) == 0
    finally:
        os.umask(old)
    for name in ('a.svg', 'a.scene.json'):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640


def test_outputs_left_by_another_unit_count_are_named(tmp_path, capsys):
    source = write(tmp_path, 'two.dxy', SQUARE + SQUARE)
    assert main([str(source)]) == 0
    source.write_text(SQUARE, encoding='utf-8')
    assert main([str(source)]) == 0
    assert capsys.readouterr().err == ''.join(
        '%s: warning: stale output %s left in place\n'
        % (source, tmp_path / name)
        for name in ('two.1.scene.json', 'two.2.scene.json', 'two.1.svg',
                     'two.2.svg'))
    assert len(list(tmp_path.iterdir())) == 7     # nothing is deleted
    # back to two figures: the plain names are left over, and only the
    # format asked for is looked at
    source.write_text(SQUARE + SQUARE, encoding='utf-8')
    assert main(['--format', 'svg', str(source)]) == 0
    assert capsys.readouterr().err == (
        '%s: warning: stale output %s left in place\n'
        % (source, tmp_path / 'two.svg'))


def test_an_output_of_another_input_is_not_stale(tmp_path, capsys):
    two = write(tmp_path, 'x.dxy', SQUARE + SQUARE)   # x.1.svg, x.2.svg
    assert main(['--format', 'svg', str(two)]) == 0
    write(tmp_path, 'x.dxy', SQUARE)                  # x.svg
    dotted = write(tmp_path, 'x.1.dxy', SQUARE)       # x.1.svg
    assert main(['--format', 'svg', str(two), str(dotted)]) == 0
    assert capsys.readouterr().err == (
        '%s: warning: stale output %s left in place\n'
        % (two, tmp_path / 'x.2.svg'))
