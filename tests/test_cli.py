"""Command line behavior: outputs, flags, diagnostics, exit codes."""

import json
import subprocess
import sys

import pytest

from diagramc import cli
from diagramc.cli import main
from diagramc.svg import render as svg_render

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


def test_render_time_error_has_no_location(tmp_path, capsys):
    crowded = ('\\bfig\\node p(0,0)[A]\\node q(30,0)[B]'
               '\\arrow/->/[p`q;f]\\efig\n')
    source = write(tmp_path, 'tight.dxy', crowded)
    assert main([str(source)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('%s: error: NodesOverlap:' % source)
    # the scene format stays purely logical, so it still compiles
    assert main(['--format', 'scene', str(source)]) == 0
    assert (tmp_path / 'tight.scene.json').exists()


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
    assert main(['--strict', str(source)]) == 1
    assert 'error: no metrics' in capsys.readouterr().err
    assert not (tmp_path / 'uni.svg').exists()


def test_metrics_file_drives_auto_width(tmp_path):
    table = write(tmp_path, 'wide.metrics', 'A 4000\nB 4000\n')
    source = write(tmp_path, 'auto.dxy',
                   '\\bfig\\Square[A`B`C`D;f`g`h`k]\\efig\n')
    assert main(['--metrics', str(table), str(source)]) == 0
    data = json.loads((tmp_path / 'auto.scene.json').read_text())
    xs = {node['pos']['x'] for node in data['nodes']}
    # (4000 + 2*500 + 4000)/2 -> 450 units, + 350 pad
    assert xs == {0, 800}


def test_metrics_env_fallback_and_flag_precedence(tmp_path, monkeypatch,
                                                  capsys):
    env_table = write(tmp_path, 'env.metrics', 'fallback 900\nA 4000\n')
    monkeypatch.setenv('DIAGRAMC_METRICS', str(env_table))
    source = write(tmp_path, 'auto.dxy',
                   '\\bfig\\Square[A`A`C`D;f`g`h`k]\\efig\n')
    assert main([str(source)]) == 0
    data = json.loads((tmp_path / 'auto.scene.json').read_text())
    assert {n['pos']['x'] for n in data['nodes']} == {0, 800}

    flag_table = write(tmp_path, 'flag.metrics', 'A 6000\n')
    assert main(['--metrics', str(flag_table), str(source)]) == 0
    data = json.loads((tmp_path / 'auto.scene.json').read_text())
    assert {n['pos']['x'] for n in data['nodes']} == {0, 1000}


def test_bad_metrics_path_exits_2(tmp_path, capsys):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main(['--metrics', str(tmp_path / 'nope.metrics'),
                 str(source)]) == 2
    assert 'diagramc: error:' in capsys.readouterr().err


def test_malformed_metrics_exits_2(tmp_path, capsys):
    table = write(tmp_path, 'junk.metrics', 'A not-a-number\n')
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main(['--metrics', str(table), str(source)]) == 2
    assert 'diagramc: error:' in capsys.readouterr().err


# ---- configuration ---------------------------------------------------------

@pytest.mark.parametrize('flag', ['--em-pt', '--margin-pt', '--label-scale'])
@pytest.mark.parametrize('value', ['nan', 'inf', '-inf'])
def test_non_finite_settings_exit_2_and_write_nothing(tmp_path, capsys, flag,
                                                      value):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main(['%s=%s' % (flag, value), str(source)]) == 2
    assert capsys.readouterr().err.startswith('diagramc: error: ')
    assert sorted(p.name for p in tmp_path.iterdir()) == ['dia.dxy']


def test_bad_em_size_exits_2(tmp_path, capsys):
    source = write(tmp_path, 'dia.dxy', SQUARE)
    assert main(['--em-pt', '0', str(source)]) == 2
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
    result = subprocess.run(
        [sys.executable, '-m', 'diagramc', str(source)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / 'dia.svg').exists()


# ---- batches ---------------------------------------------------------------

def test_internal_error_names_the_file_and_the_batch_goes_on(tmp_path, capsys,
                                                            monkeypatch):
    # a fault in layout, injected into the render of one file of the batch:
    # every SVG renders before the first write, so that file writes nothing
    def render(unit, metrics, cfg):
        if any(node.text == 'Huge' for node in unit.nodes):
            raise OverflowError('int too large to convert to float')
        return svg_render(unit, metrics, cfg)

    monkeypatch.setattr(cli, 'render', render)
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


def test_unreadable_encoding_exits_2_and_the_batch_goes_on(tmp_path, capsys):
    latin = tmp_path / 'latin.dxy'
    latin.write_bytes(b'\\bfig\\place(0,0)[\xe9]\\efig\n')
    good = write(tmp_path, 'good.dxy', SQUARE)
    assert main([str(latin), str(good)]) == 2
    assert capsys.readouterr().err.startswith('%s: error: ' % latin)
    assert (tmp_path / 'good.svg').exists()


def test_inputs_writing_one_path_fail_before_any_write(tmp_path, capsys):
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
    assert not out.exists()


def test_numbered_outputs_collide_with_a_dotted_stem(tmp_path, capsys):
    two = write(tmp_path, 'x.dxy', SQUARE + SQUARE)    # x.1.svg, x.2.svg
    dotted = write(tmp_path, 'x.1.dxy', SQUARE)        # x.1.svg
    assert main(['--format', 'svg', str(two), str(dotted)]) == 2
    assert 'OutputCollision' in capsys.readouterr().err
    assert not (tmp_path / 'x.2.svg').exists()
    # with one figure, x.dxy writes x.svg and nothing clashes
    write(tmp_path, 'x.dxy', SQUARE)
    assert main(['--format', 'svg', str(two), str(dotted)]) == 0
    assert sorted(p.name for p in tmp_path.glob('*.svg')) == [
        'x.1.svg', 'x.svg']


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
        '%s\n' % (source, source))
    assert source.read_text(encoding='utf-8') == SQUARE
    assert sorted(p.name for p in tmp_path.iterdir()) == ['self.svg']


def test_an_input_is_never_overwritten_by_an_earlier_one(tmp_path, capsys):
    source = write(tmp_path, 'a.dxy', SQUARE)
    scene = write(tmp_path, 'a.scene.json', '{}\n')
    assert main([str(source), str(scene)]) == 2
    assert 'would overwrite the input %s\n' % scene in capsys.readouterr().err
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


def test_control_character_is_a_located_parse_error(tmp_path, capsys):
    source = write(tmp_path, 'ctl.dxy', '\\bfig\n\\place(0,0)[a\x01b]\\efig\n')
    assert main([str(source)]) == 1
    assert capsys.readouterr().err == (
        '%s:2:14: error: ParseError: control character U+0001 is not '
        'allowed in source text\n' % source)
    assert not (tmp_path / 'ctl.svg').exists()


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
    source = write(tmp_path, 'a.dxy', SQUARE)
    (tmp_path / 'a.svg').mkdir()
    assert main([str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith('%s: error: ' % (tmp_path / 'a.svg'))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        'a.dxy', 'a.scene.json', 'a.svg']
