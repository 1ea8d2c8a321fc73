"""Structure the compiler relies on: constructor tables and module layering."""

import ast
import copy
import gc
import inspect
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
import types
from collections.abc import Iterator
from pathlib import Path

import pytest

import diagramc
from diagramc import (arrows, cli, errors, layout, lowering, metrics, model,
                      parser, scenefile, svg)
from diagramc.model import RenderConfig

PACKAGE = Path(diagramc.__file__).parent

# pipeline stage of each module; parse -> lower -> layout -> emit, with
# the shared data types first and the drivers last
STAGE = {
    'errors': 0, 'model': 0, 'metrics': 0,
    'parser': 1,
    'arrows': 2, 'lowering': 2,
    'layout': 3,
    'scenefile': 4, 'svg': 4,
    'cli': 5, '__init__': 5, '__main__': 5,
}


def package_imports(name):
    """Modules of the package that module ``name`` imports."""
    tree = ast.parse((PACKAGE / (name + '.py')).read_text(encoding='utf-8'))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith('diagramc') for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1 or not node.module.startswith('diagramc')
            if node.level == 1 and node.module:
                found.add(node.module)
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_stage():
    assert {p.stem for p in PACKAGE.glob('*.py')} == set(STAGE)


@pytest.mark.parametrize('name', sorted(STAGE))
def test_no_module_imports_a_later_stage(name):
    for imported in package_imports(name):
        assert STAGE[imported] <= STAGE[name], (name, imported)


def test_no_module_reads_the_environment():
    # every output byte is a function of the source and the flags alone
    for name in STAGE:
        tree = ast.parse((PACKAGE / (name + '.py')).read_text(encoding='utf-8'))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        assert not names & {'environ', 'environb', 'getenv', 'getenvb'}, name


def test_only_the_lowerer_constructor_sets_its_attributes():
    # a document's state lives in lower_document's frame, not on the
    # Lowerer, so that nothing of one document outlives its call
    tree = ast.parse((PACKAGE / 'lowering.py').read_text(encoding='utf-8'))
    cls, = [node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == 'Lowerer']
    assigned = []
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name != '__init__':
            me = method.args.args[0].arg
            assigned += [(method.name, node.attr) for node in ast.walk(method)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, (ast.Store, ast.Del))
                         and isinstance(node.value, ast.Name)
                         and node.value.id == me]
    assert assigned == []


@pytest.mark.parametrize('name', ['layout', 'scenefile', 'svg'])
def test_stages_after_lowering_see_only_scenes(name):
    assert not package_imports(name) & {'parser', 'lowering'}


def test_memo_is_the_only_class_that_fills_missing_keys():
    # every per-unit cache is a model.Memo, not a dict of its own making
    found = set()
    for name in STAGE:
        tree = ast.parse((PACKAGE / (name + '.py')).read_text(encoding='utf-8'))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef)
                    and item.name == '__missing__' for item in node.body):
                found.add((name, node.name))
    assert found == {('model', 'Memo')}


def record_classes():
    """Every ``model.Record`` subclass the package defines, its filler's
    twins left out."""
    found, todo = [], [model.Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found += subclasses
        todo += subclasses
    return sorted((cls for cls in found
                   if cls.__module__.startswith('diagramc.')
                   and cls._twin is not cls),
                  key=lambda cls: (cls.__module__, cls.__qualname__))


# the records that check or convert their arguments before filling
CHECKED = {'RenderConfig', 'MetricsTable'}


@pytest.mark.parametrize('cls', record_classes(),
                         ids=lambda cls: cls.__qualname__)
def test_every_record_fills_its_slots_through_one_filler(cls):
    # one way to build a record: its __init__ is its _fill(<its slots>),
    # or, for a record that checks its arguments, ends in one call to it
    params = inspect.signature(cls._fill).parameters.values()
    assert [p.name for p in params] == ['self', *cls.__slots__]
    assert {p.kind for p in params} == {
        inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = cls.__dict__.get('_defaults', {})
    assert set(defaults) <= set(cls.__slots__)
    assert {p.name: p.default for p in params
            if p.default is not p.empty} == defaults
    if cls.__qualname__ not in CHECKED:
        assert cls.__init__ is cls._fill
        assert cls.__init__.__name__ == '__init__'
        assert cls.__init__.__qualname__ == cls.__qualname__ + '.__init__'
        return
    assert '__init__' in cls.__dict__ and cls.__init__ is not cls._fill
    init, = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__))).body
    calls = [node for node in ast.walk(init) if isinstance(node, ast.Call)
             and getattr(node.func, 'attr', None) == '_fill']
    last = init.body[-1]
    assert len(calls) == 1
    assert isinstance(last, ast.Expr) and last.value is calls[0]


@pytest.mark.parametrize('cls', record_classes(),
                         ids=lambda cls: cls.__qualname__)
def test_every_record_has_one_twin_of_its_own_layout(cls):
    # the filler's twin stores as object does, and adds no slot and no
    # __dict__, so a record can take its class and give it back
    twin, = cls.__subclasses__()
    assert cls._twin is twin._twin is twin
    assert twin.__dict__['__slots__'] == ()
    assert twin.__dict__['__setattr__'] is object.__setattr__
    assert twin.__dict__['__delattr__'] is object.__delattr__
    assert (twin.__basicsize__, twin.__dictoffset__, twin.__weakrefoffset__) \
        == (cls.__basicsize__, 0, 0)


def test_a_wrong_call_names_the_record():
    with pytest.raises(TypeError, match=r"^LogicalPoint\.__init__\(\) "
                       r"missing 1 required positional argument: 'y'$"):
        model.LogicalPoint(1)
    with pytest.raises(TypeError, match=r"^Statement\.__init__\(\) got an "
                       r"unexpected keyword argument 'kind'$"):
        parser.Statement('square', kind='square')


def test_a_statement_lists_its_keyword_then_its_defaulted_fields():
    params = inspect.signature(parser.Statement).parameters.values()
    defaulted = [p.name for p in params if p.default is not p.empty]
    assert [p.name for p in params] == ['constructor', *defaulted]
    assert defaulted == list(parser.Statement.__slots__[1:])
    assert len(defaulted) == 20
    assert parser.Statement('square', spans=(1, 2)) == parser.Statement(
        'square', model.ORIGIN, '', (), (1, 2))


def test_only_the_record_base_names_the_slot_setters():
    for name in set(STAGE) - {'model'}:
        tree = ast.parse((PACKAGE / (name + '.py')).read_text(encoding='utf-8'))
        for node in ast.walk(tree):
            named = (node.id if isinstance(node, ast.Name) else
                     node.attr if isinstance(node, ast.Attribute) else
                     node.value if isinstance(node, ast.Constant) else None)
            assert named not in ('_setters', '__set__'), (name, node.lineno)


def test_the_package_stays_within_its_line_budget():
    # the same bytes from less code: the budget only ever shrinks
    lines = sum(path.read_text(encoding='utf-8').count('\n')
                for path in PACKAGE.glob('*.py'))
    assert lines <= 3000, lines


# ---- the constructor tables -----------------------------------------------

def plans():
    """Keyword -> argument plan, for every shape keyword."""
    return {keyword: how for keyword, how in parser._KEYWORDS.items()
            if isinstance(how, parser._Plan)}


@pytest.mark.parametrize('keyword', sorted(lowering._WALKS))
def test_walk_matches_its_plan(keyword):
    walk = lowering._WALKS[keyword]
    plan = plans()[keyword]
    assert len(walk.nodes) == plan.n_nodes
    assert len(set(walk.nodes)) == len(walk.nodes)
    edges = [row for row in walk.rows if len(row) == 3]
    borders = [row for row in walk.rows if len(row) == 4]
    assert len(edges) + len(borders) == len(walk.rows)
    # every slot draws exactly one edge
    assert sorted(slot for slot, _, _ in edges) == \
        list(range(len(plan.placements)))
    for _, source, target in edges:
        assert source != target
        assert {source, target} <= set(range(plan.n_nodes))
    # grid mask bits 0..k-1, each exactly once; only grids have a border
    assert sorted(bit for bit, _, _, _ in borders) == list(range(len(borders)))
    assert walk.mask_bits == len(borders)
    assert bool(borders) == bool(plan.border)
    for _, node, ux, uy in borders:
        assert node in range(plan.n_nodes)
        assert abs(ux) + abs(uy) == 1


# a statement of each keyword read by a reader of its own; the rest are
# a shape's payload alone or the bare keyword
READER_SOURCES = {
    'vect': '\\vect(0,0)/>/<500,0>',
    'pullback': '\\pullback[A`B`C`D;f`g`h`k][E;p`q`r]',
    'cube': '\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][x`y`z`w]',
    'place': '\\place(0,0)[X]',
    'node': '\\node r(0,0)[R]',
    'arrow': '\\arrow[p`q;f]',
    'Loop': '\\Loop(0,0){A}(ul,ur)',
    'iloop': '\\iloop{x}(d,r)',
    'twoar': '\\twoar(1,0)',
}


def source_of(keyword):
    """A one-statement source written with ``keyword``."""
    how = parser._KEYWORDS[keyword]
    if isinstance(how, parser._Plan):
        return '\\%s[%s;%s]' % (keyword, '`'.join('A' * how.n_nodes),
                                 '`'.join('f' * len(how.placements)))
    return READER_SOURCES.get(keyword, '\\' + keyword)


def with_parts(statements):
    """The statements and, after each, its nested ones."""
    for stmt in statements:
        yield stmt
        yield from with_parts(part for part in (stmt.inner, stmt.trident,
                                                stmt.connector)
                              if part is not None)


def test_each_constructor_is_named_by_its_keyword_alone():
    gone = ['MORPHISM', 'VECT', 'SQUARE', 'AUTO_SQUARE', 'DIAMOND',
            'TRIANGLE', 'TRIANGLE_PAIR', 'PULLBACK', 'TRIDENT', 'H_SQUARES',
            'H_AUTO_SQUARES', 'V_SQUARES', 'V_AUTO_SQUARES', 'CUBE',
            'CONNECTOR', 'GRID_3X3', 'GRID_3X2', 'PLACE', 'NODE',
            'NAMED_ARROW', 'LOOP', 'INLINE_LOOP', 'INLINE_ARROW', 'BEGIN_FIG',
            'END_FIG', 'surface_keyword', '_KEYWORD_OF', 'print_statement',
            'print_document']
    assert [name for name in gone if hasattr(parser, name)] == []
    assert not hasattr(diagramc, 'print_document')
    assert not hasattr(lowering, 'lower_document')
    assert not hasattr(diagramc, 'lower_document')
    assert 'kind' not in parser.Statement.__slots__


def test_every_statement_and_its_parts_carry_a_keyword():
    statements = []
    for keyword in parser._KEYWORDS:
        stmt, = parser.parse_document(source_of(keyword))
        assert stmt.constructor == keyword
        statements.append(stmt)
    for path in sorted((Path(__file__).parent / 'corpus').glob('*.dxy')):
        statements += parser.parse_document(path.read_text(encoding='utf-8'))
    # nested parts included, and every keyword among them
    assert {stmt.constructor for stmt in with_parts(statements)} == \
        set(parser._KEYWORDS)


def test_only_the_pasted_squares_have_no_walk_of_their_own():
    # they paste the square walk with a slot map instead
    assert set(plans()) - set(lowering._WALKS) == {
        'Square', 'hsquares', 'hSquares', 'vsquares', 'vSquares'}


def test_every_figure_keyword_lowers_through_one_table():
    # a shape is drawn by its walk alone; the handlers hold the rest
    walks, handlers = set(lowering._WALKS), set(lowering.Lowerer._HANDLERS)
    assert not walks & handlers
    assert not {'bfig', 'efig'} & (walks | handlers)
    assert walks | handlers <= set(parser._KEYWORDS)


def test_every_keyword_lowers_by_exactly_one_route():
    # bfig/efig bound a figure, a shape draws its walk, a handler draws
    # the other figure constructors, and the rest is running text; the
    # nodes \arrow names are defined earlier in the same document
    walks, handlers = set(lowering._WALKS), set(lowering.Lowerer._HANDLERS)
    prelude = '\\bfig\\node p(0,0)[P]\\node q(500,0)[Q]\\efig'
    for keyword in set(parser._KEYWORDS) - {'bfig', 'efig'}:
        source = source_of(keyword)
        figure = '\\bfig%s\\efig' % source
        right, wrong = ((figure, source) if keyword in walks | handlers
                        else (source, figure))
        lower = lowering.Lowerer().lower_document
        assert len(lower(parser.parse_document(prelude + right))) == 2
        with pytest.raises(errors.DiagnosticError) as info:
            lower(parser.parse_document(prelude + wrong))
        assert info.value.code == errors.MISPLACED_CONSTRUCTOR, keyword
        assert info.value.constructor == keyword


def test_lowering_shapes_compares_no_records(monkeypatch):
    # Record.__eq__ runs in Python: the per-arrow path tests the spec's
    # shaft and the end coordinates instead
    statements = parser.parse_document(
        '\\bfig\\square/>`-->`->>`=>/[A`B`C`D;f`g`h`k]'
        '\\square(500,0)[B`E`D`F;p`q`r`s]'
        + ''.join('\\%striangle(%d,1000)[A`B`C;f`g`h]' % (kind, 1000 * n)
                  for n, kind in enumerate('pqdbAVCD'))
        + '\\iiixiii(0,3000){4095}[A`B`C`D`E`F`G`H`I;a`b`c`d`e`f`g`h`i`j`k`l]'
        '\\iiixii(0,5000){15}[A`B`C`D`E`F;a`b`c`d`e`f`g]\\efig')
    calls = []
    equal = model.Record.__eq__
    monkeypatch.setattr(model.Record, '__eq__', lambda self, other: (
        calls.append(type(self).__name__) or equal(self, other)))
    scene, = lowering.Lowerer().lower_document(statements)
    monkeypatch.undo()
    assert len(scene.arrows) == 4 + 4 + 8 * 3 + 12 + 12 + 7 + 4
    assert calls == []


# ---- start-up ---------------------------------------------------------------

def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # -S skips site, which on some installs imports typing by itself
    code = ('import diagramc.cli, sys; print(" ".join(sorted(sys.modules.keys()'
            ' & {"dataclasses", "inspect", "typing", "json"})))')
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, '-S', '-c', code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


# ---- settings ---------------------------------------------------------------

def test_render_config_holds_only_what_the_cli_sets(tmp_path, monkeypatch):
    # a field no program caller sets is an option only its own tests reach
    calls = []

    def recording(**settings):
        calls.append(sorted(settings))
        return RenderConfig(**settings)

    monkeypatch.setattr(cli, 'RenderConfig', recording)
    source = tmp_path / 'a.dxy'
    source.write_text('\\to\n', encoding='utf-8')
    assert cli.main([str(source)]) == 0
    assert calls == [sorted(RenderConfig.__slots__)]


# ---- the driver ---------------------------------------------------------------

def test_the_cli_parses_each_input_once_in_input_order(tmp_path, monkeypatch):
    # inputs stream through one loop: nothing is lowered ahead of its turn,
    # not even inputs whose outputs might clash
    parsed = []

    def recording(text, filename):
        parsed.append(filename)
        return parser.parse_document(text, filename)

    monkeypatch.setattr(cli, 'parse_document', recording)
    inputs = []
    for name in ('good.dxy', 'x.dxy', 'x.1.dxy'):
        inputs.append(str(tmp_path / name))
        (tmp_path / name).write_text('\\to\n', encoding='utf-8')
    assert cli.main(inputs) == 0
    assert parsed == inputs


# ---- the benchmark's entry points ------------------------------------------

# (owner, name) of every callable perfbench/tracer.py wraps to time a
# layer; a name that moves or goes makes that layer's figures read 0
TRACED = [
    ('diagramc', 'parse_document'), ('cli', 'parse_document'),
    ('parser', 'parse_document'), ('Lowerer', 'lower_document'),
    ('lowering', 'parse_arrow_spec'), ('MetricsTable', 'text_advance'),
    ('MetricsTable', 'morphism_width'), ('layout', 'node_box'),
    ('svg', 'resolve_scene'), ('svg', 'render_resolved'),
    ('diagramc', 'dump_scene'), ('cli', 'dump_scene'),
    ('scenefile', 'dump_scene'), ('cli', 'main'),
]


def owner(name):
    return {'diagramc': diagramc, 'cli': cli, 'parser': parser,
            'lowering': lowering, 'layout': layout, 'svg': svg,
            'scenefile': scenefile, 'Lowerer': lowering.Lowerer,
            'MetricsTable': diagramc.MetricsTable}[name]


@pytest.mark.parametrize('where, name', TRACED)
def test_every_traced_entry_point_is_where_the_tracer_looks(where, name):
    assert callable(owner(where).__dict__.get(name)), (where, name)


def test_the_cli_calls_through_each_traced_entry_point(tmp_path,
                                                       monkeypatch):
    # memos may save calls, but each layer's work still passes through the
    # attribute the tracer replaces
    calls = {}
    for where, name in TRACED:
        original = owner(where).__dict__[name]

        def counting(*args, _key=(where, name), _fn=original, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner(where), name, counting)
    source = tmp_path / 'a.dxy'
    source.write_text('\\bfig\\Square[A`B`C`D;f`g`h`k]\\efig\n',
                      encoding='utf-8')
    assert cli.main([str(source)]) == 0
    # the CLI reaches these names; the package-level aliases serve
    # library callers and are checked above
    assert {key for key in calls} == set(TRACED) - {
        ('diagramc', 'parse_document'), ('parser', 'parse_document'),
        ('diagramc', 'dump_scene'), ('scenefile', 'dump_scene')}


def test_the_scene_is_read_back_with_json_not_a_helper():
    # scene_to_dict was json.loads(dump_scene(scene)), and only tests
    # called it
    assert not hasattr(scenefile, 'scene_to_dict')
    assert not hasattr(diagramc, 'scene_to_dict')


def _nodes_of(function):
    return list(ast.walk(ast.parse(textwrap.dedent(inspect.getsource(
        function)))))


def test_each_job_is_done_in_one_place():
    # one CLI function per input; no accessor only tests called
    assert not hasattr(cli, '_lower_file')
    assert not hasattr(cli, '_compile_file')
    assert not hasattr(metrics.MetricsTable, 'token_advance')
    assert not hasattr(model.ArrowInstance, 'span')
    # an arrow's ends go through the one logical-to-point formula
    names = {node.id for node in _nodes_of(layout._resolve_segment)
             if isinstance(node, ast.Name)}
    assert 'to_physical' in names and 'UNIT_EM' not in names
    # str.replace already returns a text without the character unchanged
    assert not any(isinstance(node, (ast.In, ast.NotIn))
                   for node in _nodes_of(svg._escape))
    # the scanner has one group reader; only the statement route checks
    # a group flat
    assert not hasattr(parser._Scanner, '_general_group')
    assert not any(isinstance(node, ast.Name) and node.id == '_FLAT_GROUP_RE'
                   for node in _nodes_of(parser._Scanner))
    # layout and svg share one unit vector and one point offset
    svg_nodes = _nodes_of(svg)
    assert not {'_unit', '_at'} & {node.name for node in svg_nodes
                                   if isinstance(node, ast.FunctionDef)}
    assert any(isinstance(node, ast.ImportFrom) and node.module == 'layout'
               and {'_unit', '_at'} <= {alias.name for alias in node.names}
               for node in svg_nodes)
    assert not hasattr(layout, '_offset')
    # one writer per arrow fills each element's template itself
    assert not {'_line', '_path', '_rect', '_chevron', '_emit_shaft',
                '_emit_head', '_emit_tail', '_emit_mid'} & set(vars(svg))
    # each scene record is one fill, its points pasted into its template
    assert not hasattr(scenefile, '_POINT')
    for writer in (scenefile._node_text, scenefile._arrow_text,
                   scenefile._fragment_text):
        assert {node.left.id for node in _nodes_of(writer)
                if isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)} <= {
            '_NODE', '_ARROW', '_FRAGMENT', '_PART'}, writer

    def hypots(nodes):
        return sum(isinstance(node, ast.Attribute) and node.attr == 'hypot'
                   for node in nodes)
    assert hypots(_nodes_of(layout)) == hypots(_nodes_of(layout._unit)) == 1
    # matching_brace alone decides which '}' closes a '{'
    assert not any(isinstance(node, ast.Attribute) and node.attr == 'find'
                   for node in _nodes_of(parser.strip_group))
    # the CLI alone frees each unit, through svg's two traced stages
    assert not hasattr(cli, '_take') and not hasattr(cli, 'render')
    assert not any(isinstance(node, ast.Delete)
                   for node in _nodes_of(svg.render))
    # one table names each arrow and says which way it points
    assert hasattr(arrows, '_NAMES')
    assert not hasattr(arrows, '_FORWARD') and not hasattr(arrows, '_REVERSED')
    assert lowering._OMIT == arrows.parse_arrow_spec('')
    # one attribute per dashed shaft; one list of formats
    assert not hasattr(svg, '_dash')
    action, = [action for action in cli.build_arg_parser()._actions
               if action.dest == 'format']
    assert action.choices is cli._EXTENSIONS


# ---- peak memory ---------------------------------------------------------------

def big_figures(tmp_path, spec=lambda i: '>'):
    """An input of two figures of 2,000 arrows each; arrow ``i`` has the
    spec ``spec(i)``."""
    lines = []
    for _ in range(2):
        lines.append('\\bfig')
        lines += ['\\morphism(%d,%d)|a|/%s/<600,0>[A_{%d}`B_{%d};f_{%d}]'
                  % (i % 50 * 1500, i // 50 * 1000, spec(i), i, i, i)
                  for i in range(2000)]
        lines.append('\\efig')
    source = tmp_path / 'big.dxy'
    source.write_text('\n'.join(lines) + '\n', encoding='utf-8')
    return source


def test_the_cli_peak_stays_near_what_it_writes(tmp_path):
    # each output goes to disk a piece at a time as it is made, and a
    # unit's scene is let go before its SVG is made.  Measured on two
    # figures of 2,000 arrows: the peak was 1.33x the bytes written,
    # against 1.535x when each text was joined whole and then written a
    # slice at a time.  The bound is the first with 20% headroom.
    source = big_figures(tmp_path)
    out = tmp_path / 'out'
    tracemalloc.start()
    try:
        assert cli.main(['-o', str(out), str(source)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in out.iterdir())
    assert sorted(path.name for path in out.iterdir()) == [
        'big.1.scene.json', 'big.1.svg', 'big.2.scene.json', 'big.2.svg']
    assert peak <= 1.6 * written, peak / written


def test_each_emitter_streams_what_it_writes(tmp_path, monkeypatch):
    # what each emitter holds while it writes: its memos of texts or
    # numbers, its table of style texts and a bounded buffer, never its
    # whole text.  Measured at 0.54x the scene file and 0.32x the SVG;
    # 2.64x and 2.45x when each text was joined whole.  With every arrow
    # its own offset, the table holds a style text per arrow: 0.90x the
    # scene file (0.54x with no table) and 0.73x the SVG
    growth = []
    for owner, name in ((cli, 'dump_scene'), (svg, 'render_resolved')):
        def measured(*args, _real=getattr(owner, name)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = _real(*args)
            growth.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(owner, name, measured)
    names = ['big.1.scene.json', 'big.1.svg', 'big.2.scene.json',
             'big.2.svg']
    for kind, spec in (('shared', lambda i: '>'),
                       ('own', lambda i: '@{>}@<%dpt>' % i)):
        (tmp_path / kind).mkdir()
        source = big_figures(tmp_path / kind, spec)
        out = tmp_path / kind / 'out'
        growth.clear()
        tracemalloc.start()
        try:
            assert cli.main(['-o', str(out), str(source)]) == 0
        finally:
            tracemalloc.stop()
        written = [(out / name).stat().st_size for name in names]
        assert len(growth) == len(written)
        assert all(grew < size for grew, size in zip(growth, written)), [
            '%s %s %.2f' % (kind, name, grew / size)
            for name, grew, size in zip(names, growth, written)]


def test_each_output_is_handed_to_its_write_once(tmp_path, monkeypatch):
    # the CLI's write takes each document whole, as one iterator of its
    # pieces, never one call per piece
    handed = []
    for owner, name in ((cli, 'dump_scene'), (svg, 'render_resolved')):
        def emit(*args, _real=getattr(owner, name), _name=name):
            *rest, write = args
            calls = []
            handed.append((_name, calls))

            def recording(pieces):
                calls.append(pieces)
                return write(pieces)
            return _real(*rest, recording)

        monkeypatch.setattr(owner, name, emit)
    source = tmp_path / 'two.dxy'
    source.write_text('\\bfig\\square[A`B`C`D;f`g`h`k]\\efig\n' * 2,
                      encoding='utf-8')
    assert cli.main(['-o', str(tmp_path / 'out'), str(source)]) == 0
    assert [name for name, _ in handed] == ['dump_scene',
                                            'render_resolved'] * 2
    for name, calls in handed:
        assert len(calls) == 1, (name, len(calls))
        assert isinstance(calls[0], Iterator), (name, type(calls[0]))
        assert not isinstance(calls[0], str), name


def test_no_arrow_of_a_unit_is_alive_while_its_svg_is_made(tmp_path,
                                                          monkeypatch):
    # the CLI writes a unit's scene file first, if asked for, then lets
    # the unit go before the SVG text is made; gc.get_objects() lists the
    # records even while cli.main keeps the collector off
    real = svg.render_resolved
    alive = []

    def counting(resolved, *args):
        labels = {label.text for arrow in resolved.arrows
                  for label in arrow.labels}
        alive.append(sorted(
            obj.label for obj in gc.get_objects()
            if isinstance(obj, model.ArrowInstance) and obj.label in labels))
        return real(resolved, *args)

    monkeypatch.setattr(svg, 'render_resolved', counting)
    source = tmp_path / 'two.dxy'
    source.write_text(''.join(
        '\\bfig\\Square[A`B`C`D;f_%d`g_%d`h_%d`k_%d]\\efig\n' % (n, n, n, n)
        for n in (1, 2)), encoding='utf-8')
    for fmt in ('both', 'svg'):
        alive.clear()
        assert cli.main(['--format', fmt, '-o', str(tmp_path / fmt),
                         str(source)]) == 0
        assert alive == [[], []], fmt


def test_no_resolved_arrow_of_an_earlier_unit_is_alive_at_its_scene(
        tmp_path, monkeypatch):
    # what layout resolved for one unit is let go once its SVG is
    # written, before the next unit's scene file is made
    real = cli.dump_scene
    labels = {'%s_%d' % (name, n) for name in 'fghk' for n in (1, 2)}
    alive = []

    def counting(scene, *args):
        alive.append(sorted(
            label.text for obj in gc.get_objects()
            if isinstance(obj, layout.ResolvedArrow)
            for label in obj.labels if label.text in labels))
        return real(scene, *args)

    monkeypatch.setattr(cli, 'dump_scene', counting)
    source = tmp_path / 'two.dxy'
    source.write_text(''.join(
        '\\bfig\\Square[A`B`C`D;f_%d`g_%d`h_%d`k_%d]\\efig\n' % (n, n, n, n)
        for n in (1, 2)), encoding='utf-8')
    assert cli.main(['--format', 'both', '-o', str(tmp_path / 'out'),
                     str(source)]) == 0
    assert alive == [[], []]


def test_the_source_is_freed_before_the_first_write(tmp_path, monkeypatch):
    # the decoded text of an input is let go once it is parsed, not held
    # through the writes of its units
    freed = []

    class Source(str):
        def __del__(self):
            freed.append(self[:6])

    real_decode, real_dump = cli.decode_source, cli.dump_scene
    at_dump = []

    def dump(*args):
        at_dump.append(list(freed))
        return real_dump(*args)

    monkeypatch.setattr(cli, 'decode_source',
                        lambda data, name: Source(real_decode(data, name)))
    monkeypatch.setattr(cli, 'dump_scene', dump)
    source = tmp_path / 'two.dxy'
    source.write_text('\\bfig\\square[A`B`C`D;f`g`h`k]\\efig\n' * 2,
                      encoding='utf-8')
    assert cli.main(['-o', str(tmp_path / 'out'), str(source)]) == 0
    assert at_dump == [['\\bfig\\'], ['\\bfig\\']]


# ---- memo lifetime -----------------------------------------------------------

def module_state():
    """Size of every container and cache a module or class of the package
    holds."""
    sizes = {}
    for module in (diagramc, cli, layout, lowering, parser, scenefile, svg,
                   arrows, errors, metrics, model):
        for attr, value in vars(module).items():
            holders = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                holders += [(attr + '.' + k, v)
                            for k, v in vars(value).items()]
            for key, held in holders:
                if isinstance(held, (dict, list, set, bytearray)):
                    sizes[module.__name__, key] = len(held)
                elif hasattr(held, 'cache_info'):    # functools caches
                    sizes[module.__name__, key] = held.cache_info().currsize
    return sizes


def test_compiling_leaves_no_cache_behind(tmp_path):
    # every memo lives inside one lowering, resolve, render or dump: a
    # cache that outlived them would grow here, and warm passes would hit
    # what a fresh CLI run never has.  The last input holds texts, a spec
    # and coordinates no earlier test in this process has compiled.
    corpus = sorted((Path(__file__).parent / 'corpus').glob('*.dxy'))
    rng = random.Random()
    unseen = tmp_path / 'unseen.dxy'
    unseen.write_text(
        '\\bfig\\morphism(%d,%d)|a|/@{>}@<%d.%dpt>/<%d,%d>[N%x`M%x;L%x]'
        '\\efig\n' % tuple(rng.randrange(1, 10 ** 6) for _ in range(9)),
        encoding='utf-8')
    corpus.append(unseen)
    table = diagramc.MetricsTable.builtin()
    twin = copy.copy(table)   # equal fields, its own copy of the advances
    before = module_state()
    out = tmp_path / 'out'
    assert cli.main(['-o', str(out)] + [str(p) for p in corpus]) == 0
    for path in corpus:
        for unit in diagramc.compile_source(path.read_text(encoding='utf-8'),
                                            str(path), table):
            svg.render(unit, table)
            scenefile.dump_scene(unit)
    assert module_state() == before
    assert table == twin and table.advances is not twin.advances


# ---- reference cycles and the cyclic collector -------------------------------

def failing_inputs(directory):
    """One input per way a file fails."""
    sources = {
        'parse-error': b'\\bfig\\square[A`B`C`D;f`g`h`k\n',
        'not-utf8': b'\\bfig\\place(0,0)[\xe9]\\efig\n',
        'overlap': b'\\bfig\\morphism(0,0)<10,0>[XXXX`YYYY;f]\\efig\n',
        'internal': b'\\bfig\\morphism(0,0)<500,0>[Huge`B;f]\\efig\n',
    }
    for name, data in sources.items():
        (directory / (name + '.dxy')).write_bytes(data)
    return [directory / (name + '.dxy') for name in sources]


@pytest.fixture
def batch(tmp_path, monkeypatch):
    """The corpus and the failing inputs, with a fault injected into
    layout for the node 'Huge'."""
    def node_box(node, metrics, cfg):
        if node.text == 'Huge':
            raise OverflowError('int too large to convert to float')
        return original(node, metrics, cfg)

    original = layout.node_box
    monkeypatch.setattr(layout, 'node_box', node_box)
    corpus = sorted((Path(__file__).parent / 'corpus').glob('*.dxy'))
    return corpus + failing_inputs(tmp_path)


@pytest.fixture
def garbage():
    """Every object the cyclic collector finds unreachable, kept in a
    list, for what the test runs with the collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def from_the_package(obj):
    if isinstance(obj, types.FrameType):
        return obj.f_code.co_filename.startswith(str(PACKAGE))
    return type(obj).__module__.split('.')[0] == 'diagramc'


def test_compiling_makes_no_reference_cycles(batch, garbage):
    # the CLI runs its batch without the collector: this is why that is safe
    failures = []
    for path in batch:
        try:
            text = parser.decode_source(path.read_bytes(), str(path))
            for unit in diagramc.compile_source(text, str(path)):
                svg.render(unit)
                scenefile.dump_scene(unit)
        except (errors.DiagnosticError, OverflowError) as exc:
            failures.append((path.stem, getattr(exc, 'code', 'internal')))
    assert failures == [('parse-error', 'UnbalancedGroup'),
                        ('not-utf8', 'ParseError'), ('overlap', 'NodesOverlap'),
                        ('internal', 'internal')]
    assert gc.collect() == 0
    assert garbage == []


def test_the_cli_batch_leaves_no_cycle_of_its_own(batch, garbage, tmp_path):
    # argparse builds cycles of its own; nothing of the compiler's may be
    # among what the collector finds
    out = tmp_path / 'out'
    assert cli.main(['-o', str(out)] + [str(p) for p in batch]) == 1
    gc.collect()
    assert [obj for obj in garbage if from_the_package(obj)] == []


@pytest.mark.parametrize('enabled', [True, False])
def test_the_cli_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch,
                                                     enabled):
    good = tmp_path / 'good.dxy'
    good.write_text('\\to\n', encoding='utf-8')
    bad, = failing_inputs(tmp_path)[:1]
    runs = [([str(good)], 0), ([str(bad)], 1),
            ([str(tmp_path / 'missing.dxy')], 2),     # fails in the loop
            (['--em-pt', '0', str(good)], 2)]         # fails before it

    def interrupt(*args):
        raise KeyboardInterrupt

    restore = gc.enable if gc.isenabled() else gc.disable
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, status in runs:
            assert cli.main(argv) == status
            assert gc.isenabled() == enabled, argv
        monkeypatch.setattr(cli, '_compile_input', interrupt)
        with pytest.raises(KeyboardInterrupt):
            cli.main([str(good)])
        assert gc.isenabled() == enabled
    finally:
        restore()


def test_the_library_never_touches_the_collector(monkeypatch):
    touched = []
    for name in ('enable', 'disable', 'collect', 'freeze', 'set_threshold'):
        monkeypatch.setattr(gc, name, lambda *a, _name=name: touched.append(
            _name))
    for unit in diagramc.compile_source('\\bfig\\square[A`B`C`D;f`g`h`k]'
                                        '\\efig\\to'):
        svg.render(unit)
        scenefile.dump_scene(unit)
    assert touched == []
