"""diagramc: a batch compiler for a commutative diagram language.

The pipeline is parse -> lower -> layout -> emit.  Most programs only
need :func:`compile_source` plus the two emitters; the intermediate
stages are importable for tools that inspect scenes directly.
"""

from .arrows import parse_arrow_spec, resolve_compass
from .errors import DiagnosticError, SourceLoc
from .layout import resolve_scene
from .lowering import Lowerer
from .metrics import MetricsTable
from .model import (ArrowInstance, ArrowStyle, InlineFragment, LogicalPoint,
                    NodeInstance, RenderConfig, Scene)
from .parser import Statement, parse_document
from .scenefile import dump_scene, scene_to_dict
from .svg import render

__version__ = '0.1.0'

__all__ = [
    'ArrowInstance', 'ArrowStyle', 'DiagnosticError', 'InlineFragment',
    'LogicalPoint', 'Lowerer', 'MetricsTable', 'NodeInstance',
    'RenderConfig', 'Scene', 'SourceLoc', 'Statement',
    'compile_source', 'dump_scene', 'parse_arrow_spec', 'parse_document',
    'render', 'resolve_compass', 'resolve_scene', 'scene_to_dict',
]


def compile_source(text: str, filename: str = '<input>',
                   metrics: MetricsTable | None = None,
                   config: RenderConfig | None = None) -> list[Scene]:
    """Parse and lower source text to its list of scene units."""
    return Lowerer(metrics, config).lower_document(
        parse_document(text, filename))
