"""Diagnostic errors with stable codes and source positions."""
from __future__ import annotations

from .model import Record

# Stable diagnostic codes, asserted by tests and printed by the CLI.
UNBALANCED_GROUP = "UnbalancedGroup"
UNKNOWN_CONSTRUCTOR = "UnknownConstructor"
ARITY_ERROR = "ArityError"
PARSE_ERROR = "ParseError"
MASK_OUT_OF_RANGE = "MaskOutOfRange"
UNKNOWN_NODE = "UnknownNode"
DUPLICATE_NODE = "DuplicateNode"
DEGENERATE_ARROW = "DegenerateArrow"
DEGENERATE_LOOP = "DegenerateLoop"
UNSUPPORTED_ARROW_SPEC = "UnsupportedArrowSpec"
BAD_DIRECTION = "BadDirection"
NODES_OVERLAP = "NodesOverlap"
MISPLACED_CONSTRUCTOR = "MisplacedConstructor"
UNBALANCED_FIGURE = "UnbalancedFigure"
# Reported by the CLI rather than raised.
INTERNAL_ERROR = "InternalError"
OUTPUT_COLLISION = "OutputCollision"


class SourceLoc(Record):
    __slots__ = _values = ('file', 'line', 'col')

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class DiagnosticError(Exception):
    """Compilation failure carrying a stable code and, when known, a source position."""

    def __init__(self, code: str, message: str, loc: SourceLoc | None = None,
                 constructor: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.loc = loc
        self.constructor = constructor

    def format(self, file: str = "<unknown>") -> str:
        """The diagnostic line; ``file`` stands in for a missing location."""
        where = str(self.loc) if self.loc else file
        ctor = f" [in \\{self.constructor}]" if self.constructor else ""
        return f"{where}: error: {self.code}: {self.message}{ctor}"

    def with_context(self, loc: SourceLoc | None, constructor: str | None) -> "DiagnosticError":
        """Attach position/constructor if missing; errors raised deep in lowering lack them."""
        if self.loc is None and loc is not None:
            self.loc = loc
        if self.constructor is None and constructor is not None:
            self.constructor = constructor
        return self
