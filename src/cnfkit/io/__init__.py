"""Parsers, writers, the external solver runner, and stats emission."""

# each submodule lists its public names in its own __all__
from .dimacs import *
from .bcformat import *
from .solver import *
from .stats import *

__all__ = dimacs.__all__ + bcformat.__all__ + solver.__all__ + stats.__all__
