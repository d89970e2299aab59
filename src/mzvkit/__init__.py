"""Exact shuffle/quasi-shuffle algebra for multiple zeta values.

Subpackages by layer: :mod:`mzvkit.core` (exact kernel), :mod:`mzvkit.words`
/ :mod:`mzvkit.compositions` / :mod:`mzvkit.free_rba` (the three isomorphic
algebra models), :mod:`mzvkit.regularization` (T-polynomial regularized
values and relation generators), :mod:`mzvkit.numerics` (high-precision
evaluation), :mod:`mzvkit.expressions` and :mod:`mzvkit.cli` (expression
language and command line).
"""

from .core import DomainError, LinComb, MergeUndefinedError, TPoly, bilinear, matrix_rank, mixable_shuffle
from .compositions import BiComposition, Composition
from .words import Word

__all__ = [
    "BiComposition",
    "Composition",
    "DomainError",
    "LinComb",
    "MergeUndefinedError",
    "TPoly",
    "Word",
    "bilinear",
    "matrix_rank",
    "mixable_shuffle",
]

__version__ = "0.1.0"
