"""Finite hypergroup algebra.

Cayley-table hypergroupoids with bitmask set algebra, the fundamental
relations and their quotients, subhypergroup classification, and
symbolic reduced words in free products of strongly regular factors.
"""

__version__ = "0.1.0"

# The kernels are pure Python; benchmark results record this name.
BACKEND = "pure"

__all__ = ["BACKEND", "__version__"]
