"""Vector clocks with pruning, plus the tooling to distrust them properly.

The core API is nine pure operations over immutable clock values. Around it:
a wire codec with a unary-numeral cost model, a graph-reachability oracle
that cross-checks clock comparisons against real causality, and a
deterministic replica simulator with a scenario script format.
"""

from . import core
from .core import *  # noqa: F403 -- the names in core.__all__

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel backend in use: always 'pure'."""
    return "pure"


__all__ = [*core.__all__, "backend_name", "__version__"]
