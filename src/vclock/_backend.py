"""An alias of ``_kernels_py`` that vcbench/tracer.py patches; ROADMAP item 2 deletes it."""

from . import _kernels_py as kernels  # noqa: F401
