"""The kernel module the library calls through.

``core`` and ``oracle`` look each kernel up as an attribute of ``kernels``
when they run, so patching one attribute of that module reaches every caller.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel backend in use: always 'pure'."""
    return "pure"
