"""numpy, imported on first use.

The symbolic layers (`laurent`, `groebner`, `pauli`, `qca`) and the
integer Pauli arithmetic of `weyl` never use numpy, so a process that
runs only them should not pay for importing it. Each numeric module binds ``np = LazyNumpy(globals())``. The first
attribute read imports numpy and rebinds that module's ``np`` global to
the real module, so later reads cost nothing extra.
"""

from __future__ import annotations


class LazyNumpy:
    """Stand-in for numpy in one module's globals until first use."""

    __slots__ = ("_owner",)

    def __init__(self, owner: dict):
        self._owner = owner

    def __getattr__(self, name: str):
        import numpy

        self._owner["np"] = numpy
        return getattr(numpy, name)
