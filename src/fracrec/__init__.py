"""Desk-scale recovery of a potential in the fractional Schrodinger equation
from a single exterior measurement, with the regularized unique-continuation
solvers and stability experiments that surround it.

Each layer's `__all__` is published here; the experiments' on first use.

The solves are small dense ones, so OpenBLAS runs one thread unless the
environment sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS; this must happen
before numpy loads.  One thread also keeps reports byte-identical across
machines with different core counts."""

import os as _os

if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .grid import *  # each wildcard is bounded by its module's __all__
from .forward import *
from .ucp import *
from .reconstruct import *

__version__ = "0.1.0"


def __getattr__(name):
    """The names of `experiments.__all__`, which load that module on first use (PEP 562)."""
    if name in ("InstabilitySeries", "StabilitySweep", "dirichlet_eigenfunctions",
                "instability_series", "make_instability_geometry", "spectrum_report",
                "stability_sweep"):
        from . import experiments
        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
