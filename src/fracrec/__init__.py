"""Desk-scale recovery of a potential in the fractional Schrodinger equation
from a single exterior measurement, with the regularized unique-continuation
solvers and stability experiments that surround it.

The solves are small dense ones, so OpenBLAS runs one thread unless the
environment sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS; this must happen
before numpy loads.  One thread also keeps reports byte-identical across
machines with different core counts."""

import os

if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .grid import (
    FractionalOrder,
    GridFunction,
    IndexSets,
    SimulationBox,
    SobolevMachinery,
    build_box,
    build_index_sets,
    build_sobolev,
    hs_inner,
    hs_norm,
    l2_norm,
    smooth_bump,
)
from .forward import (
    EigenvalueConditionError,
    Potential,
    solve_diagnostics,
    solve_dirichlet,
)
from .ucp import (
    MinimalL2Result,
    OptimizerNonConvergence,
    RegularizerConfig,
    UcpOperator,
    assemble_ucp,
    default_alpha_schedule,
    minimal_l2_reconstruct,
    solve_schedule,
    tikhonov_reconstruct,
    ucp_svd,
)
from .reconstruct import (
    MeasurementRecord,
    PipelineError,
    ReconstructionReport,
    full_pipeline,
    measurement_to_h,
    quotient_q,
    recover_interior,
    synthetic_measurement,
)


def __getattr__(name):
    """The experiment names, which load `fracrec.experiments` on first use (PEP 562)."""
    if name in ("InstabilitySeries", "StabilitySweep", "dirichlet_eigenfunctions",
                "instability_series", "make_instability_geometry", "spectrum_report",
                "stability_sweep"):
        from . import experiments
        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
