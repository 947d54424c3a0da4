"""The acceptance contract: every fixed bound a verdict compares against.

``ROWS`` maps a row id to the measured quantity, its comparison, its bound
and what the bound scales with: ``"1"`` for an absolute bound, ``"dx"`` or
``"E0"`` for one in grid cells or initial energies, or the name of the run
parameter the bound multiplies.  The ids of the rows the CLI checks are the
names its manifests record.  ``judge`` compares a value against a row;
``RunManifest.check`` and the acceptance suite judge through it alone, so
each bound and each comparison is written here once.

The package constants the solvers themselves use (``ENERGY_TOL_REL``,
``COMPAT_TOL``, ``DATA_FLOOR``) stay where they are and are referenced here.
Neither ``paikit`` nor any solver module imports this one.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import NamedTuple

from .initial_data import COMPAT_TOL
from .inversion import DATA_FLOOR
from .wave_forward import ENERGY_TOL_REL


class Row(NamedTuple):
    quantity: str
    op: str               # "<=", ">=", ">", "==" or "finite"
    bound: float | None   # None for "finite"
    scale: str            # what the bound is multiplied by


# grouped by acceptance verdict; the last row is a check of the CLI alone
ROWS = MappingProxyType({
    # 01 solver convergence
    "solver_order": Row("Dirichlet convergence order, 64/128/256", ">=", 1.9, "1"),
    "budget_01": Row("wall time (s)", "<=", 120.0, "1"),
    # 02 energy decay
    "energy_nonincreasing": Row("largest energy rise over one step", "<=",
                                ENERGY_TOL_REL, "E0"),
    "dissipation_identity": Row("energy/dissipation ledger defect", "<=", 0.05, "E0"),
    # 03 Dirichlet energy conservation
    "dirichlet_drift": Row("relative drift of a conserved energy", "<=", 1e-3, "1"),
    # 04 observability
    "observability_3d_ratio": Row("largest certified 3-d observability ratio", "<=",
                                  1.1, "1"),
    "observability_ratio_bound": Row("largest observability ratio", "<=", 1.0,
                                     "ratio_bound"),
    "budget_04": Row("3-d ensemble wall time (s)", "<=", 600.0, "1"),
    # 05 HUM control
    "final_energy": Row("HUM final energy, relative", "<=", 1.0, "tol"),
    "hum_iterations": Row("CG-HUM iterations", "<=", 1.0, "max_iter"),
    "zero_control_is_zero": Row("largest control entry for zero data", "==", 0.0, "1"),
    "gramian_symmetry": Row("Gramian symmetry defect", "<=", 1e-8, "1"),
    # 06 representation identity
    "representation_residual": Row("largest representation residual, relative", "<=",
                                   5e-2, "1"),
    "representation_refinement": Row("largest representation residual at 64^2", "<=",
                                     1.0, "32^2 residual"),
    # 07 transposition fidelity
    "transposition_defect": Row("transposition defect, relative", "<=", 2e-2, "1"),
    # 08 gradient correctness
    "gradient_fd": Row("adjoint gradient against central FD, relative", "<=", 1e-3, "1"),
    "gradient_stationarity": Row("gradient at the truth over gradient at the guess",
                                 "<=", 1e-6, "1"),
    # 09a and 09b reconstruction
    "hausdorff": Row("Hausdorff distance to the truth", "<=", 2.0, "dx"),
    "radius_error_1mode": Row("09a radius error, relative", "<=", 0.05, "1"),
    "radius_error_3mode": Row("09b radius error, relative", "<=", 0.10, "1"),
    "mode3_error": Row("09b mode-3 coefficient error, relative", "<=", 0.10, "1"),
    "inactive_modes": Row("09b largest inactive mode coefficient", "<=", 5e-3, "1"),
    "budget_09": Row("wall time (s)", "<=", 1800.0, "1"),
    # 10 stability scan
    "scan_pairs": Row("stability scan rows", "==", 25.0, "1"),
    "identifiability_floor": Row("smallest ||p1 - p2||_H1 of a scan pair", ">",
                                 DATA_FLOOR, "1"),
    "d_emp_positive": Row("empirical stability exponent d_emp", ">", 0.0, "1"),
    "constants_finite": Row("largest |C_emp| of the scan", "finite", None, "1"),
    # the initial data's boundary compatibility, checked by `paikit forward`
    "compatibility_boundary": Row("boundary compatibility residual, relative", "<=",
                                  COMPAT_TOL, "1"),
})

_OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt, "==": operator.eq,
        "finite": lambda value, bound: math.isfinite(value)}


def margin(op: str, value, bound) -> float | None:
    """How near ``value`` is to ``bound``: 1 at the bound, above 1 past it.

    value / bound for an upper bound and bound / value for a lower one; None
    for ``==`` and finiteness.  Where the divisor is not positive the ratio
    says nothing, and the margin is 0 for a value that passes, inf for one
    that fails.
    """
    if op in ("==", "finite"):
        return None
    num, den = (value, bound) if op == "<=" else (bound, value)
    if den > 0:
        return float(num / den)
    return 0.0 if _OPS[op](value, bound) else math.inf


def judge(row_id: str, value, scale=1.0) -> tuple:
    """Judge ``value`` against row ``row_id``, its bound times ``scale``.

    Returns ``(passed, bound, margin)`` with the scaled bound.
    """
    row = ROWS[row_id]
    if row.scale == "1" and scale != 1.0:
        raise ValueError(f"{row_id}: a fixed bound takes no scale, got {scale!r}")
    bound = None if row.bound is None else row.bound * scale
    return bool(_OPS[row.op](value, bound)), bound, margin(row.op, value, bound)
