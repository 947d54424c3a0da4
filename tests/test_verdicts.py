import math

import pytest

from paikit.verdicts import ROWS, judge

# literal copies of the contract: a changed bound, comparison or scale, and
# an added or dropped row, fails here
PINNED = {
    "solver_order": (">=", 1.9, "1"),
    "budget_01": ("<=", 120.0, "1"),
    "energy_nonincreasing": ("<=", 1e-8, "E0"),
    "dissipation_identity": ("<=", 0.05, "E0"),
    "dirichlet_drift": ("<=", 1e-3, "1"),
    "observability_3d_ratio": ("<=", 1.1, "1"),
    "observability_ratio_bound": ("<=", 1.0, "ratio_bound"),
    "budget_04": ("<=", 600.0, "1"),
    "final_energy": ("<=", 1.0, "tol"),
    "hum_iterations": ("<=", 1.0, "max_iter"),
    "zero_control_is_zero": ("==", 0.0, "1"),
    "gramian_symmetry": ("<=", 1e-8, "1"),
    "representation_residual": ("<=", 5e-2, "1"),
    "representation_refinement": ("<=", 1.0, "32^2 residual"),
    "transposition_defect": ("<=", 2e-2, "1"),
    "gradient_fd": ("<=", 1e-3, "1"),
    "gradient_stationarity": ("<=", 1e-6, "1"),
    "hausdorff": ("<=", 2.0, "dx"),
    "radius_error_1mode": ("<=", 0.05, "1"),
    "radius_error_3mode": ("<=", 0.10, "1"),
    "mode3_error": ("<=", 0.10, "1"),
    "inactive_modes": ("<=", 5e-3, "1"),
    "budget_09": ("<=", 1800.0, "1"),
    "scan_pairs": ("==", 25.0, "1"),
    "identifiability_floor": (">", 1e-10, "1"),
    "d_emp_positive": (">", 0.0, "1"),
    "constants_finite": ("finite", None, "1"),
    "compatibility_boundary": ("<=", 1e-8, "1"),
}


def test_rows_are_pinned():
    assert {k: (r.op, r.bound, r.scale) for k, r in ROWS.items()} == PINNED


def test_table_is_frozen():
    with pytest.raises(TypeError):
        ROWS["representation_residual"] = ROWS["gramian_symmetry"]


@pytest.mark.parametrize("row_id, value, scale, expected", [
    # upper bound: value / bound, scaled
    ("representation_residual", 0.049, 1.0, (True, 5e-2, 0.98)),
    ("hausdorff", 0.5, 0.25, (True, 0.5, 1.0)),
    ("hausdorff", 0.75, 0.25, (False, 0.5, 1.5)),
    # lower bound: bound / value
    ("solver_order", 3.8, 1.0, (True, 1.9, 0.5)),
    ("d_emp_positive", 2.0, 1.0, (True, 0.0, 0.0)),
    # a lower bound's value or an upper bound that is not positive
    ("d_emp_positive", 0.0, 1.0, (False, 0.0, math.inf)),
    ("d_emp_positive", -1.0, 1.0, (False, 0.0, math.inf)),
    ("observability_ratio_bound", 0.3, 0.0, (False, 0.0, math.inf)),
    # no margin for equality and finiteness
    ("zero_control_is_zero", 0.0, 1.0, (True, 0.0, None)),
    ("constants_finite", math.nan, 1.0, (False, None, None)),
])
def test_judge(row_id, value, scale, expected):
    passed, bound, margin = judge(row_id, value, scale)
    want_passed, want_bound, want_margin = expected
    assert (passed, bound) == (want_passed, want_bound)
    assert margin == (None if want_margin is None else pytest.approx(want_margin))


def test_fixed_bound_takes_no_scale():
    with pytest.raises(ValueError, match="gramian_symmetry"):
        judge("gramian_symmetry", 1e-12, scale=10.0)
