import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paikit as pk
from paikit.geometry import GeometryError, smoothed_indicator


def test_speed_is_one_when_contrast_vanishes(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 1.0, unit_square_32)
    assert np.all(sf.c == 1.0)


def test_speed_value_deep_inside_inclusion(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    pts = unit_square_32.grid.coords
    center = np.linalg.norm(pts - np.array([0.45, 0.55]), axis=1).argmin()
    assert sf.c[center] == pytest.approx(0.9, abs=0.0)
    # and exactly 1 far away from the inclusion
    corner = np.linalg.norm(pts - np.array([0.02, 0.02]), axis=1).argmin()
    assert sf.c[corner] == 1.0


def test_indicator_sup_distance_is_binary(unit_square_32):
    i1 = pk.StarInclusion((0.5, 0.5), 0.20)
    i2 = pk.StarInclusion((0.5, 0.5), 0.30)
    s1 = pk.build_speed_field(i1, 0.9, unit_square_32)
    s2 = pk.build_speed_field(i2, 0.9, unit_square_32)
    diff = np.abs(s1.indicator_crisp() - s2.indicator_crisp())
    assert diff.max() == 1.0


def test_derived_powers_are_consistent(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.8, unit_square_32)
    assert np.abs(sf.c_inv2 * sf.c2 - 1.0).max() <= 1e-14
    assert sf.c.min() >= 0.8 and sf.c.max() <= 1.0


def test_smoothing_band_is_confined(unit_square_32, disk_inclusion):
    eps = 1.5 * unit_square_32.grid.h_min
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32, eps=eps)
    rho = disk_inclusion.level_set(unit_square_32.grid.coords)
    outside_band = np.abs(rho) >= eps
    assert np.all((sf.chi[outside_band] == 0.0) | (sf.chi[outside_band] == 1.0))


def test_monotone_in_contrast(unit_square_32, disk_inclusion):
    s_low = pk.build_speed_field(disk_inclusion, 0.8, unit_square_32)
    s_high = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    inside = s_low.chi > 0
    assert np.all(s_high.c[inside] >= s_low.c[inside])
    assert np.all(s_high.c[~inside] == s_low.c[~inside])


def test_crisp_mode_area_fractions(unit_square_32, disk_inclusion):
    chi = smoothed_indicator(disk_inclusion, unit_square_32, eps=0.0)
    rho = disk_inclusion.level_set(unit_square_32.grid.coords)
    far = np.abs(rho) > np.linalg.norm(unit_square_32.grid.h)
    assert set(np.unique(chi[far])) <= {0.0, 1.0}
    band = ~far
    assert chi[band].min() >= 0.0 and chi[band].max() <= 1.0


def test_indicator_area_converges_first_order():
    incl = pk.StarInclusion((0.5, 0.5), 0.25)
    exact = np.pi * 0.25**2
    errs = []
    for n in (32, 64, 128):
        dom = pk.Domain.rectangle((0, 0), (1, 1), n)
        sf = pk.build_speed_field(incl, 0.9, dom)
        area = float((dom.disc.w_vol * (sf.chi > 0.5)).sum())
        errs.append(abs(area - exact))
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 0.85


def test_star_shape_check_disk():
    incl = pk.StarInclusion((0.2, 0.1), 0.3)
    ok, margin = pk.star_shape_check(incl)
    assert ok
    assert margin == pytest.approx(0.3, rel=1e-12)


def test_star_shape_check_ellipse_against_implicit_normal():
    # radial parametrization of an ellipse with semi-axes 0.3 and 0.15
    a, b = 0.3, 0.15
    th = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    r = a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2)
    # project onto a truncated Fourier series accurate to ~1e-6
    k_max = 16
    coeffs = np.fft.rfft(r) / r.size
    r0 = float(coeffs[0].real)
    cos_c = tuple(2.0 * coeffs[1:k_max + 1].real)
    incl = pk.StarInclusion((0.0, 0.0), r0, cos_c)
    ok, margin = pk.star_shape_check(incl, n_samples=2048)
    assert ok
    # oracle: for the implicit form x^2/a^2 + y^2/b^2 = 1 the margin
    # n . x = 1 / |(x/a^2, y/b^2)| is minimized at the flat side, value b
    x, y = a * np.cos(th), b * np.sin(th)
    margin_exact = (1.0 / np.hypot(x / a**2, y / b**2)).min()
    assert margin_exact == pytest.approx(b, rel=1e-6)
    assert margin == pytest.approx(margin_exact, rel=5e-3)


def test_radial_graph_is_star_shaped():
    incl = pk.StarInclusion((0.5, 0.5), 0.25, (0.0, 0.0, 0.2))
    ok, margin = pk.star_shape_check(incl)
    assert ok and margin > 0


def test_random_radial_graphs_are_star_shaped():
    rng = np.random.default_rng(8)
    for _ in range(20):
        r0 = rng.uniform(0.1, 0.3)
        cos_c = rng.normal(scale=0.15 * r0, size=4)
        sin_c = rng.normal(scale=0.15 * r0, size=4)
        try:
            incl = pk.StarInclusion((0.0, 0.0), r0, tuple(cos_c), tuple(sin_c))
        except GeometryError:
            continue
        ok, _ = pk.star_shape_check(incl)
        assert ok


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([2, 3]), r0=st.floats(1e-3, 0.5),
       cos_c=st.lists(st.floats(-0.5, 0.5), max_size=5),
       sin_c=st.lists(st.floats(-0.5, 0.5), max_size=5))
def test_every_valid_star_inclusion_passes_star_shape_check(dim, r0, cos_c, sin_c):
    try:
        incl = pk.StarInclusion((0.0,) * dim, r0, tuple(cos_c), tuple(sin_c))
    except GeometryError:
        return
    ok, margin = pk.star_shape_check(incl)
    assert ok, margin


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k_max=st.integers(1, 5))
def test_radius_jacobian_matches_central_differences(seed, k_max):
    # r is linear in the coefficients, so a central difference is exact up
    # to rounding
    rng = np.random.default_rng(seed)
    params = np.concatenate([[rng.uniform(0.1, 0.3)],
                             rng.normal(scale=0.01, size=2 * k_max)])
    theta = rng.uniform(-np.pi, np.pi, 50)
    jac = pk.StarInclusion.from_params((0.5, 0.5), params, k_max).radius_jacobian(theta)
    assert jac.shape == (theta.size, params.size)
    h = 1e-3
    for j in range(params.size):
        step = np.zeros(params.size)
        step[j] = h
        up, dn = (pk.StarInclusion.from_params((0.5, 0.5), params + s, k_max)
                  for s in (step, -step))
        fd = (up.radius(theta) - dn.radius(theta)) / (2.0 * h)
        assert np.abs(jac[:, j] - fd).max() <= 1e-10


def test_degenerate_radius_rejected():
    with pytest.raises(GeometryError, match="radius"):
        pk.StarInclusion((0.0, 0.0), 0.1, (0.3,))


def test_geometry_constants_disk():
    dom = pk.Domain.disk((0.0, 0.0), 1.0, 16)
    gc = pk.geometry_constants(dom, (0.0, 0.0), 0.9)
    assert gc.C_x0 == pytest.approx(1.0)
    assert gc.diam == pytest.approx(2.0)
    assert gc.T == pytest.approx(8.0)
    assert gc.T_min_obs == pytest.approx(2.0 / 0.81, rel=1e-12)
    assert gc.T > gc.T_min_obs


def test_geometry_constants_square(unit_square_32):
    gc = pk.geometry_constants(unit_square_32, (0.5, 0.5), 0.8)
    assert gc.C_x0 == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-12)


def test_constants_reject_outside_point(unit_square_32):
    with pytest.raises(GeometryError, match="outside"):
        pk.geometry_constants(unit_square_32, (1.5, 0.5), 0.9)


def test_contrast_out_of_range(unit_square_32, disk_inclusion):
    with pytest.raises(GeometryError, match="contrast"):
        pk.build_speed_field(disk_inclusion, 0.4, unit_square_32)


def test_inclusion_touching_boundary_rejected(unit_square_32):
    big = pk.StarInclusion((0.5, 0.5), 0.49)
    with pytest.raises(GeometryError, match="boundary"):
        pk.build_speed_field(big, 0.9, unit_square_32)


def test_boundary_description(unit_square_32):
    bd = unit_square_32.disc.boundary
    assert np.abs(np.linalg.norm(bd.normals, axis=1) - 1.0).max() <= 1e-12
    assert bd.weights.sum() == pytest.approx(4.0, rel=1e-12)
    # ordered cycle: consecutive nodes one spacing apart
    assert bd.ds.max() == pytest.approx(unit_square_32.grid.h_min, rel=1e-12)


def test_masked_disk_discretization():
    dom = pk.Domain.disk((0.0, 0.0), 1.0, 48)
    disc = dom.disc
    assert abs(disc.w_vol.sum() - np.pi) < 0.1
    assert np.abs(np.linalg.norm(disc.boundary.normals, axis=1) - 1.0).max() <= 1e-12
    # staircase surface measure overestimates the circle by at most 4/pi
    assert 2 * np.pi <= disc.boundary.weights.sum() <= 4.001 * 2
