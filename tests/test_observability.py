import numpy as np
import pytest

import paikit as pk
from paikit.geometry import SpeedField
from paikit.observability import (ObservabilityReport, observability_ensemble,
                                  observability_ratio, multiplier_constant, rng_of,
                                  smooth_field, smooth_h01_field)
from conftest import read_only


@pytest.fixture(scope="module")
def disk_domain():
    return pk.Domain.disk((0.0, 0.0), 1.0, 48)


@pytest.fixture(scope="module")
def disk_speed(disk_domain):
    incl = pk.StarInclusion((0.0, 0.0), 0.35, (0.0, 0.05))
    return pk.build_speed_field(incl, 0.9, disk_domain)


def test_zero_data_vacuous(disk_domain, disk_speed):
    z = np.zeros(disk_domain.grid.n_nodes)
    rep = observability_ratio(disk_speed, z, z, None, 4 * disk_domain.diam,
                              (0.0, 0.0))
    assert rep.lhs == 0.0 and rep.ratio == 0.0


def test_source_only_row(disk_domain, disk_speed):
    z = np.zeros(disk_domain.grid.n_nodes)
    pts = disk_domain.grid.coords
    Ff = np.exp(-4 * (pts**2).sum(axis=1))
    rep = observability_ratio(disk_speed, z, z, lambda t: np.cos(t) * Ff,
                              4 * disk_domain.diam, (0.0, 0.0))
    assert rep.lhs == 0.0 and rep.ratio == 0.0 and rep.source > 0.0


def test_ratio_scale_invariance(disk_domain, disk_speed):
    rng = np.random.default_rng(3)
    u0 = smooth_h01_field(disk_domain, rng)
    u1 = smooth_field(disk_domain, rng)
    T = 4 * disk_domain.diam
    r1 = observability_ratio(disk_speed, u0, u1, None, T, (0.0, 0.0))
    r2 = observability_ratio(disk_speed, 2.5 * u0, 2.5 * u1, None, T, (0.0, 0.0))
    assert r2.lhs == pytest.approx(2.5**2 * r1.lhs, rel=1e-12)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-12)


def test_inequality_holds_2d(disk_domain, disk_speed):
    rng = np.random.default_rng(11)
    T = 4 * disk_domain.diam
    for _ in range(3):
        u0 = smooth_h01_field(disk_domain, rng)
        u1 = smooth_field(disk_domain, rng)
        rep = observability_ratio(disk_speed, u0, u1, None, T, (0.0, 0.0))
        assert rep.certified
        assert rep.ratio <= 1.0


def test_time_bound_enforced(disk_domain, disk_speed):
    rng = np.random.default_rng(5)
    u0 = smooth_h01_field(disk_domain, rng)
    u1 = smooth_field(disk_domain, rng)
    with pytest.raises(ValueError, match="certified"):
        observability_ratio(disk_speed, u0, u1, None, 1.0, (0.0, 0.0))
    rep = observability_ratio(disk_speed, u0, u1, None, 1.0, (0.0, 0.0),
                              require_time_bound=False)
    assert not rep.certified and rep.warning


def test_observability_ratio_read_only_inputs(disk_domain, disk_speed):
    rng = np.random.default_rng(3)
    u0 = smooth_h01_field(disk_domain, rng)
    u1 = smooth_field(disk_domain, rng)
    pts = disk_domain.grid.coords
    Ff = np.exp(-4 * (pts**2).sum(axis=1))
    T = 4 * disk_domain.diam
    ref = observability_ratio(disk_speed, u0, u1, lambda t: np.cos(t) * Ff, T,
                              (0.0, 0.0))
    frozen = SpeedField(disk_speed.a, disk_speed.eps, read_only(disk_speed.chi),
                        read_only(disk_speed.rho), disk_speed.inclusion, disk_domain)
    Ff_frozen = read_only(Ff)
    out = observability_ratio(frozen, read_only(u0), read_only(u1),
                              lambda t: np.cos(t) * Ff_frozen, T, (0.0, 0.0))
    assert out == ref


def test_center_mismatch_rejected(disk_domain, disk_speed):
    rng = np.random.default_rng(5)
    u0 = smooth_h01_field(disk_domain, rng)
    with pytest.raises(ValueError, match="star center"):
        observability_ratio(disk_speed, u0, u0, None, 4 * disk_domain.diam,
                            (0.3, 0.0))


def test_boundary_support_rejected(disk_domain, disk_speed):
    u0 = np.ones(disk_domain.grid.n_nodes)
    with pytest.raises(ValueError, match="vanish"):
        observability_ratio(disk_speed, u0, u0, None, 4 * disk_domain.diam,
                            (0.0, 0.0))


def test_constant_halves_when_horizon_doubles():
    c1 = multiplier_constant(1.0, 8.0, 0.9)
    c2 = multiplier_constant(1.0, 16.0, 0.9)
    assert 0.4 <= c2 / c1 <= 0.55
    assert multiplier_constant(1.0, 2.0, 0.9) == np.inf


def test_contrast_limit_matches_baseline(disk_domain):
    incl = pk.StarInclusion((0.0, 0.0), 0.35)
    s_lim = pk.build_speed_field(incl, 1.0, disk_domain)
    s_none = pk.build_speed_field(None, 1.0, disk_domain)
    rng = np.random.default_rng(2)
    u0 = smooth_h01_field(disk_domain, rng)
    u1 = smooth_field(disk_domain, rng)
    T = 4 * disk_domain.diam
    r_lim = observability_ratio(s_lim, u0, u1, None, T, (0.0, 0.0))
    r_none = observability_ratio(s_none, u0, u1, None, T, (0.0, 0.0))
    assert r_lim.ratio == pytest.approx(r_none.ratio, rel=1e-14)


def test_ensemble_rows(disk_domain):
    incl = pk.StarInclusion((0.0, 0.0), 0.35)
    rows = observability_ensemble(disk_domain, (0.0, 0.0), incl,
                                  [0.85, 0.95], [1, 2], with_source=False)
    assert len(rows) == 4
    assert [r.a for r in rows] == [0.85, 0.85, 0.95, 0.95]
    # each member is the report of its own data, drawn from its seed
    rng = rng_of(2)
    u0, u1 = smooth_h01_field(disk_domain, rng), smooth_field(disk_domain, rng)
    speed = pk.build_speed_field(incl, 0.85, disk_domain)
    assert rows[1] == observability_ratio(speed, u0, u1, None,
                                          4 * disk_domain.diam, (0.0, 0.0))
    assert rows[1].meta["eps"] == speed.eps
    assert all(np.isfinite(r.ratio) and r.ratio > 0 for r in rows)
    assert all(r.certified for r in rows)
    with pytest.raises(ValueError, match="seed"):
        observability_ensemble(disk_domain, (0.0, 0.0), incl, [0.9], [])


def test_off_centre_inclusion_is_judged_at_the_callers_horizon():
    # C(0.2, 0.2) = 0.8 sqrt 2 on the unit square puts the floor 2 C a^-2 at
    # 7.48 for a = 0.55, above 4 diam = 5.66 but below the horizons asked for
    # here; the reports come back, a = 0.55 uncertified by its contrast
    dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 16)
    incl = pk.StarInclusion((0.2, 0.2), 0.1)
    speed = pk.build_speed_field(incl, 0.55, dom)
    rng = rng_of(3)
    u0, u1 = smooth_h01_field(dom, rng), smooth_field(dom, rng)
    rep = observability_ratio(speed, u0, u1, None, 20.0, (0.2, 0.2),
                              require_time_bound=False)
    assert isinstance(rep, ObservabilityReport) and not rep.certified
    assert rep.C_x0 == pytest.approx(0.8 * np.sqrt(2.0), rel=1e-12)
    reports = observability_ensemble(dom, (0.2, 0.2), incl, [0.55, 0.9], [1],
                                     T_factor=8.0)
    assert all(isinstance(r, ObservabilityReport) for r in reports)
    assert [r.certified for r in reports] == [False, True]
