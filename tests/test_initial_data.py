import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paikit as pk
from paikit.geometry import SpeedField
from paikit.initial_data import (EllipticSolveError, diffusion_system,
                                 boundary_normal_derivative, harmonic_g,
                                 harmonic_g_transpose, solve_spd)
from paikit.norms import grid_h1, grid_l2
from conftest import diffusion_pressure, read_only


def _loop_boundary_normal_derivative(u, disc):
    """Per-row accumulation through a node -> position dict (the reference)."""
    q = disc.trace.apply(u)
    pos = {int(n): k for k, n in enumerate(disc.boundary.idx)}
    acc = np.zeros(disc.boundary.idx.size)
    wacc = np.zeros(disc.boundary.idx.size)
    for row, (node, w) in enumerate(zip(disc.trace.node_idx, disc.trace.weights)):
        acc[pos[int(node)]] += w * q[row]
        wacc[pos[int(node)]] += w
    return acc / wacc


@pytest.mark.parametrize("center, resolution", [((0.0, 0.0), 48), ((0.0, 0.0, 0.0), 24)])
def test_boundary_normal_derivative_matches_loop(center, resolution):
    disc = pk.Domain.disk(center, 1.0, resolution).disc
    u = np.random.default_rng(resolution).normal(size=disc.n_nodes)
    assert np.array_equal(boundary_normal_derivative(u, disc),
                          _loop_boundary_normal_derivative(u, disc))


def test_f_blind_to_inclusion_without_optical_contrast(unit_square_32):
    model = pk.OpticalCoefficients(D_in=0.3, D_out=0.3, mu_in=0.5, mu_out=0.5)
    s1 = pk.build_speed_field(pk.StarInclusion((0.4, 0.4), 0.15), 0.9, unit_square_32)
    s2 = pk.build_speed_field(pk.StarInclusion((0.6, 0.6), 0.22), 0.9, unit_square_32)
    f1 = pk.solve_diffusion(model, s1, unit_square_32)
    f2 = pk.solve_diffusion(model, s2, unit_square_32)
    assert np.abs(f1 - f2).max() <= 1e-12 * np.abs(f1).max()


def test_zero_illumination_gives_zero_pressure(unit_square_32, disk_inclusion, optics):
    dark = pk.OpticalCoefficients(illumination=0.0)
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    f = pk.solve_diffusion(dark, sf, unit_square_32)
    assert np.abs(f).max() == 0.0


def test_pressure_jump_against_dense_solve():
    # oracle: dense direct solve of the same discrete elliptic system
    n = 64
    dom = pk.Domain.rectangle((0, 0), (1, 1), n)
    incl = pk.StarInclusion((0.5, 0.5), 0.25)
    model = pk.OpticalCoefficients(mu_out=0.4, mu_in=0.8, illumination=1.0)
    sf = pk.build_speed_field(incl, 0.9, dom)
    f, u = pk.solve_diffusion(model, sf, dom, return_fluence=True)
    A, b, act = diffusion_system(model, sf.chi, dom.disc)
    u_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(u[act] - u_dense) <= 1e-8 * np.linalg.norm(u_dense)
    # jump across the interface: f_in > f_out nearby (mu ratio 2, u continuous)
    pts = dom.grid.coords
    rho = incl.level_set(pts)
    ring_in = (rho > -4 / n) & (rho < -2 / n)
    ring_out = (rho > 2 / n) & (rho < 4 / n)
    assert f[ring_in].mean() > 1.5 * f[ring_out].mean()
    assert f.min() > 0.0  # positive where mu > 0 and illumination > 0


def test_harmonic_g_zero_for_flat_boundary_data(unit_square_32):
    f = np.ones(unit_square_32.grid.n_nodes)
    g = pk.harmonic_g(f, 1.0, unit_square_32)
    assert np.abs(g).max() <= 1e-12


def test_harmonic_g_against_dense_laplace(unit_square_48):
    # f = x has dn f = nu_x, so g solves Laplace with data -nu_x
    dom = unit_square_48
    disc = dom.disc
    f = disc.grid.field(lambda x: x[:, 0])
    g = pk.harmonic_g(f, 1.0, dom)
    nd = boundary_normal_derivative(f, disc)
    assert np.abs(nd - disc.boundary.normals[:, 0]).max() <= 1e-10
    g_dense = np.linalg.solve(disc.K_ii.toarray(),
                              -(disc.K_ib @ (-disc.boundary.normals[:, 0])))
    assert np.abs(g[disc.inside_idx] - g_dense).max() <= 1e-9 * max(np.abs(g_dense).max(), 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 12, 17]),
       scalar_beta=st.booleans())
def test_harmonic_g_transpose_property(seed, n, scalar_beta):
    # <harmonic_g(f), s> = <f, harmonic_g_transpose(s)> for the map f -> g
    # that the inversion gradient transposes
    rng = np.random.default_rng(seed)
    dom = pk.Domain.rectangle((0.0, 0.0), tuple(rng.uniform(0.5, 2.0, 2)), n)
    disc = dom.disc
    beta = (rng.uniform(0.5, 2.0) if scalar_beta
            else rng.uniform(0.5, 2.0, disc.boundary.idx.size))
    f = rng.normal(size=disc.n_nodes) * rng.uniform(1e-3, 1e3)
    s = rng.normal(size=disc.n_nodes)
    g, f_bar = harmonic_g(f, beta, dom), harmonic_g_transpose(s, beta, dom)
    bound = np.linalg.norm(g) * np.linalg.norm(s) + np.linalg.norm(f) * np.linalg.norm(f_bar)
    assert abs(g @ s - f @ f_bar) <= 1e-12 * bound


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 12]),
       scalar_beta=st.booleans())
def test_make_initial_data_read_only_inputs(seed, n, scalar_beta):
    # read-only speed and damping give the same data as writeable ones
    rng = np.random.default_rng(seed)
    dom = pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), n)
    incl = pk.StarInclusion((0.5, 0.5), rng.uniform(0.15, 0.3),
                            tuple(rng.normal(scale=0.01, size=2)))
    sf = pk.build_speed_field(incl, rng.uniform(0.6, 1.0), dom)
    beta = (rng.uniform(0.2, 5.0) if scalar_beta
            else rng.uniform(0.2, 5.0, dom.disc.boundary.idx.size))
    optics = pk.OpticalCoefficients(illumination=rng.uniform(0.5, 2.0))
    ref = pk.make_initial_data(optics, sf, dom, beta=beta)
    frozen = SpeedField(sf.a, sf.eps, read_only(sf.chi), incl, dom)
    out = pk.make_initial_data(optics, frozen, dom, beta=read_only(beta))
    for name in ("f", "g", "beta", "u"):
        assert np.array_equal(getattr(out, name), getattr(ref, name))
    # u is the fluence behind f = Gamma mu u
    mu = optics.fields(sf.chi)[1]
    assert np.array_equal(ref.f, optics.grueneisen * mu * ref.u)


def test_harmonic_g_depends_only_on_boundary_derivative(unit_square_32):
    disc = unit_square_32.disc
    pts = disc.grid.coords
    f1 = pts[:, 0] ** 2 + pts[:, 1]
    bump = np.exp(-80 * ((pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.5) ** 2))
    bump[disc.boundary.idx] = 0.0
    # zero the bump near the boundary so one-sided stencils see nothing
    d = np.minimum.reduce([pts[:, 0], 1 - pts[:, 0], pts[:, 1], 1 - pts[:, 1]])
    bump[d < 3.5 / 32] = 0.0
    g1 = pk.harmonic_g(f1, 2.0, unit_square_32)
    g2 = pk.harmonic_g(f1 + bump, 2.0, unit_square_32)
    assert np.abs(g1 - g2).max() <= 1e-12 * max(np.abs(g1).max(), 1)


def test_harmonic_g_maximum_principle(unit_square_32, disk_inclusion, optics):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    data = pk.make_initial_data(optics, sf, unit_square_32)
    disc = unit_square_32.disc
    g_b = data.g[disc.boundary.idx]
    assert data.g.min() >= g_b.min() - 1e-12
    assert data.g.max() <= g_b.max() + 1e-12


def test_compatibility_constant_pressure(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    disc = unit_square_32.disc
    const = 0.7
    data = pk.InitialData(np.full(disc.n_nodes, const), np.zeros(disc.n_nodes),
                          np.ones(disc.boundary.idx.size))
    rep = pk.check_compatibility(data, sf, unit_square_32)
    assert rep.res_boundary_abs <= 1e-14
    assert rep.res_volume_abs == pytest.approx(const * 4.0, rel=1e-12)
    assert rep.weak_wellposed and not rep.strong_wellposed


def test_compatibility_zero_data(unit_square_32, disk_inclusion):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    disc = unit_square_32.disc
    data = pk.InitialData(np.zeros(disc.n_nodes), np.zeros(disc.n_nodes),
                          np.ones(disc.boundary.idx.size))
    rep = pk.check_compatibility(data, sf, unit_square_32)
    assert rep.res_boundary_abs == 0.0 and rep.res_volume_abs == 0.0
    assert rep.strong_wellposed


def test_compatibility_of_model_data(unit_square_32, disk_inclusion, optics):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    data = pk.make_initial_data(optics, sf, unit_square_32)
    rep = pk.check_compatibility(data, sf, unit_square_32, tol=1e-10)
    assert rep.res_boundary_rel <= 1e-10
    assert rep.weak_wellposed
    assert rep.res_volume_rel > 1e-6  # volume condition generically fails


def test_boundary_data_invariance_across_inclusions(unit_square_48, optics):
    # admissible inclusions with a fixed margin leave f and dn f on the
    # boundary nearly unchanged (the class condition the model realizes)
    dom = unit_square_48
    disc = dom.disc
    f, nd = [], []
    for incl in (pk.StarInclusion((0.45, 0.55), 0.18),
                 pk.StarInclusion((0.55, 0.45), 0.22, (0.0, 0.02))):
        sf = pk.build_speed_field(incl, 0.9, dom)
        fi = pk.solve_diffusion(optics, sf, dom)
        f.append(fi[disc.boundary.idx])
        nd.append(boundary_normal_derivative(fi, disc))
    rel_f = np.abs(f[0] - f[1]).max() / np.abs(f[0]).max()
    rel_nd = np.abs(nd[0] - nd[1]).max() / np.abs(nd[0]).max()
    assert rel_f < 0.15 and rel_nd < 0.15


def test_f_continuity_in_radial_coefficients(unit_square_32, optics):
    dom = unit_square_32
    base = pk.StarInclusion((0.5, 0.5), 0.22)
    sf0 = pk.build_speed_field(base, 0.9, dom)
    f0 = pk.solve_diffusion(optics, sf0, dom)
    deltas = [0.02, 0.01, 0.005]
    diffs = []
    for d in deltas:
        incl = pk.StarInclusion((0.5, 0.5), 0.22 + d)
        sf = pk.build_speed_field(incl, 0.9, dom)
        diffs.append(grid_l2(pk.solve_diffusion(optics, sf, dom) - f0, dom.disc))
    slopes = [diffs[i] / deltas[i] for i in range(3)]
    assert max(slopes) <= 3.0 * min(slopes)  # O(delta) behavior


def test_h2_bound_enforced(unit_square_32, disk_inclusion, optics):
    sf = pk.build_speed_field(disk_inclusion, 0.9, unit_square_32)
    with pytest.raises(ValueError, match="H2"):
        pk.make_initial_data(optics, sf, unit_square_32, h2_bound=1e-6)


def test_reverse_inequality_probe(unit_square_48, optics):
    i_small = pk.StarInclusion((0.5, 0.5), 0.20)
    i_big = pk.StarInclusion((0.5, 0.5), 0.30)
    rep = pk.reverse_inequality_probe(
        optics, [(i_small, i_big)], unit_square_48,
        diffusion_pressure(optics, 0.9, unit_square_48))
    assert rep.d_emp > 0 and rep.admissible


def test_reverse_inequality_rejects_identical_pair(unit_square_32, optics):
    incl = pk.StarInclusion((0.5, 0.5), 0.22)
    with pytest.raises(ValueError, match="fully-resolved"):
        pk.reverse_inequality_probe(optics, [(incl, incl)], unit_square_32,
                                    diffusion_pressure(optics, 0.9, unit_square_32))


def test_reverse_inequality_flags_degenerate_model(unit_square_32):
    flat = pk.OpticalCoefficients(D_in=0.2, D_out=0.2, mu_in=0.5, mu_out=0.5)
    pair = (pk.StarInclusion((0.5, 0.5), 0.18),
            pk.StarInclusion((0.5, 0.5), 0.28))
    rep = pk.reverse_inequality_probe(flat, [pair], unit_square_32,
                                      diffusion_pressure(flat, 0.9, unit_square_32))
    assert rep.d_emp <= 1e-12 and not rep.admissible


def test_reverse_inequality_empty_pairs(unit_square_32, optics):
    with pytest.raises(ValueError, match="empty"):
        pk.reverse_inequality_probe(optics, [], unit_square_32,
                                    diffusion_pressure(optics, 0.9, unit_square_32))


def test_cg_iteration_cap_reports_residual(unit_square_32):
    import scipy.sparse as sp
    n = 400
    rng = np.random.default_rng(0)
    lap = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                   [-1, 0, 1]).tocsr()
    with pytest.raises(EllipticSolveError, match="residual"):
        solve_spd(lap, rng.normal(size=n), rtol=1e-14, maxiter=3)
