"""Initial pressure and velocity from a diffuse-optics model.

The initial pressure is ``f = Gamma * mu * u`` where ``u`` solves the
diffusion problem ``-div(D grad u) + mu u = 0`` with Robin boundary data
``D du/dnu + kappa u = s``.  The optical coefficients are piecewise constant
with the same (smoothed) discontinuity set as the acoustic speed, so the
data class couples the inclusion to the measurement the way the inverse
problem requires.  The initial velocity ``g`` is the harmonic extension of
``-beta^{-1} dn f`` which makes ``dn f + beta g = 0`` hold on the boundary
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import Domain, SpeedField
from .grid import Discretization, stepping_form
from . import norms


class EllipticSolveError(RuntimeError):
    pass


def solve_spd(A: sp.csr_matrix, b: np.ndarray, rtol: float = 1e-12,
              maxiter: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned CG with an iteration cap that fails loudly."""
    d = A.diagonal()
    if np.any(d <= 0):
        raise EllipticSolveError("system diagonal is not positive")
    M = spla.LinearOperator(A.shape, matvec=lambda x: x / d)
    if maxiter is None:
        maxiter = 40 * int(np.sqrt(A.shape[0])) + 200
    x, info = spla.cg(A, b, rtol=rtol, atol=0.0, maxiter=maxiter, M=M)
    res = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b)
    if info != 0 or (scale > 0 and res > 10.0 * rtol * scale):
        raise EllipticSolveError(
            f"CG did not converge within {maxiter} iterations "
            f"(relative residual {res / max(scale, 1e-300):.3e})")
    return x


@dataclass(frozen=True)
class OpticalCoefficients:
    """Two-phase diffusion/absorption model sharing the inclusion's interface."""

    D_out: float = 0.30
    D_in: float = 0.10
    mu_out: float = 0.30
    mu_in: float = 0.90
    grueneisen: float = 1.0
    illumination: float = 1.0
    robin_kappa: float = 0.5

    def __post_init__(self):
        if self.D_out <= 0 or self.D_in <= 0:
            raise ValueError("diffusion values must be positive")
        # mu_in == mu_out is constructible so the admissibility probe can
        # flag contrast-free models; mu_in below mu_out is rejected outright
        if self.mu_out < 0 or self.mu_in < self.mu_out:
            raise ValueError("absorption must satisfy 0 <= mu_out <= mu_in")
        if self.robin_kappa <= 0:
            raise ValueError("Robin coefficient must be positive")

    def fields(self, chi: np.ndarray):
        D = self.D_out + (self.D_in - self.D_out) * chi
        mu = self.mu_out + (self.mu_in - self.mu_out) * chi
        return D, mu


@dataclass
class InitialData:
    """The pair (f, g) with the boundary damping it was built against."""

    f: np.ndarray
    g: np.ndarray
    beta: np.ndarray           # per boundary node
    u: np.ndarray | None = None    # fluence behind f; None for data built by hand


def as_boundary_beta(beta, disc: Discretization) -> np.ndarray:
    nb = disc.boundary.idx.size
    arr = np.broadcast_to(np.asarray(beta, dtype=float), (nb,)).copy()
    if np.any(arr <= 0):
        raise ValueError("beta must be positive everywhere on the boundary")
    return arr


def boundary_normal_derivative(u: np.ndarray, disc: Discretization) -> np.ndarray:
    """One-sided dn u per boundary node (face rows averaged on masked grids)."""
    q = disc.trace.apply(u)
    if disc.kind == "rectangle":
        return q
    nb = disc.boundary.idx.size
    k = disc.boundary_pos[disc.trace.node_idx]
    w = disc.trace.weights
    # np.add.at adds repeated positions one row at a time, in row order
    acc = np.zeros(nb)
    wacc = np.zeros(nb)
    np.add.at(acc, k, w * q)
    np.add.at(wacc, k, w)
    return acc / wacc


def diffusion_system(coeffs: OpticalCoefficients, chi: np.ndarray,
                     disc: Discretization):
    """SPD system (A, b) on the active nodes; harmonic face averages of D.

    ``A`` comes in its stepping form (``grid.stepping_form``), which the CG
    products run on.
    """
    D, mu = coeffs.fields(chi)
    K_D = disc.faces.stiffness(disc.n_nodes, disc.faces.harmonic_of(D))
    diag = mu * disc.w_vol
    robin = np.zeros(disc.n_nodes)
    robin[disc.boundary.idx] = coeffs.robin_kappa * disc.boundary.weights
    A = (K_D + sp.diags(diag + robin)).tocsr()
    b = np.zeros(disc.n_nodes)
    s = np.broadcast_to(np.asarray(coeffs.illumination, dtype=float),
                        disc.boundary.idx.shape)
    b[disc.boundary.idx] = s * disc.boundary.weights
    act = np.flatnonzero(disc.active_mask)
    if act.size < disc.n_nodes:
        A, b = A[act][:, act].tocsr(), b[act]
    return stepping_form(A, disc.grid.dim), b, act


def solve_diffusion(coeffs: OpticalCoefficients, speed: SpeedField,
                    domain: Domain, return_fluence: bool = False):
    """Initial pressure f = Gamma * mu * u from the diffusion model."""
    disc = domain.disc
    A, b, act = diffusion_system(coeffs, speed.chi, disc)
    u_act = solve_spd(A, b, rtol=1e-10)
    u = np.zeros(disc.n_nodes)
    u[act] = u_act
    _, mu = coeffs.fields(speed.chi)
    f = coeffs.grueneisen * mu * u
    if return_fluence:
        return f, u
    return f


def harmonic_g(f: np.ndarray, beta, domain: Domain) -> np.ndarray:
    """Harmonic extension of -beta^{-1} dn f from the boundary."""
    disc = domain.disc
    beta_b = as_boundary_beta(beta, disc)
    g_b = -boundary_normal_derivative(f, disc) / beta_b
    g_i = disc.K_ii_lu.solve(-(disc.K_ib @ g_b))
    return disc.scatter(g_i, g_b)


def harmonic_g_transpose(g_bar: np.ndarray, beta, domain: Domain) -> np.ndarray:
    """Transpose of ``harmonic_g`` on rectangles: the cotangent of f.

    ``harmonic_g`` is g = scatter(-K_ii^-1 K_ib g_b, g_b) with
    g_b = -beta^-1 T f, where T is the one-sided normal-derivative trace.
    """
    disc = domain.disc
    beta_b = as_boundary_beta(beta, disc)
    v = disc.K_ii_lu.solve(g_bar[disc.inside_idx])
    gb_bar = g_bar[disc.boundary.idx] - disc.K_ib.T @ v
    return disc.trace.op.T @ (-gb_bar / beta_b)


def make_initial_data(coeffs: OpticalCoefficients, speed: SpeedField,
                      domain: Domain, beta=1.0,
                      h2_bound: float | None = None) -> InitialData:
    """The model's (f, g) and the fluence u behind f."""
    disc = domain.disc
    beta_b = as_boundary_beta(beta, disc)
    f, u = solve_diffusion(coeffs, speed, domain, return_fluence=True)
    if h2_bound is not None:
        f_h2 = norms.grid_h2(f, disc)
        if f_h2 > h2_bound:
            raise ValueError(
                f"||f||_H2 = {f_h2:.4g} exceeds the configured bound {h2_bound:.4g}")
    return InitialData(f, harmonic_g(f, beta_b, domain), beta_b, u)


@dataclass
class CompatibilityReport:
    res_boundary_abs: float   # max |dn f + beta g| on the boundary
    res_boundary_rel: float
    res_volume_abs: float     # |int c^-2 g dx + int beta f dsigma|
    res_volume_rel: float
    strong_wellposed: bool    # both conditions hold (strong solution theory)
    weak_wellposed: bool      # boundary condition alone holds


def check_compatibility(data: InitialData, speed: SpeedField,
                        domain: Domain, tol: float = 1e-8) -> CompatibilityReport:
    disc = domain.disc
    dn_f = boundary_normal_derivative(data.f, disc)
    g_b = data.g[disc.boundary.idx]
    r2 = dn_f + data.beta * g_b
    # the derivative-scale floor keeps the relative residual meaningful for
    # constant fields, whose one-sided derivatives are pure roundoff
    scale2 = max(np.abs(dn_f).max(), np.abs(data.beta * g_b).max(),
                 np.abs(data.f).max() / domain.diam, 1e-30)
    vol = float((disc.w_vol * speed.c_inv2 * data.g).sum())
    surf = float((disc.boundary.weights * data.beta * data.f[disc.boundary.idx]).sum())
    scale1 = max(abs(vol), abs(surf), 1e-30)
    r2_abs = float(np.abs(r2).max())
    r1_abs = abs(vol + surf)
    return CompatibilityReport(
        res_boundary_abs=r2_abs,
        res_boundary_rel=r2_abs / scale2,
        res_volume_abs=r1_abs,
        res_volume_rel=r1_abs / scale1,
        strong_wellposed=(r2_abs / scale2 <= tol and r1_abs / scale1 <= tol),
        weak_wellposed=(r2_abs / scale2 <= tol),
    )


@dataclass
class ReverseInequalityReport:
    d_emp: float
    per_pair: list
    admissible: bool


def _fully_resolved_difference(incl1, incl2, domain: Domain) -> int:
    """Count nodes where the crisp indicators differ outside both bands."""
    pts = domain.grid.coords
    rho1 = incl1.level_set(pts)
    rho2 = incl2.level_set(pts)
    eps1 = max(incl1.smoothing_width, 1.5 * domain.grid.h_min)
    eps2 = max(incl2.smoothing_width, 1.5 * domain.grid.h_min)
    solid = (np.abs(rho1) > eps1) & (np.abs(rho2) > eps2)
    return int((((rho1 < 0) != (rho2 < 0)) & solid).sum())


def reverse_inequality_probe(model: OpticalCoefficients, pairs, domain: Domain,
                             pressure) -> ReverseInequalityReport:
    """Empirical constant of the lower bound ||f1 - f2||_H1 >= d ||1_w1 - 1_w2||_inf.

    The sup-norm of an indicator difference is 1 for distinct inclusions, so
    ``d_emp`` is the smallest H1 distance of the pressures over the pairs.
    ``pressure(incl)`` returns the initial pressure of one inclusion.
    """
    if not pairs:
        raise ValueError("pair list is empty")
    disc = domain.disc
    rows = []
    for incl1, incl2 in pairs:
        if _fully_resolved_difference(incl1, incl2, domain) < 1:
            raise ValueError("pair rejected: inclusions do not differ on a "
                             "fully-resolved grid cell")
        rows.append(norms.grid_h1(pressure(incl1) - pressure(incl2), disc))
    d_emp = float(min(rows))
    same_optics = (model.D_in == model.D_out and model.mu_in == model.mu_out)
    admissible = d_emp > 1e-12 and not same_optics
    return ReverseInequalityReport(d_emp=d_emp, per_pair=rows, admissible=admissible)
