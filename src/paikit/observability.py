"""Empirical checks of the boundary observability inequality.

For the homogeneous-Dirichlet problem ``c^-2 d2u/dt2 - lap u = F`` with
piecewise-constant speed and a star-shaped inclusion, the inequality reads

    int |u1|^2 + c^2 |grad u0|^2 dx
        <= 2 C(x0) / (T a^2 - 2 C(x0)) * (flux + source)

with ``flux = int_0^T int |dn u|^2`` and ``source = int_0^T int |F|^2``,
valid for ``T > 2 C(x0) a^-2``.  The explicit constant comes from a
three-dimensional multiplier computation, so only the 3-d ratio is certified
against it; 2-d ensembles are compared against a frozen regression bound.
The looser stated constant is reported next to the tighter one the
multiplier argument actually yields (an a^2/2 resp. a^2 rescaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (CONTRAST_CONTROL_LO, HORIZON_DIAMS, Domain, SpeedField,
                       StarInclusion, build_speed_field, farthest_distance)
from .wave_dirichlet import DirichletProblem, _level_series, simulate_dirichlet
from .wave_forward import nodal, time_grid
from . import norms

N_MODES = 3     # modes summed by the random smooth fields


@dataclass
class ObservabilityReport:
    lhs: float
    flux: float
    source: float
    constant: float          # 2 C(x0) / (T a^2 - 2 C(x0))
    ratio: float             # lhs / (constant * (flux + source)), 0 for zero data
    ratio_proof_form: float  # against the tighter constants the proof yields
    T: float
    C_x0: float
    a: float
    certified: bool          # T and a inside the certified regime
    warning: str = ""
    meta: dict = field(default_factory=dict)


def multiplier_constant(C_x0: float, T: float, a: float) -> float:
    den = T * a * a - 2.0 * C_x0
    if den <= 0:
        return np.inf
    return 2.0 * C_x0 / den


def observability_ratio(speed: SpeedField, u0: np.ndarray, u1: np.ndarray,
                        F, T: float, x0, *,
                        require_time_bound: bool = True) -> ObservabilityReport:
    """One inequality evaluation; ``F`` uses the c^-2 d2u - lap u = F convention."""
    domain = speed.domain
    disc = domain.disc
    u0, u1 = nodal("u0", u0, disc.n_nodes), nodal("u1", u1, disc.n_nodes)
    a = speed.a
    C = farthest_distance(domain, x0)

    warning = ""
    certified = True
    if not (T > 2.0 * C / a**2):
        certified = False
        warning = (f"T={T:.4g} does not exceed 2 C(x0) a^-2 = {2 * C / a**2:.4g}; "
                   "inequality not certified")
        if require_time_bound:
            raise ValueError(warning)
    if a < CONTRAST_CONTROL_LO:
        certified = False
        warning = (warning + "; " if warning else "") + \
            f"a={a} below the certified contrast threshold {CONTRAST_CONTROL_LO}"
    if speed.inclusion is not None and a < 1.0:
        if not np.allclose(np.asarray(speed.inclusion.x0), np.asarray(x0)):
            raise ValueError("x0 must be the star center of the inclusion")

    bnd = u0[disc.boundary.idx]
    if np.abs(bnd).max() > 1e-10 * max(np.abs(u0).max(), 1e-30):
        raise ValueError("u0 must vanish on the boundary")

    lhs = float((disc.w_vol * u1 * u1).sum()) + disc.grad_quadratic(u0, speed.c2)

    # the solver integrates d2u - c^2 lap u = (c^2 F); source norm uses F itself
    N, dt = time_grid(speed, T)
    series = _level_series(F, N, dt, disc.n_nodes, "source")
    _, ntr = simulate_dirichlet(DirichletProblem(
        speed, u0, u1, T, F=None if series is None else speed.c2 * series))
    source = 0.0
    if series is not None:
        w_t = norms.time_weights(N + 1, dt)
        for n in range(N + 1):
            source += w_t[n] * float((disc.w_vol * series[n] * series[n]).sum())
    flux = ntr.l2_norm_sq()

    const = multiplier_constant(C, T, a)
    denom = const * (flux + source)
    ratio = 0.0 if lhs == 0.0 else (lhs / denom if denom > 0 else np.inf)
    den_proof = (a * a * C * flux + 2.0 * a * a * C * source) / (T * a * a - 2.0 * C) \
        if T * a * a > 2.0 * C else np.inf
    ratio_proof = 0.0 if lhs == 0.0 else (lhs / den_proof if den_proof > 0 else np.inf)
    return ObservabilityReport(lhs, flux, source, const, ratio, ratio_proof,
                               T, C, a, certified, warning,
                               meta={"n": domain.grid_resolution,
                                     "dim": domain.dimension, "dt": dt,
                                     "eps": speed.eps})


def smooth_h01_field(domain: Domain, rng: np.random.Generator) -> np.ndarray:
    """Random smooth field vanishing on the boundary (H_0^1 sample)."""
    disc = domain.disc
    pts = domain.grid.coords
    if domain.shape == "rectangle":
        lo = np.asarray(domain.lo)
        ext = np.asarray(domain.hi) - lo
        cutoff = np.ones(disc.n_nodes)
        u = np.zeros(disc.n_nodes)
        for _ in range(N_MODES):
            k = rng.integers(1, 4, size=domain.dimension)
            amp = rng.normal() / (k.sum() ** 2.0)
            mode = amp * np.ones(disc.n_nodes)
            for ax in range(domain.dimension):
                mode *= np.sin(np.pi * k[ax] * (pts[:, ax] - lo[ax]) / ext[ax])
            u += mode
    else:
        ctr = np.asarray(domain.center)
        r = np.linalg.norm(pts - ctr, axis=1)
        cutoff = np.maximum(1.0 - (r / domain.radius) ** 2, 0.0)
        u = np.zeros(disc.n_nodes)
        for _ in range(N_MODES):
            x0 = ctr + rng.uniform(-0.5, 0.5, domain.dimension) * domain.radius
            width = rng.uniform(0.15, 0.4) * domain.radius
            u += rng.normal() * np.exp(-((pts - x0) ** 2).sum(axis=1) / (2 * width**2))
        u *= cutoff
    u[~disc.active_mask] = 0.0
    u[disc.boundary.idx] = 0.0
    return u


def smooth_field(domain: Domain, rng: np.random.Generator) -> np.ndarray:
    """Random smooth field with no boundary constraint (L^2 sample)."""
    disc = domain.disc
    pts = domain.grid.coords
    u = np.zeros(disc.n_nodes)
    scale = domain.diam
    ref = pts.mean(axis=0)
    for _ in range(N_MODES):
        x0 = ref + rng.uniform(-0.3, 0.3, domain.dimension) * scale
        width = rng.uniform(0.1, 0.3) * scale
        u += rng.normal() * np.exp(-((pts - x0) ** 2).sum(axis=1) / (2 * width**2))
    u[~disc.active_mask] = 0.0
    return u


def spawned_seeds(seed: int, count: int) -> list:
    """``count`` member seeds spawned from one seed."""
    return [int(s.generate_state(1)[0]) for s in
            np.random.SeedSequence(seed).spawn(count)]


def rng_of(seed: int) -> np.random.Generator:
    """The counter-based Philox stream of one seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def observability_ensemble(domain: Domain, x0, inclusion: StarInclusion | None,
                           a_values, seeds, *, T_factor: float = HORIZON_DIAMS,
                           with_source: bool = False
                           ) -> list[ObservabilityReport]:
    """Inequality reports over random smooth data, contrast-major then seed.

    Every member runs at ``T = T_factor diam``; a horizon at or below the
    floor ``2 C(x0) a^-2`` gives an uncertified report, not an error.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    reports = []
    for a in a_values:
        speed = build_speed_field(inclusion, a, domain)
        T = T_factor * domain.diam
        for seed in seeds:
            rng = rng_of(seed)
            u0 = smooth_h01_field(domain, rng)
            u1 = smooth_field(domain, rng)
            F = None
            if with_source:
                Ffield = smooth_field(domain, rng)
                F = (lambda t, Ff=Ffield: np.cos(2.0 * t) * Ff)
            reports.append(observability_ratio(speed, u0, u1, F, T, x0,
                                               require_time_bound=False))
    return reports
