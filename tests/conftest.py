import os

# one BLAS thread, set before numpy loads: the solvers run many small dot
# products, which a second BLAS thread slows down on a busy host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import paikit as pk  # noqa: E402


@pytest.fixture(scope="session")
def unit_square_32():
    return pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 32)


@pytest.fixture(scope="session")
def unit_square_48():
    return pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 48)


@pytest.fixture(scope="session")
def disk_inclusion():
    return pk.StarInclusion((0.45, 0.55), 0.22)


@pytest.fixture(scope="session")
def optics():
    return pk.OpticalCoefficients()


def eigenmode(domain, kx=1, ky=1):
    """First Dirichlet eigenpair of the unit square."""
    pts = domain.grid.coords
    u = np.sin(np.pi * kx * pts[:, 0]) * np.sin(np.pi * ky * pts[:, 1])
    lam = np.pi * np.sqrt(float(kx**2 + ky**2))
    return u, lam


def weighted_l2(domain, u):
    return float(np.sqrt((domain.disc.w_vol * u * u).sum()))


def read_only(a):
    """A float copy of ``a`` that raises on any write."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def diffusion_pressure(model, a, domain):
    """Initial pressure of an inclusion straight from one diffusion solve."""
    def pressure(incl):
        return pk.solve_diffusion(model, pk.build_speed_field(incl, a, domain), domain)[0]
    return pressure
