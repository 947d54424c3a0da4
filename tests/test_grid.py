import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import paikit as pk
from paikit.grid import stepping_form
from paikit.initial_data import diffusion_system


@functools.cache
def _rectangle(dim, n):
    return pk.Domain.rectangle((0.0,) * dim, (1.0,) * dim, n)


def _mixed_signs(rng, size):
    # wide magnitudes of both signs, and exact zeros, so that every order of
    # summation the two formats could differ in shows in the bits
    x = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 8, size)
    x[rng.random(size) < 0.1] = 0.0
    return x


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
       n=st.integers(4, 12))
def test_rectangle_stepping_form_matches_csr(seed, dim, n):
    disc = _rectangle(dim, n).disc
    rng = np.random.default_rng(seed)
    for step, csr in ((disc.K_step, disc.K), (disc.K_ii_step, disc.K_ii)):
        assert isinstance(step, sp.dia_matrix)
        assert step.offsets.size == 2 * dim + 1
        x = _mixed_signs(rng, csr.shape[1])
        assert np.array_equal(step @ x, csr @ x)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
       n=st.integers(4, 12))
def test_diffusion_stepping_form_matches_csr(seed, dim, n):
    disc = _rectangle(dim, n).disc
    rng = np.random.default_rng(seed)
    chi = rng.random(disc.n_nodes) * (rng.random(disc.n_nodes) < 0.5)
    A, _, act = diffusion_system(pk.OpticalCoefficients(), chi, disc)
    assert isinstance(A, sp.dia_matrix) and act.size == disc.n_nodes
    x = _mixed_signs(rng, act.size)
    assert np.array_equal(A @ x, A.tocsr() @ x)


@pytest.mark.parametrize("dim, n", [(2, 48), (3, 16)])
def test_masked_domains_keep_csr(dim, n):
    dom = pk.Domain.disk((0.0,) * dim, 1.0, n)
    disc = dom.disc
    assert disc.K_ii_step is disc.K_ii
    chi = np.zeros(disc.n_nodes)
    A, _, _ = diffusion_system(pk.OpticalCoefficients(), chi, disc)
    assert isinstance(A, sp.csr_matrix)


def test_stepping_form_keeps_operators_csr():
    disc = _rectangle(2, 8).disc
    assert isinstance(disc.K_step, sp.dia_matrix)
    for name in ("K", "K_ii", "K_ib"):
        assert isinstance(getattr(disc, name), sp.csr_matrix)


def test_unsorted_banded_matrix_rejected():
    A = sp.diags([np.ones(5), 2.0 * np.ones(6)], [-1, 0]).tocsr()
    A.indices[[1, 2]] = A.indices[[2, 1]]
    A.data[[1, 2]] = A.data[[2, 1]]
    A.has_sorted_indices = False
    with pytest.raises(ValueError, match="sorted"):
        stepping_form(A, 1)


@pytest.mark.parametrize("domain, axis_nodes", [
    (pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 128), [129, 65, 33, 17, 9]),
    (pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 101), [102, 52, 27, 14, 8]),
    (pk.Domain.rectangle((0.0,) * 3, (1.0,) * 3, 16), [17, 9]),
    (pk.Domain.rectangle((0.0, 0.0), (1.0, 1.0), 8), [9]),
    (pk.Domain.disk((0.5, 0.5), 0.5, 64), [65, 33, 17, 9]),
])
def test_prolongations_coarsen_to_the_coarsest_level(domain, axis_nodes):
    disc = domain.disc
    chain = disc.prolongations
    assert len(chain) == len(axis_nodes) - 1
    rows = int(disc.active_mask.sum())
    for P, m in zip(chain, axis_nodes[1:]):
        assert P.shape[0] == rows
        # linear interpolation keeps constants, and every coarse node is used
        assert np.array_equal(P @ np.ones(P.shape[1]), np.ones(rows))
        assert np.diff(P.tocsc().indptr).min() > 0
        rows = P.shape[1]
        if domain.shape == "rectangle":
            assert rows == m ** domain.dimension
        else:
            assert rows < m ** domain.dimension
