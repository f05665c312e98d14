"""Shared helpers for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np

from siolab import measure
from siolab.kernels import KernelMatrix


def random_measure(rng, n, dimension=1, low=0.0, high=1.0, atomic=False):
    pts = rng.uniform(low, high, (n, dimension))
    w = rng.uniform(0.5, 1.5, n) / n
    return measure.from_points(pts, w, atomic=atomic)


def random_measure_pair(seed, max_points=12, dimension=1):
    """Two measures with distinct random supports (no common points)."""
    rng = np.random.default_rng(seed)
    n_mu = int(rng.integers(2, max_points + 1))
    n_nu = int(rng.integers(2, max_points + 1))
    mu = random_measure(rng, n_mu, dimension)
    nu = random_measure(rng, n_nu, dimension)
    return mu, nu


def random_kernel_matrix(rng, mu, nu, value_dim=1, scale=1.0):
    """A bounded random kernel sampled on the support pair."""
    shape = (len(nu), len(mu)) if value_dim == 1 else (len(nu), len(mu), value_dim)
    entries = rng.uniform(-scale, scale, shape)
    return KernelMatrix(entries, mu, nu, value_dim, None)


def traced_peak_rise(call):
    """(call(), peak bytes allocated during the call above those live before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
