"""Test-only helpers: a reference integrator and a translated test signal."""

import numpy as np

from quasiproj.functions import TestFunction
from quasiproj.quadrature import converge, gauss_nodes_box


def integrate_box(func, box, tol=1e-10, start_order=16, max_order=1024):
    """Adaptive tensor Gauss-Legendre integral of `func` over a box.

    `func` takes points of shape (n, d) and returns shape (n,).
    """

    def at(order):
        nodes, weights = gauss_nodes_box(box, order)
        return np.dot(func(nodes), weights)

    return converge(at, start_order, max_order, tol, "box integral")


def translate(f: TestFunction, shift) -> TestFunction:
    """f(. - a); the profile picks up the phase exp(-2 pi i a.xi)."""
    a = np.atleast_1d(np.asarray(shift, dtype=float))

    def spatial(pts):
        return f.spatial(pts - a)

    fourier = None
    if f.fourier is not None:
        def fourier(pts):
            phase = np.exp(-2j * np.pi * (pts @ a))
            return phase * np.asarray(f.fourier(pts), dtype=complex)

    return TestFunction(name=f"{f.name}_shift", dim=f.dim, spatial=spatial,
                        fourier=fourier, fourier_support=f.fourier_support)
