#!/usr/bin/env python3
"""Condition survey across the generator/analyzer catalog.

Prints, for each pair, the polynomial-reproduction order of the generator,
the compatibility order of the pair, and the radius of the spectral box on
which the pair reproduces band-limited signals exactly.
"""

from quasiproj.analyzers import make_analyzer
from quasiproj.conditions import (strang_fix_order, strict_compat_radius,
                                  weak_compat_order)
from quasiproj.generators import make_generator

GENERATORS = [
    ("sinc", "TensorSincPower", {"n": 1, "a": 1.0}),
    ("sinc^3(x/4)", "TensorSincPower", {"n": 3, "a": 4.0}),
    ("sinc^2", "TensorSincPower", {"n": 2, "a": 1.0}),
    ("spline-2", "BSplineTensor", {"n": 2}),
    ("spline-3", "BSplineTensor", {"n": 3}),
    ("spline-8", "BSplineTensor", {"n": 8}),
    ("riesz(2,1)", "BochnerRiesz", {"s": 2.0, "gamma": 1.0}),
    ("rational", "RationalBandlimited", {}),
]

ANALYZERS = [
    ("point", "Dirac", {}),
    ("average", "BoxAverage", {}),
]


def main():
    header = f"{'generator':<14} {'analyzer':<9} {'repro':>5} {'compat':>6} {'radius':>7}"
    print(header)
    print("-" * len(header))
    for gname, gkind, gparams in GENERATORS:
        g = make_generator(gkind, gparams, 1)
        sf = strang_fix_order(g)
        for aname, akind, akw in ANALYZERS:
            a = make_analyzer(akind, 1, **akw)
            wc = weak_compat_order(g, a)
            delta = strict_compat_radius(g, a)
            print(f"{gname:<14} {aname:<9} {sf:>5} {wc:>6} {delta:>7g}")


if __name__ == "__main__":
    main()
