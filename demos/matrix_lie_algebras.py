#!/usr/bin/env python3
"""Lie algebras of matrix supergroups, from the linearised equations.

A group element infinitesimally close to the identity is I + eps X with
eps an even square-zero parameter; the defining equations of the group,
expanded to first order, carve out the constraints on X: str X = 0 for
SL and X^st Phi + Phi X = 0 for OSp.
"""

from supergeom import MatrixGroupSpec, Parity, lie_algebra

for spec in (
    MatrixGroupSpec.GL(2, 1),
    MatrixGroupSpec.SL(1, 1),
    MatrixGroupSpec.SL(2, 2),
    MatrixGroupSpec.OSp(1, 2),
    MatrixGroupSpec.OSp(2, 2),
):
    res = lie_algebra(spec)
    print(f"{res.kind}({res.dims.even}|{res.dims.odd}):")
    if not res.constraints:
        print("  no constraints")
    for c in res.constraints:
        print(f"  {c} = 0")
    n_even = sum(1 for c in res.constraints if c.has_parity(Parity.EVEN))
    total_even = res.dims.even**2 + res.dims.odd**2
    total_odd = 2 * res.dims.even * res.dims.odd
    n_odd = len(res.constraints) - n_even
    print(f"  dim {total_even - n_even}|{total_odd - n_odd}")
    print()
