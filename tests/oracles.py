"""Reference expansions shared by the test modules.

`_signed_cycle_decompositions` lists every permutation of n slots with its
sign and cycles, so a test can evaluate an antisymmetrized trace as the
plain n!-term permutation sum and hold the trace recursion against it.
`dense_validate` checks the Frobenius axioms from basis-vector products
on every associativity triple, the reference for `frobenius.validate`.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from loopcat.diagrams import perm_sign
from loopcat.frobenius import (
    NondegeneracyFailure,
    NotAssociative,
    NotCommutative,
    NotUnital,
)
from loopcat.linalg import det


@lru_cache(maxsize=None)
def _signed_cycle_decompositions(n: int):
    """All permutations of n slots as (sign, cycles), cycles in traversal
    order starting from each orbit's least slot."""
    out = []
    for sigma in permutations(range(n)):
        seen = [False] * n
        cycles = []
        for i in range(n):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = sigma[j]
            cycles.append(tuple(cyc))
        out.append((perm_sign(sigma), tuple(cycles)))
    return tuple(out)


def dense_validate(fa) -> None:
    """Check each axiom, raising the matching error for the first failure."""
    n = fa.dim
    basis = [tuple(Fraction(i == k) for i in range(n)) for k in range(n)]
    for i in range(n):
        if fa.multiply(fa.unit, basis[i]) != basis[i]:
            raise NotUnital(f"unit * e_{i} != e_{i}")
        if fa.multiply(basis[i], fa.unit) != basis[i]:
            raise NotUnital(f"e_{i} * unit != e_{i}")
    for i in range(n):
        for j in range(i + 1, n):
            if fa.structure[i][j] != fa.structure[j][i]:
                raise NotCommutative(f"e_{i} e_{j} != e_{j} e_{i}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = fa.multiply(fa.multiply(basis[i], basis[j]), basis[k])
                rhs = fa.multiply(basis[i], fa.multiply(basis[j], basis[k]))
                if lhs != rhs:
                    raise NotAssociative(f"(e_{i} e_{j}) e_{k} differs")
    if det(fa.gram()) == 0:
        raise NondegeneracyFailure("the pairing eps(ab) is singular")
