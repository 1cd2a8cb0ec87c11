"""Reference expansions shared by the test modules.

`_signed_cycle_decompositions` lists every permutation of n slots with its
sign and cycles, so a test can evaluate an antisymmetrized trace as the
plain n!-term permutation sum and hold the trace recursion against it.
"""

from functools import lru_cache
from itertools import permutations

from loopcat.diagrams import perm_sign


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
