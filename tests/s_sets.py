"""Test-only S-set helpers: classes from enumerated rows, and a second route."""

from atiyah import IndecomposableBundle, TorsionContext
from atiyah.bundles import component_indices


def s_set_members(rows):
    """The classes of the rows that ``s_set_enumerate`` returns, in row order."""
    return tuple(IndecomposableBundle(e, j) for j, exponents in rows for e in exponents)


def reference_s_sets(rank, torsion, bound):
    """S-sets up to the power bounds 1, ..., bound, by the set-based expansion
    that the range propagation replaced: every index of every power is
    expanded into the indices of the next."""
    ctx = TorsionContext(torsion)
    out = set()
    indices = {rank}
    for m in range(1, bound + 1):
        if m > 1:
            indices = {j for i in indices for j in component_indices(i, rank)}
        for e in {ctx.reduce_exponent(m), ctx.reduce_exponent(-m)}:
            out.update(ctx.bundle(e, j) for j in indices)
        yield out
