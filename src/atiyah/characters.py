"""Laurent-character oracle for bundle arithmetic, multiplied by Kronecker
substitution.

A second, independent route to tensor decompositions: send L^e ⊗ F_r to the
bivariate Laurent monomial-times-bracket

    t^e · [r]_q,     [r]_q = q^{r-1} + q^{r-3} + ... + q^{-(r-1)},

multiply characters as Laurent polynomials (t-exponents reduced modulo the
torsion order), and read the decomposition off linearly: characters are
q-symmetric and t^e·[w+1]_q is the only bracket term with top monomial
t^e q^w, so mult(L^e ⊗ F_{w+1}) = c(e, w) − c(e, w+2).  Because the bracket
product follows the Clebsch-Gordan rule, this reproduces the bundle tensor
product without ever invoking it, so agreement between the two routes is a
genuine cross-check.

Both the product and the powers multiply Laurent polynomials by Kronecker
substitution (Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 2009): coefficients go into
fixed-width slots of one Python integer (:func:`_pack`), big-integer
arithmetic does the convolution, and :func:`_unpack` reads the slots back.
``BivariateCharacter.__mul__`` packs each run of nearby q-exponents of a
t-row separately, so it costs one integer product per pair of runs and never
allocates slots for the gaps between them.  One pass over the sorted
monomials of an operand finds its runs and the parities of its q-exponents,
and when each operand is one run the slots of the one product are the
result.  It packs coefficients, not brackets, and knows nothing of the
Clebsch-Gordan rule, which keeps the oracle independent of the formula it
checks.  :func:`decompose_character` checks q-symmetry, gaps and descents in
the same single pass that reads the multiplicities off.  Characters are only
multiplied, so ``BivariateCharacter`` has no sum, scaling or printed form.

:func:`character_power` takes tensor powers by the J.C.P. Miller recurrence
in q over t-rows packed the same way, one small-by-big product per monomial of
the base and one exact division per row; ``KRingElement.__pow__`` keeps the
Clebsch-Gordan route, and ``BundleSum.tensor_power`` chooses by cost on the
sizes of :func:`_recurrence_plan`.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Mapping, Sequence

from .bundles import MAX_LOOP_WORDS, BundleSum, ContextMismatchError, IndecomposableBundle
from .bundles import TorsionContext, _key, _spread, tensor_indec


# struct/memoryview format of each slot width that one C call packs or reads
# as a whole (upper case unsigned, lower case signed).  Both use native sizes
# and byte order, so a big-endian machine packs and reads every width slot by
# slot.
_FORMATS = {struct.calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def _slot_width(bits: int) -> int:
    """Bytes per slot for values of ``bits`` bits: the smallest width in
    :data:`_FORMATS` that holds them, else the fewest whole bytes."""
    for width in (1, 2, 4, 8):
        if 8 * width >= bits and width in _FORMATS:
            return width
    return max(1, -(-bits // 8))


def _bias(count: int, width: int) -> int:
    """2^(8·width−1) in each of ``count`` slots: the top bit of every slot."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(values: list[int], width: int, signed: bool = False) -> int:
    """Sum of values[i]·2^(8·width·i): the values in slots of ``width`` bytes.

    Each value must fit its slot (two's complement if ``signed``).  Flipping
    the top bit of every signed slot turns its bytes into value +
    2^(8·width−1), which is non-negative, and the bias is then subtracted.
    """
    if width == 1 and not signed:
        return int.from_bytes(bytes(values), "little")
    fmt = _FORMATS.get(width)
    if fmt:
        data = struct.pack(f"{len(values)}{fmt.lower() if signed else fmt}", *values)
    else:
        data = b"".join(c.to_bytes(width, "little", signed=signed) for c in values)
    v = int.from_bytes(data, "little")
    if signed:
        bias = _bias(len(values), width)
        v = (v ^ bias) - bias
    return v


def _unpack(v: int, count: int, width: int, signed: bool = False) -> Sequence[int]:
    """The ``count`` slot values of a packed integer, lowest slot first.

    Every slot value must fit ``width`` bytes (signed: below 2^(8·width−1) in
    absolute value).  Signed values are biased by 2^(8·width−1) first, which
    makes every slot non-negative, so no slot borrows from the next; flipping
    the top bit of each slot then leaves two's complement bytes.  Widths that
    one cast reads come back as a view of the bytes, which makes each value
    only when it is read.
    """
    if signed:
        bias = _bias(count, width)
        v = (v + bias) ^ bias
    data = v.to_bytes(count * width, "little")
    if width == 1 and not signed:
        return data  # a bytes object is a sequence of one-byte slot values
    fmt = _FORMATS.get(width)
    if fmt:
        return memoryview(data).cast(fmt.lower() if signed else fmt)
    return [
        int.from_bytes(data[at:at + width], "little", signed=signed)
        for at in range(0, count * width, width)
    ]


_q_exponent = itemgetter(1)


def _runs(
    coeffs: Mapping[tuple[int, int], int], width: int, signed: bool
) -> tuple[int, list[tuple[int, int, list[int], int]]]:
    """One pass over the sorted monomials of a Laurent polynomial: (parity
    mask, runs).

    The mask has bit q & 1 set for every q-exponent q.  A run (t, lowest q,
    slots, packed) is a stretch of one t-row whose consecutive q-exponents
    are at most 2 apart.  Its slots hold the coefficients from the lowest
    q-exponent to the highest, one per q-exponent, or one per other
    q-exponent when the mask has one bit, with 0 where no monomial is; so a
    run has at most twice as many slots as monomials.  ``packed`` is
    :func:`_pack` of the slots.  A single t-row holding every other
    q-exponent from its lowest to its highest is found without a loop in
    Python.
    """
    keys = sorted(coeffs)
    (t_run, lo), (t_end, hi) = keys[0], keys[-1]
    n = len(keys)  # below 3, n distinct q from lo to lo + 2n - 2 are every other one
    if (t_run == t_end and hi - lo == 2 * n - 2
            and (n < 3 or list(map(_q_exponent, keys)) == list(range(lo, hi + 1, 2)))):
        slots = list(map(coeffs.__getitem__, keys))
        return 1 << (lo & 1), [(t_run, lo, slots, _pack(slots, width, signed))]
    mask, runs, slots, prev = 0, [], [], lo
    for key in keys:
        t, q = key
        mask |= 1 << (q & 1)
        if t != t_run or q - prev > 2:
            runs.append((t_run, lo, slots))
            t_run, lo, slots = t, q, []
        elif q - prev == 2:
            slots.append(0)
        slots.append(coeffs[key])
        prev = q
    runs.append((t_run, lo, slots))
    if mask != 3:  # one parity: every other slot is a gap
        runs = [(t, lo, s[::2]) for t, lo, s in runs]
    return mask, [(t, lo, s, _pack(s, width, signed)) for t, lo, s in runs]


def _every_q(runs: list, width: int, signed: bool) -> list[tuple[int, int, list[int], int]]:
    """Runs of :func:`_runs` that have a slot per other q-exponent, repacked
    with a slot per q-exponent: a 0 between every two slots."""
    spread = []
    for t, lo, slots, _ in runs:
        every = [0] * (2 * len(slots) - 1)
        every[::2] = slots
        spread.append((t, lo, every, _pack(every, width, signed)))
    return spread


class NotACharacterError(ValueError):
    """Raised when a Laurent polynomial is not a character of any bundle sum."""


class PowerTooLargeError(ValueError):
    """Raised by :func:`character_power`, before any arithmetic, for a tensor
    power that would take more than ``MAX_LOOP_WORDS`` word operations."""


@dataclass(frozen=True)
class BivariateCharacter:
    """Sparse Laurent polynomial in t (line variable) and q (weight variable).

    Keys are (t_exponent, q_exponent) pairs with the t-exponent canonical in
    the context; values are nonzero integers.  Treat instances as immutable.
    """

    context: TorsionContext
    coeffs: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def of(
        cls, context: TorsionContext, coeffs: Mapping[tuple[int, int], int]
    ) -> BivariateCharacter:
        acc: dict[tuple[int, int], int] = {}
        for (t, q), c in coeffs.items():
            if c == 0:
                continue
            key = (context.reduce_exponent(t), q)
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            else:
                del acc[key]
        return cls(context, acc)

    @classmethod
    def zero(cls, context: TorsionContext) -> BivariateCharacter:
        return cls(context, {})

    def __mul__(self, other):
        """Laurent product of two characters over one torsion context, with
        t-exponents reduced; ``ContextMismatchError`` for two contexts.  Only
        characters multiply, so a number operand raises ``TypeError``.

        The product is computed by Kronecker substitution.  One pass over the
        sorted monomials of each operand (:func:`_runs`) cuts it into runs of
        one t-row whose q-exponents lie at most 2 apart, notes the parities
        of its q-exponents and packs each run into one integer, with a slot
        per other q-exponent when they have one parity.  If the other
        operand has both parities, such runs are repacked with a slot per
        q-exponent (:func:`_every_q`).  Each pair of runs costs one integer
        product, whose slots are the coefficients of that t-row of the
        product.  No product coefficient exceeds min(‖a‖₁·‖b‖∞, ‖a‖∞·‖b‖₁)
        in absolute value, so slots of that many bits, plus a sign bit when a
        coefficient is negative, never carry.  When each operand is one run,
        as every bracket is, the slots of the one product are the result;
        otherwise pairs that land in one t-row add up slot by slot.  The
        cost is one big-integer product per pair of runs plus work linear in
        the monomials, so a bracket product [r]·[s] costs O(r + s)
        interpreter steps, not r·s, and gaps between far-apart exponents cost
        nothing.

        The product treats its operands as arbitrary Laurent polynomials: it
        never looks for brackets and never applies the Clebsch-Gordan rule,
        so :func:`oracle_check` compares two independent computations.
        """
        if not isinstance(other, BivariateCharacter):
            return NotImplemented
        if self.context is not other.context and self.context != other.context:
            raise ContextMismatchError(
                f"cannot combine characters over {self.context} and {other.context}"
            )
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return BivariateCharacter.zero(self.context)
        va, vb = a.values(), b.values()
        signed = min(va) < 0 or min(vb) < 0
        if signed:
            va, vb = list(map(abs, va)), list(map(abs, vb))
        bound = min(sum(va) * max(vb), max(va) * sum(vb))
        width = _slot_width(bound.bit_length() + signed)
        mask_a, runs_a = _runs(a, width, signed)
        mask_b, runs_b = _runs(b, width, signed)
        step = 2
        if mask_a == 3 or mask_b == 3:
            step = 1
            if mask_a != 3:
                runs_a = _every_q(runs_a, width, signed)
            if mask_b != 3:
                runs_b = _every_q(runs_b, width, signed)
        reduce = self.context.reduce_exponent
        if len(runs_a) == 1 == len(runs_b):
            (ta, qa, sa, pa), = runs_a
            (tb, qb, sb, pb), = runs_b
            t, q, count = reduce(ta + tb), qa + qb, len(sa) + len(sb) - 1
            slots = _unpack(pa * pb, count, width, signed)
            return BivariateCharacter(
                self.context,
                {(t, q): c for q, c in zip(range(q, q + step * count, step), slots) if c},
            )
        acc: dict[tuple[int, int], int] = {}
        for ta, qa, sa, pa in runs_a:
            for tb, qb, sb, pb in runs_b:
                t = reduce(ta + tb)
                q = qa + qb
                for c in _unpack(pa * pb, len(sa) + len(sb) - 1, width, signed):
                    if c:
                        key = (t, q)
                        v = acc.get(key, 0) + c
                        if v:
                            acc[key] = v
                        else:
                            del acc[key]
                    q += step
        return BivariateCharacter(self.context, acc)

    def is_q_symmetric(self) -> bool:
        """Characters of bundle sums are invariant under q -> q^{-1}."""
        return all(self.coeffs.get((t, -q)) == c for (t, q), c in self.coeffs.items())


def character(x: BundleSum) -> BivariateCharacter:
    """Character of a bundle sum: additive, and multiplicative under tensor."""
    if len(x.terms) == 1:
        ((r, e), m), = x.terms.items()
        monomials = zip(repeat(e), range(r - 1, -r, -2))
        return BivariateCharacter(x.context, dict.fromkeys(monomials, m))
    acc: dict[tuple[int, int], int] = {}
    for (r, e), m in x.terms.items():
        for q in range(r - 1, -r, -2):
            key = (e, q)
            acc[key] = acc.get(key, 0) + m
    return BivariateCharacter(x.context, acc)


_ASYMMETRIC = "not a character: not invariant under q -> 1/q"


def _rejection(c: BivariateCharacter, reason: str) -> NotACharacterError:
    """The error for a gap or a descent of the read-off at ``reason``; an
    input that is also not q-symmetric is rejected for that, as the
    asymmetry may lie in monomials the pass has not yet reached."""
    if not c.is_q_symmetric():
        return NotACharacterError(_ASYMMETRIC)
    return NotACharacterError(f"not a character: {reason}")


def decompose_character(c: BivariateCharacter) -> BundleSum:
    """Invert :func:`character` by the linear read-off from the q >= 0
    coefficients, mult(L^e ⊗ F_{w+1}) = c(e, w) − c(e, w+2).

    Raises :class:`NotACharacterError` when the input is not a non-negative
    combination of bracket characters: it is not invariant under q -> q^{-1},
    or some difference c(e, w) − c(e, w+2) is negative, which includes a gap:
    c(e, w−2) = 0 below a nonzero c(e, w) with w >= 2.  One pass over the
    monomials makes all three checks: each q > 0 must meet its mirror, and
    the monomials with q >= 0, those with q > 0 counted twice, must be all
    of them.
    """
    coeffs = c.coeffs
    terms: dict[IndecomposableBundle, int] = {}
    mirrored = 0
    for (t, q), k in coeffs.items():
        if q < 0:
            continue
        if q:
            if coeffs.get((t, -q)) != k:
                raise NotACharacterError(_ASYMMETRIC)
            mirrored += 2
        else:
            mirrored += 1
        if not k:
            continue
        if q >= 2 and not coeffs.get((t, q - 2)):
            raise _rejection(c, f"gap below t^{t} q^{q}")
        above = coeffs.get((t, q + 2), 0)
        m = k - above
        if m < 0:
            raise _rejection(
                c, f"coefficient {k} at t^{t} q^{q} is below {above} at q^{q + 2}"
            )
        if m:
            terms[_key(IndecomposableBundle, (q + 1, t))] = m
    if mirrored != len(coeffs):
        raise NotACharacterError(_ASYMMETRIC)
    return BundleSum(c.context, terms)


def _recurrence_plan(
    x: BundleSum, power: int
) -> tuple[int, int, tuple[int, ...], int, int]:
    """(Upper estimate of the word operations, slot width in bytes,
    ``_spread(x)``, q-rows, t-slots per row) of the recurrence for x^power:
    each of the power·(2·top // step) // 2 + 1 q-steps up to the middle row
    multiplies every monomial of the base outside the lowest q-row by an
    earlier row of power·span + 1 slots of at least a word, and divides by
    that row.  That bounds the rest of the work.  ``BundleSum.tensor_power``
    plans with it and hands it to :func:`_recurrence_power`, so nothing is
    computed twice."""
    spread = t_lo, span, _, top, step = _spread(x)
    rows, slots = power * (2 * top // step) // 2 + 1, power * span + 1
    rank = x.rank()
    if rank > 1 and power >> 6 > MAX_LOOP_WORDS:
        return power >> 6, 0, spread, rows, slots  # every slot holds rank^power >= 2^power
    # rank^power has floor(power·log2 rank) + 1 bits; one more absorbs rounding.
    width = _slot_width(int(power * math.log2(rank)) + 2) if rank > 1 else 1
    per_slot = (width + 7) // 8
    lowest = [x.context.reduce_exponent(b.exponent - t_lo) for b in x.terms if b.index == top + 1]
    divisor = (max(lowest) - min(lowest)) * per_slot + 1
    monomials = sum(b.index for b in x.terms) - len(lowest)
    return rows * (monomials + divisor) * slots * per_slot, width, spread, rows, slots


def _miller(terms: list, a0: int, c0: int, power: int, count: int) -> list[int]:
    """c_0, ..., c_{count−1} of P^power for P = a0 + Σ (a << shift)·y^j over
    ``terms`` (j, a, shift), j >= 1, given c_0 = a0^power, by the J.C.P. Miller
    recurrence k·a0·c_k = Σ_j ((power + 1)·j − k)·a_j·c_{k−j} (Knuth, TAOCP
    vol. 2, §4.7; Zeilberger, J. Difference Eq. Appl. 1995).  Coefficients may
    be polynomials packed at a power of two: evaluation is a ring homomorphism,
    so every division is exact.  A one-monomial a0 divides as a small integer
    once its trailing zero bits are shifted off.  It beats ``pow`` for A_0^m
    in t, whose squarings all run at the full slot width."""
    zeros = (a0 & -a0).bit_length() - 1
    a0 >>= zeros
    c = [c0]
    for k in range(1, count):
        s = 0
        for j, a, shift in terms:
            if j <= k:
                s += ((power + 1) * j - k) * a * c[k - j] << shift
        c.append((s >> zeros) // (k * a0))
    return c


def _fold(v: int, bits: int, period: int) -> int:
    """A packed polynomial of ``bits`` bits modulo t^n − 1, ``period`` = n slots,
    by folds modulo t^L − 1 for L = 2^i·n down to n, which carry no slot."""
    size = period
    while 2 * size < bits:
        size *= 2
    while size >= period:
        v = (v & ((1 << size) - 1)) + (v >> size)
        size //= 2
    return v


def character_power(x: BundleSum, power: int) -> dict[IndecomposableBundle, int]:
    """Decomposition of x^power, for a nonzero bundle sum x and power >= 1.

    The character of x is t^lo·q^(−top)·Σ_j A_j(t)·q^(step·j), line exponents
    lifted to the window of least span, q halved if all have one parity.  Each
    A_j is packed at t = 2^(8·width).  :func:`_miller` gives A_0^power in t,
    whose coefficients sum to at most rank^power, so each fits its slot; then
    the rows of the power in q up to the middle, the q >= 0 half by
    q-symmetry.  Over L of order n the rows are folded modulo t^n − 1 only
    then (reduction is a ring homomorphism); each multiplicity of
    :func:`decompose_character` is then a difference of two slots.

    Raises :class:`PowerTooLargeError`, before the character is built, when
    :func:`_recurrence_plan` estimates more than ``MAX_LOOP_WORDS`` word
    operations.
    """
    return _recurrence_power(x, power, _recurrence_plan(x, power))


def _recurrence_power(
    x: BundleSum, power: int, plan: tuple[int, int, tuple[int, ...], int, int]
) -> dict[IndecomposableBundle, int]:
    """:func:`character_power` for the ``plan`` that :func:`_recurrence_plan`
    made for x and power: its slot width, spread, q-rows and t-slots."""
    words, width, (t_lo, _, _, top, step), count, slots = plan
    if words > MAX_LOOP_WORDS:
        raise PowerTooLargeError(
            f"tensor power {power} is too large: it would take more than "
            f"{MAX_LOOP_WORDS} word operations"
        )
    reduce, bits = x.context.reduce_exponent, 8 * width
    lowest: dict[int, int] = {}  # A_0, by lifted line exponent
    terms = []  # (j, coefficient, shift) of every monomial of A_j, j >= 1
    for (t, q), k in character(x).coeffs.items():
        j, e = (q + top) // step, reduce(t - t_lo)
        if j:
            terms.append((j, k, e * bits))
        else:
            lowest[e] = k
    lo = min(lowest)
    a = [lowest.get(e, 0) for e in range(lo, max(lowest) + 1)]
    in_t = [(j, k, 0) for j, k in enumerate(a) if j and k]
    c0 = _pack(_miller(in_t, a[0], a[0] ** power, power, power * (len(a) - 1) + 1), width)
    rows = _miller(terms, _pack(a, width) << lo * bits, c0 << power * lo * bits, power, count)
    n = x.context.order
    if n and slots > n:
        rows = [_fold(row, slots * bits, n * bits) for row in rows]
        slots = n
    # All rows in one integer, so that one call reads every slot.  Row k
    # holds q = power·top − step·k, and q + 2 is the row 2 // step before it.
    data = b"".join(row.to_bytes(slots * width, "little") for row in rows)
    values = _unpack(int.from_bytes(data, "little"), len(rows) * slots, width)
    above = 2 // step * slots
    result = {}
    for i, c in enumerate(values):
        if i >= above:
            c -= values[i - above]
        if c:
            k, e = divmod(i, slots)
            result[IndecomposableBundle(reduce(power * t_lo + e), power * top - step * k + 1)] = c
    return result


@dataclass(frozen=True)
class OracleCheck:
    """Outcome of comparing the tensor rule against the character oracle."""

    agrees: bool
    from_formula: BundleSum
    from_character: BundleSum

    def __bool__(self) -> bool:
        return self.agrees


def oracle_check(
    context: TorsionContext, a: IndecomposableBundle, b: IndecomposableBundle
) -> OracleCheck:
    """Decompose a ⊗ b along both routes and compare the multisets."""
    (r, ea), (s, eb) = a, b
    a, b = context.bundle(ea, r), context.bundle(eb, s)
    formula = tensor_indec(context, a, b)
    product = character(BundleSum(context, {a: 1})) * character(BundleSum(context, {b: 1}))
    peeled = decompose_character(product)
    return OracleCheck(formula == peeled, formula, peeled)
