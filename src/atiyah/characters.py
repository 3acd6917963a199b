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

``oracle_check``, ``verify`` and powers all multiply Laurent polynomials by
Kronecker substitution (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 2009): coefficients
go into fixed-width slots of one Python integer, big-integer arithmetic does
the convolution, and :func:`_unpack` reads the slots back.  A product of two
classes is one pair product: each bracket is packed as a row of ones
(:func:`_ones`), and the integer product of the two rows is the t-row of
[r]_q·[s]_q from its lowest q-exponent up, one block of r + s − 1 slots.  One
block test reads it (:func:`_read_block`): the block is a palindrome
(q-symmetric) with no zero slot, and each multiplicity, c(e, w) − c(e, w+2),
is a slot minus the one before it.  :func:`oracle_check` makes the pair
product of its pair and refuses one of more than ``bundles.MAX_LOOP_WORDS``
slots.  ``verify`` (:func:`_verify_pairs`) packs each bracket up to
``--rmax`` once and makes the pair product of every pair; it refuses an rmax
whose formula side would write more than ``bundles.MAX_LOOP_WORDS`` terms.
Neither packing nor block test knows the Clebsch-Gordan rule, which keeps
the oracle independent of the formula it checks.  A block that fails the
test is handed to :func:`decompose_character`, which names the failure.

:func:`decompose_character`, the public inverse of :func:`character`, checks
q-symmetry over every monomial, then gaps and descents in the pass that
reads the multiplicities off.  ``BivariateCharacter.__mul__`` is the plain
double loop over monomial pairs, which no library route calls; it stays as
the public product that the tests hold the packed routes against.
:func:`oracle_check` is the O(r + s) route for a product of two classes.
Characters are only multiplied, so ``BivariateCharacter`` has no sum,
scaling or printed form.

:func:`character_power` takes tensor powers by the J.C.P. Miller recurrence
in q over t-rows packed the same way, one small-by-big product per monomial of
the base's :func:`character` and one exact division per row; it is the only
caller of :func:`character` in the library.  ``KRingElement.__pow__`` keeps
the Clebsch-Gordan route, and ``BundleSum.tensor_power`` chooses by the
interpreter steps that :func:`_recurrence_plan` counts for the recurrence
and ``bundles._loop_fits`` for repeated products.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Mapping, Sequence
from itertools import compress, repeat
from operator import itemgetter, sub

from .bundles import MAX_LOOP_WORDS, BundleSum, ContextMismatchError, IndecomposableBundle
from .bundles import _RECURRENCE_STEPS, TorsionContext, _key, _set, _spread, _Value, tensor_indec


# struct/memoryview format of each slot width that one C call packs or reads
# as a whole.  Both use native sizes and byte order, so a big-endian machine
# packs and reads every width slot by slot.
_FORMATS = {struct.calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def _slot_width(bits: int) -> int:
    """Bytes per slot for values of ``bits`` bits: the smallest width in
    :data:`_FORMATS` that holds them, else the fewest whole bytes."""
    for width in (1, 2, 4, 8):
        if 8 * width >= bits and width in _FORMATS:
            return width
    return max(1, -(-bits // 8))


def _pack(values: list[int], width: int) -> int:
    """Sum of values[i]·2^(8·width·i): the values, each non-negative and
    below 2^(8·width), in slots of ``width`` bytes."""
    if width == 1:
        return int.from_bytes(bytes(values), "little")
    fmt = _FORMATS.get(width)
    if fmt:
        data = struct.pack(f"{len(values)}{fmt}", *values)
    else:
        data = b"".join(c.to_bytes(width, "little") for c in values)
    return int.from_bytes(data, "little")


def _unpack(v: int, count: int, width: int) -> Sequence[int]:
    """The ``count`` slot values of a packed integer, lowest slot first.

    Every slot value must be non-negative and fit ``width`` bytes.  Widths
    that one cast reads come back as a view of the bytes, which makes each
    value only when it is read.  Other widths are split into slots by one
    ``struct.iter_unpack``, each slot read by its own ``int.from_bytes``.
    """
    data = v.to_bytes(count * width, "little")
    if width == 1:
        return data  # a bytes object is a sequence of one-byte slot values
    fmt = _FORMATS.get(width)
    if fmt:
        return memoryview(data).cast(fmt)
    slots = map(itemgetter(0), struct.iter_unpack(f"{width}s", data))
    return list(map(int.from_bytes, slots, repeat("little")))


def _differences(values: Sequence[int], above: int) -> list[tuple[int, int]]:
    """(i, values[i] − values[i − above]) for each slot i whose value and
    difference are nonzero, a slot below 0 reading as 0: the multiplicities
    c(e, w) − c(e, w + 2) of packed character coefficients, slot i − ``above``
    holding the coefficient one q-step further from 0.

    In every t-column, a folded one too, the coefficients of a character
    fall away from q = 0: c(e, q) − c(e, q + 2) is a multiplicity, so it is
    >= 0.  A zero slot therefore has a zero slot above it and reads off as
    no term, and only the nonzero slots are walked.
    """
    found = []
    for i in compress(range(len(values)), values):
        c = values[i]
        if i >= above:
            c -= values[i - above]
        if c:
            found.append((i, c))
    return found


def _ones(r: int, width: int) -> int:
    """[r]_q packed as a row of r ones in slots of ``width`` bytes, a slot per
    other q-exponent from the lowest up."""
    return int.from_bytes((1).to_bytes(width, "little") * r, "little")


def _read_block(block: Sequence[int]) -> dict[int, int] | None:
    """{r: multiplicity of F_r} read off ``block``, the slots of a character's
    t-row from its lowest q-exponent up, every other one; None if they are no
    character's row.  The block test: the slots are a palindrome
    (q-symmetric) with no zero (a character has none inside its span), and
    no difference of the lower half, a slot minus the one before it (0 before
    the first), is negative.  Slot j of n reads off as F_(n − 2·j), its
    difference the multiplicity where that is nonzero; a block with no such
    term is rejected.  The test and the read-off are C-level calls over the
    block (slices, ``map`` and ``compress``), with no interpreter step per
    slot.
    """
    if block != block[::-1] or 0 in block:
        return None
    n = len(block)
    half = (n + 1) // 2
    steps = list(map(sub, block[:half], (0, *block[:half - 1])))
    read = dict(compress(zip(range(n, 0, -2), steps), steps))
    return read if read and min(steps) >= 0 else None


class NotACharacterError(ValueError):
    """Raised when a Laurent polynomial is not a character of any bundle sum."""


class PowerTooLargeError(ValueError):
    """Raised by :func:`character_power`, before any arithmetic, for a tensor
    power that would take more than ``MAX_LOOP_WORDS`` word operations."""


class BivariateCharacter(_Value):
    """Sparse Laurent polynomial in t (line variable) and q (weight variable).

    Keys are (t_exponent, q_exponent) pairs with the t-exponent canonical in
    the context; values are nonzero integers (none by default).  Treat
    ``coeffs`` as immutable.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context: TorsionContext, coeffs: dict[tuple[int, int], int] | None = None):
        _set(self, "context", context)
        _set(self, "coeffs", {} if coeffs is None else coeffs)

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

        The plain double loop over monomial pairs, O(n·m) for n and m
        monomials; it does not know the Clebsch-Gordan rule.  No library
        call multiplies characters: :func:`oracle_check` and ``verify`` read
        a product of two classes off one packed integer product, in O(r + s)
        interpreter steps for F_r ⊗ F_s, and that is the route to take for
        one.  Here ``character(F_200) * character(F_200)`` takes about 4.7 ms
        and F_2000 · F_1000 over L of order 4 about 265 ms (best of 5, one
        core of a shared Xeon, Python 3.11), where ``oracle_check`` of that
        pair, both of its routes included, takes about 0.8 ms.

        The product stays public for two reasons.  It shares no code with
        the packed routes, so it is the independent product that
        ``test_oracle_check_reads_off_what_the_double_loop_peels`` holds
        :func:`oracle_check` against; and perfbench's tracer wraps it by
        this name for its ``characters.product_*`` metrics.
        """
        if not isinstance(other, BivariateCharacter):
            return NotImplemented
        if self.context is not other.context and self.context != other.context:
            raise ContextMismatchError(
                f"cannot combine characters over {self.context} and {other.context}"
            )
        acc: dict[tuple[int, int], int] = {}
        for (ta, qa), ca in self.coeffs.items():
            for (tb, qb), cb in other.coeffs.items():
                key = (ta + tb, qa + qb)
                acc[key] = acc.get(key, 0) + ca * cb
        return BivariateCharacter.of(self.context, acc)

    def is_q_symmetric(self) -> bool:
        """Characters of bundle sums are invariant under q -> q^{-1}."""
        return all(self.coeffs.get((t, -q)) == c for (t, q), c in self.coeffs.items())


def character(x: BundleSum) -> BivariateCharacter:
    """Character of a bundle sum: additive, and multiplicative under tensor.

    One pass writes the r monomials t^e·q^(r−1), ..., t^e·q^(1−r) of each
    term L^e ⊗ F_r, times its multiplicity; the brackets of terms with one
    line exponent add where they meet.
    """
    acc: dict[tuple[int, int], int] = {}
    for (r, e), m in x.terms.items():
        for q in range(r - 1, -r, -2):
            key = (e, q)
            acc[key] = acc.get(key, 0) + m
    return BivariateCharacter(x.context, acc)


def decompose_character(c: BivariateCharacter) -> BundleSum:
    """Invert :func:`character` by the linear read-off from the q >= 0
    coefficients, mult(L^e ⊗ F_{w+1}) = c(e, w) − c(e, w+2).

    Raises :class:`NotACharacterError` when the input is not a non-negative
    combination of bracket characters: it is not invariant under q -> q^{-1},
    or some difference c(e, w) − c(e, w+2) is negative, which includes a gap:
    c(e, w−2) = 0 below a nonzero c(e, w) with w >= 2.  Two passes:
    :meth:`BivariateCharacter.is_q_symmetric` over every monomial first, so
    that an asymmetric input is named as such, then one pass over the
    monomials with q >= 0 that checks each gap and descent and reads the
    multiplicities off.  The library calls it only to name a failing pair
    of ``verify`` or :func:`oracle_check`.
    """
    if not c.is_q_symmetric():
        raise NotACharacterError("not a character: not invariant under q -> 1/q")
    coeffs = c.coeffs
    terms: dict[IndecomposableBundle, int] = {}
    for (t, q), k in coeffs.items():
        if q < 0 or not k:
            continue
        if q >= 2 and not coeffs.get((t, q - 2)):
            raise NotACharacterError(f"not a character: gap below t^{t} q^{q}")
        above = coeffs.get((t, q + 2), 0)
        if k < above:
            raise NotACharacterError(
                f"not a character: coefficient {k} at t^{t} q^{q} is below {above} at q^{q + 2}"
            )
        if k > above:
            terms[_key(IndecomposableBundle, (q + 1, t))] = k - above
    return BundleSum(c.context, terms)


def _recurrence_plan(
    x: BundleSum, power: int
) -> tuple[int, int, tuple[int, ...], int, int, float]:
    """(Upper estimate of the word operations, slot width in bytes,
    ``_spread(x)``, q-rows, t-slots per row, interpreter steps) of the
    recurrence for x^power: each of the power·(2·top // step) // 2 + 1
    q-steps up to the middle row multiplies every monomial of the base
    outside the lowest q-row by an earlier row of power·span + 1 slots of at
    least a word, and divides by that row.  That bounds the rest of the
    work.  Each q-row takes a step per such monomial, one for the division
    and one per t-slot read off (at most n over L of order n); the steps are
    infinite where the recurrence refuses.  ``BundleSum.tensor_power``
    plans with it and hands it to :func:`_recurrence_power`, so nothing is
    computed twice."""
    spread = t_lo, span, _, top, step = _spread(x)
    rows, slots = power * (2 * top // step) // 2 + 1, power * span + 1
    rank = x.rank()
    if rank > 1 and power >> 6 > MAX_LOOP_WORDS:  # each slot holds rank^power >= 2^power
        return power >> 6, 0, spread, rows, slots, math.inf
    # rank^power has floor(power·log2 rank) + 1 bits; one more absorbs rounding.
    width = _slot_width(int(power * math.log2(rank)) + 2) if rank > 1 else 1
    per_slot = (width + 7) // 8
    lowest = [x.context.reduce_exponent(b.exponent - t_lo) for b in x.terms if b.index == top + 1]
    divisor = (max(lowest) - min(lowest)) * per_slot + 1
    monomials = sum(b.index for b in x.terms) - len(lowest)
    words = rows * (monomials + divisor) * slots * per_slot
    steps = _RECURRENCE_STEPS + rows * (monomials + 1 + min(slots, x.context.order or slots))
    return words, width, spread, rows, slots, steps if words <= MAX_LOOP_WORDS else math.inf


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
    ``BundleSum.tensor_power`` takes this route where the interpreter steps
    that :func:`_recurrence_plan` counts are fewer than repeated products'.

    Raises :class:`PowerTooLargeError`, before the character is built, when
    :func:`_recurrence_plan` estimates more than ``MAX_LOOP_WORDS`` word
    operations.
    """
    return _recurrence_power(x, power, _recurrence_plan(x, power))


def _recurrence_power(
    x: BundleSum, power: int, plan: tuple[int, int, tuple[int, ...], int, int, float]
) -> dict[IndecomposableBundle, int]:
    """:func:`character_power` for the ``plan`` that :func:`_recurrence_plan`
    made for x and power: its slot width, spread, q-rows and t-slots."""
    words, width, (t_lo, _, _, top, step), count, slots, _ = plan
    if words > MAX_LOOP_WORDS:
        raise PowerTooLargeError(
            f"tensor power {power} is too large: the recurrence would run "
            f"above the limit of {MAX_LOOP_WORDS} word operations"
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
    result = {}
    for i, c in _differences(values, 2 // step * slots):
        k, e = divmod(i, slots)
        index = power * top - step * k + 1
        result[_key(IndecomposableBundle, (index, reduce(power * t_lo + e)))] = c
    return result


class OracleCheck(_Value):
    """Outcome of comparing the tensor rule against the character oracle."""

    __slots__ = ("agrees", "from_formula", "from_character")

    def __init__(self, agrees: bool, from_formula: BundleSum, from_character: BundleSum):
        _set(self, "agrees", agrees)
        _set(self, "from_formula", from_formula)
        _set(self, "from_character", from_character)

    def __bool__(self) -> bool:
        return self.agrees


def oracle_check(
    context: TorsionContext, a: IndecomposableBundle, b: IndecomposableBundle
) -> OracleCheck:
    """Decompose a ⊗ b along both routes and compare the multisets.

    The character route packs [r]_q and [s]_q as rows of ones
    (:func:`_ones`), makes one integer product and reads its r + s − 1
    slots by the block test of ``verify`` (:func:`_read_block`), in
    O(r + s) interpreter steps.  No coefficient of [r]_q·[s]_q exceeds
    min(r, s), so slots of that many bits never carry.  A block that fails
    the test goes to :func:`decompose_character`, which names the
    :class:`NotACharacterError`.  Raises ``ValueError``, before either
    route, when the product would have more than ``MAX_LOOP_WORDS`` slots.
    """
    (r, ea), (s, eb) = a, b
    n = r + s - 1
    if n > MAX_LOOP_WORDS:
        raise ValueError(
            f"the character product of F_{r} and F_{s} would have {n} slots, "
            f"above the limit of {MAX_LOOP_WORDS}"
        )
    a, b = context.bundle(ea, r), context.bundle(eb, s)
    formula = tensor_indec(context, a, b)
    width = _slot_width(min(r, s).bit_length())
    values = _unpack(_ones(r, width) * _ones(s, width), n, width)
    t = context.reduce_exponent(ea + eb)
    read = _read_block(values)
    if read is None:
        peeled = decompose_character(_block_row(context, values, t))
    else:
        terms = {_key(IndecomposableBundle, (i, t)): c for i, c in read.items()}
        peeled = BundleSum(context, terms)
    return OracleCheck(formula == peeled, formula, peeled)


# The line exponents (ea, eb) by which ``verify`` twists every pair.
_VERIFY_PROBES = ((0, 0), (1, -1), (2, 1))


def _verify_pairs(
    context: TorsionContext, rmax: int
) -> list[tuple[IndecomposableBundle, IndecomposableBundle, BundleSum,
                BundleSum | NotACharacterError]]:
    """Check ``tensor_indec`` against the character route for every pair
    F_r, F_s with s <= r <= rmax, twisted by each probe (ea, eb) of
    :data:`_VERIFY_PROBES` in turn, and return (a, b, formula, oracle) for
    the first probe at which a pair disagrees, a = L^ea ⊗ F_r and
    b = L^eb ⊗ F_s: the oracle side is :func:`decompose_character` of the
    pair's product, or the :class:`NotACharacterError` it raised.

    Each bracket [r]_q is packed once as a row of r ones (:func:`_ones`,
    as in :func:`oracle_check`), in slots of rmax's bits, which never carry
    since no coefficient of [r]_q·[s]_q exceeds min(r, s).  Each pair makes
    the integer product of its two rows, :func:`oracle_check`'s product, and
    reads its r + s − 1 slots.  Each factor is one t-row, so the product is
    the same at every probe, which only labels it with the line exponent
    ea + eb.

    A block agrees with the formula when it passes the block test of
    :func:`_read_block` and the multiplicities read off it are the formula's
    terms.  Neither the packing nor the read-off applies the Clebsch-Gordan
    rule.  Once per run: each probe's t = ea + eb, and the rows and the
    classes L^eb ⊗ F_s of every s; once per r: the classes L^ea ⊗ F_r.
    Once per pair: the product, the block test, and the read-off labelled
    with each distinct t (over L of order 3 all three probes share t = 0).
    Once per pair and probe: one ``tensor_indec`` call, looked up as a
    module global, and one comparison with the read-off labelled with that
    probe's t.  Raises ``ValueError`` before packing when the formula terms,
    min(r, s) per pair and R(R + 1)(R + 2)/6 per probe, exceed
    ``MAX_LOOP_WORDS``.
    """
    terms = len(_VERIFY_PROBES) * rmax * (rmax + 1) * (rmax + 2) // 6
    if terms > MAX_LOOP_WORDS:
        raise ValueError(
            f"checking every pair up to F_{rmax} would write {terms} formula terms, "
            f"above the limit of {MAX_LOOP_WORDS}"
        )
    bundle = context.bundle
    width = _slot_width(rmax.bit_length())
    rows = [_ones(r, width) for r in range(1, rmax + 1)]
    ts = [context.reduce_exponent(ea + eb) for ea, eb in _VERIFY_PROBES]
    labels = set(ts)
    seconds = [[bundle(eb, s) for _, eb in _VERIFY_PROBES] for s in range(1, rmax + 1)]
    failures = []
    for r, row in enumerate(rows, 1):
        firsts = [bundle(ea, r) for ea, _ in _VERIFY_PROBES]
        for s, ys, other in zip(range(1, r + 1), seconds, rows):
            values = _unpack(row * other, r + s - 1, width)
            read = _read_block(values)
            if read is not None:
                # A class equals its plain pair (index, exponent).
                expected = {t: dict(zip(zip(read, repeat(t)), read.values())) for t in labels}
            for x, y, t in zip(firsts, ys, ts):
                formula = tensor_indec(context, x, y)
                if read is None or formula.terms != expected[t]:
                    try:
                        oracle = decompose_character(_block_row(context, values, t))
                    except NotACharacterError as err:
                        oracle = err
                    failures.append((x, y, formula, oracle))
                    break
    return failures


def _block_row(context: TorsionContext, block: Sequence[int], t: int) -> BivariateCharacter:
    """The t-row whose coefficients from the lowest q-exponent up, every
    other one, are ``block``, symmetric about q = 0 in span."""
    n = len(block)
    return BivariateCharacter(context, {(t, q): c for q, c in zip(range(1 - n, n, 2), block) if c})
