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
allocates slots for the gaps between them.  It packs coefficients, not
brackets, and knows nothing of the Clebsch-Gordan rule, which keeps the
oracle independent of the formula it checks.

:func:`character_power` takes tensor powers this way: the character is
packed into one integer, raised to the power and unpacked, in the slot grid
that :func:`packed_layout` gives, the one place that applies
:data:`MAX_PACKED_BITS`.  ``BundleSum.tensor_power`` plans each power once
from that layout and an estimate of the cost of repeated products, and packs
only when that is the cheaper route; ``KRingElement.__pow__`` keeps the
Clebsch-Gordan route.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .bundles import BundleSum, ContextMismatchError, IndecomposableBundle, TorsionContext, _spread


# Largest packed integer, in bits, that :func:`packed_layout` lays out.
# F_2^1000 packs to about 1 Mbit and takes well under 0.1 s; F_2^4000, just
# below the limit, takes about 4.5 s on one core of a shared 2-vCPU Xeon.
MAX_PACKED_BITS = 1 << 24


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
    fmt = _FORMATS.get(width)
    if width == 1 and not signed:
        data = bytes(values)
    elif fmt:
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


def _blocks(
    coeffs: Mapping[tuple[int, int], int], step: int, width: int, signed: bool
) -> list[tuple[int, int, int, int]]:
    """A character's monomials as packed blocks (t, lowest q, slots, integer).

    A block is a run of one t-row whose consecutive q-exponents are at most 2
    apart, so it has at most twice as many slots as monomials; q advances by
    ``step`` from slot to slot.
    """
    blocks = []
    items = iter(sorted(coeffs.items()))
    (t_run, lo), c = next(items)
    values = [c]
    prev = lo
    for (t, q), c in items:
        if t == t_run and q - prev <= 2:
            if q - prev > step:
                values.append(0)
            values.append(c)
        else:
            blocks.append((t_run, lo, len(values), _pack(values, width, signed)))
            t_run, lo, values = t, q, [c]
        prev = q
    blocks.append((t_run, lo, len(values), _pack(values, width, signed)))
    return blocks


class NotACharacterError(ValueError):
    """Raised when a Laurent polynomial is not a character of any bundle sum."""


class PowerTooLargeError(ValueError):
    """Raised, before any arithmetic, for a tensor power too large to compute:
    by :func:`character_power` when it has no packed layout, and by
    ``BundleSum.tensor_power`` when repeated products are too large too."""


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

    @classmethod
    def one(cls, context: TorsionContext) -> BivariateCharacter:
        return cls(context, {(0, 0): 1})

    def _check_context(self, other: BivariateCharacter) -> None:
        if self.context != other.context:
            raise ContextMismatchError(
                f"cannot combine characters over {self.context} and {other.context}"
            )

    def __add__(self, other: BivariateCharacter) -> BivariateCharacter:
        self._check_context(other)
        acc = dict(self.coeffs)
        for key, c in other.coeffs.items():
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            else:
                del acc[key]
        return BivariateCharacter(self.context, acc)

    def __mul__(self, other):
        """Scalar multiple, or Laurent product with t-exponents reduced.

        The product is computed by Kronecker substitution.  Each operand is
        cut into blocks (:func:`_blocks`): runs of one t-row whose
        q-exponents lie at most 2 apart, with q halved when every q-exponent
        of each operand has one parity.  Each block becomes one integer with
        a slot per q-exponent, and each pair of blocks costs one integer
        product, whose slots are the coefficients of that t-row of the
        product.  No product coefficient exceeds min(‖a‖₁·‖b‖∞, ‖a‖∞·‖b‖₁)
        in absolute value, so slots of that many bits, plus a sign bit when a
        coefficient is negative, never carry.  The cost is one big-integer
        product per block pair plus work linear in the monomials, so a
        bracket product [r]·[s] costs O(r + s) interpreter steps, not r·s,
        and gaps between far-apart exponents cost nothing.

        The product treats its operands as arbitrary Laurent polynomials: it
        never looks for brackets and never applies the Clebsch-Gordan rule,
        so :func:`oracle_check` compares two independent computations.
        """
        if isinstance(other, int):
            if other == 0:
                return BivariateCharacter.zero(self.context)
            return BivariateCharacter(
                self.context, {k: other * c for k, c in self.coeffs.items()}
            )
        if not isinstance(other, BivariateCharacter):
            return NotImplemented
        self._check_context(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return BivariateCharacter.zero(self.context)
        va, vb = a.values(), b.values()
        signed = min(va) < 0 or min(vb) < 0
        if signed:
            va, vb = list(map(abs, va)), list(map(abs, vb))
        bound = min(sum(va) * max(vb), max(va) * sum(vb))
        width = _slot_width(bound.bit_length() + signed)
        same_parity = len({q & 1 for _, q in a}) == 1 and len({q & 1 for _, q in b}) == 1
        step = 2 if same_parity else 1
        reduce = self.context.reduce_exponent
        acc: dict[tuple[int, int], int] = {}
        blocks_b = _blocks(b, step, width, signed)
        for ta, qa, na, pa in _blocks(a, step, width, signed):
            for tb, qb, nb, pb in blocks_b:
                t = reduce(ta + tb)
                q = qa + qb
                for c in _unpack(pa * pb, na + nb - 1, width, signed):
                    if c:
                        key = (t, q)
                        v = acc.get(key, 0) + c
                        if v:
                            acc[key] = v
                        else:
                            del acc[key]
                    q += step
        return BivariateCharacter(self.context, acc)

    __rmul__ = __mul__

    def total(self) -> int:
        """Sum of all coefficients; equals the rank for actual characters."""
        return sum(self.coeffs.values())

    def is_q_symmetric(self) -> bool:
        """Characters of bundle sums are invariant under q -> q^{-1}."""
        return all(self.coeffs.get((t, -q)) == c for (t, q), c in self.coeffs.items())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (t, q) in sorted(self.coeffs):
            c = self.coeffs[(t, q)]
            factors = []
            if abs(c) != 1 or (t == 0 and q == 0):
                factors.append(str(abs(c)))
            if t:
                factors.append("t" if t == 1 else f"t^{t}")
            if q:
                factors.append("q" if q == 1 else f"q^{q}")
            body = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


def character(x: BundleSum) -> BivariateCharacter:
    """Character of a bundle sum: additive, and multiplicative under tensor."""
    acc: dict[tuple[int, int], int] = {}
    for b, m in x.terms.items():
        e, r = b.exponent, b.index
        for k in range(r):
            key = (e, r - 1 - 2 * k)
            acc[key] = acc.get(key, 0) + m
    return BivariateCharacter(x.context, acc)


def _read_off(coeffs: Mapping[tuple[int, int], int]) -> dict[IndecomposableBundle, int]:
    """Multiplicities of a q-symmetric character, from its q >= 0 coefficients.

    mult(L^e ⊗ F_{w+1}) = c(e, w) − c(e, w+2).  Raises
    :class:`NotACharacterError` for a negative difference, which includes a
    gap: c(e, w−2) = 0 below a nonzero c(e, w) with w >= 2.
    """
    terms: dict[IndecomposableBundle, int] = {}
    for (t, q), k in coeffs.items():
        if q < 0 or not k:
            continue
        if q >= 2 and not coeffs.get((t, q - 2)):
            raise NotACharacterError(f"not a character: gap below t^{t} q^{q}")
        above = coeffs.get((t, q + 2), 0)
        m = k - above
        if m < 0:
            raise NotACharacterError(
                f"not a character: coefficient {k} at t^{t} q^{q} is below "
                f"{above} at q^{q + 2}"
            )
        if m:
            terms[IndecomposableBundle(t, q + 1)] = m
    return terms


def decompose_character(c: BivariateCharacter) -> BundleSum:
    """Invert :func:`character` by the linear read-off.

    Raises :class:`NotACharacterError` when the input is not a non-negative
    combination of bracket characters: it is not invariant under q -> q^{-1},
    or some difference c(e, w) − c(e, w+2) is negative.
    """
    if not c.is_q_symmetric():
        raise NotACharacterError("not a character: not invariant under q -> 1/q")
    return BundleSum(c.context, _read_off(c.coeffs))


class _Layout(NamedTuple):
    """Slot grid of a packed power: ``t_slots`` rows of ``q_slots`` slots of
    ``width`` bytes."""

    t_lo: int  # lowest line exponent of the base
    t_span: int  # spread of the line exponents of the base
    wrap: int  # torsion order to fold the rows modulo, or 0
    t_slots: int
    top: int  # largest |q| of the base
    step: int  # q-exponents of a slot grid advance by step
    q_slots: int
    width: int


def packed_layout(x: BundleSum, power: int) -> _Layout | None:
    """The slot grid that :func:`character_power` packs x^power into, from
    the terms of x alone, or ``None`` when the packed integer would exceed
    :data:`MAX_PACKED_BITS`."""
    rank = x.rank()
    if rank > 1 and power > MAX_PACKED_BITS:
        return None  # the packed power holds rank^power >= 2^power
    n = x.context.order
    t_lo, t_span, _, top, step = _spread(x)
    wrap = n if n and power * t_span >= n else 0
    t_slots = wrap or power * t_span + 1
    q_slots = power * (2 * top // step) + 1
    # bit_length(rank^power) is floor(power·log2 rank) + 1; one bit of slack
    # absorbs the float rounding.
    width = (int(power * math.log2(rank)) + 9) // 8 if rank > 1 else 1
    if t_slots * q_slots * width * 8 > MAX_PACKED_BITS:
        return None
    return _Layout(t_lo, t_span, wrap, t_slots, top, step, q_slots, width)


def character_power(x: BundleSum, power: int) -> dict[IndecomposableBundle, int]:
    """Decomposition of x^power, for a nonzero bundle sum x and power >= 2,
    by Kronecker substitution.

    Each monomial t^e q^w of the character of x gets a slot of ``width``
    bytes in one integer, at a position linear in e and w (both shifted to
    start at 0, w also halved when every q-exponent has the same parity), so
    that integer products are Laurent polynomial products.  The coefficients
    of every power up to x^power are non-negative and sum to at most
    rank^power < 2^(8·width), so no slot carries into the next.  Over L of
    order n, once the t-exponents of the power can span n residues, the
    t-slots fold cyclically modulo n after each product.  Only the q >= 0
    half is unpacked and read off.

    Raises :class:`PowerTooLargeError` when :func:`packed_layout` finds no
    layout, before the character of x is built.
    """
    layout = packed_layout(x, power)
    if layout is None:
        raise PowerTooLargeError(
            f"tensor power {power} would pack to more than {MAX_PACKED_BITS} bits"
        )
    t_lo, t_span, wrap, t_slots, top, step, q_slots, width = layout
    stride = q_slots * width

    c = character(x)
    values = [0] * (t_span * q_slots + 2 * top // step + 1)
    for (t, q), k in c.coeffs.items():
        values[(t - t_lo) * q_slots + (q + top) // step] = k
    base = _pack(values, width)

    if wrap:
        shift = wrap * stride * 8
        mask = (1 << shift) - 1
        v = base
        for bit in bin(power)[3:]:
            v *= v
            v = (v & mask) + (v >> shift)
            if bit == "1":
                v *= base
                v = (v & mask) + (v >> shift)
    else:
        v = pow(base, power)

    data = memoryview(v.to_bytes(t_slots * stride, "little"))
    q_shift = power * top
    first = -(-q_shift // step)  # first slot with q >= 0
    half: dict[tuple[int, int], int] = {}
    for j in range(t_slots):
        e = c.context.reduce_exponent(power * t_lo + j)
        row = int.from_bytes(data[j * stride + first * width:(j + 1) * stride], "little")
        for i, k in enumerate(_unpack(row, q_slots - first, width), first):
            if k:
                half[(e, i * step - q_shift)] = k
    return _read_off(half)


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
    from .bundles import tensor_indec

    formula = tensor_indec(context, a, b)
    product = character(BundleSum.single(context, a)) * character(
        BundleSum.single(context, b)
    )
    peeled = decompose_character(product)
    return OracleCheck(formula == peeled, formula, peeled)
