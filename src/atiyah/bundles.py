"""Exact arithmetic with degree-zero vector bundles on an elliptic curve.

Every indecomposable degree-zero bundle is isomorphic to L^e ⊗ F_r, where L
is a degree-zero line bundle and F_r is the rank-r Atiyah bundle (the unique
indecomposable of rank r and degree zero with a nonzero section; F_1 = O).
Tensor products of the F_r obey the same rule as Clebsch-Gordan products of
irreducible sl2 representations,

    F_r ⊗ F_s = F_{r-s+1} ⊕ F_{r-s+3} ⊕ ... ⊕ F_{r+s-1}    (s ≤ r),

and line exponents add.  Every operation here is exact: multiplicities are
Python integers and grow without overflow (they reach ~r^m in m-th tensor
powers).

A :class:`TorsionContext` fixes the multiplicative order of L once per
computation; exponents are canonicalized at construction so that equality of
sums is plain structural equality.  A class L^e ⊗ F_r is an
:class:`IndecomposableBundle`, a tuple ``(r, e)``: every dict of terms hashes
and compares its keys as tuples, and sorting classes gives the order in which
sums print.  :class:`KRingElement` holds signed
Z-linear combinations of classes; :class:`BundleSum` is its non-negative view,
the actual direct sums.  Both multiply through one kernel, :func:`_cg_product`.
F_r ⊗ F_s is one step-2 run of indices with one coefficient, so the kernel
records each pair of terms by the two ends of its run and sweeps the runs
once, building each output term once, a product of two one-term sums too;
:func:`tensor_indec`, the product of two classes, writes its one run
directly.  Tensor powers of bundle sums take the cheaper of that kernel and
a recurrence on characters, by a plan in counted interpreter steps
(:meth:`BundleSum.tensor_power`) that sizes the repeated products in one
loop over the powers (:func:`_loop_fits`), while ``KRingElement ** m``
stays repeated Clebsch-Gordan products, so the two can be compared.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import itemgetter


class ContextMismatchError(ValueError):
    """Raised when two values built over different torsion contexts are combined."""


@dataclass(frozen=True)
class TorsionContext:
    """Order of the twisting line bundle L in Pic^0(X).

    ``order = 0`` means L is non-torsion (exponents are unrestricted),
    ``order = 1`` means L ≅ O, and ``order = n ≥ 2`` means n is minimal with
    L^n ≅ O (exponents are kept as residues in [0, n)).
    """

    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("torsion order must be >= 0")

    def reduce_exponent(self, exponent: int) -> int:
        """Canonical representative of a line exponent in this context."""
        if self.order == 0:
            return exponent
        return exponent % self.order

    def bundle(self, exponent: int = 0, index: int = 1) -> IndecomposableBundle:
        """The class of L^exponent ⊗ F_index, with the exponent canonicalized."""
        return IndecomposableBundle(self.reduce_exponent(exponent), index)

    def line(self, exponent: int) -> IndecomposableBundle:
        return self.bundle(exponent, 1)

    def atiyah(self, index: int) -> IndecomposableBundle:
        return self.bundle(0, index)

    def __str__(self) -> str:
        if self.order == 0:
            return "non-torsion L"
        if self.order == 1:
            return "L = O"
        return f"L of order {self.order}"


class IndecomposableBundle(tuple):
    """The isomorphism class L^exponent ⊗ F_index, stored as the pair
    ``(index, exponent)``.

    The rank equals ``index`` and the degree is zero.  ``index == 1`` is a
    pure line-bundle class; ``exponent == 0 and index == 1`` is O itself.
    Being a tuple, a class hashes, compares and sorts as that pair: sorting
    orders by index, then exponent, as sums print, and a class equals the
    plain pair ``(index, exponent)``.
    """

    __slots__ = ()

    def __new__(cls, exponent: int, index: int) -> IndecomposableBundle:
        if index < 1:
            raise ValueError("F index must be >= 1")
        return tuple.__new__(cls, (index, exponent))

    index = property(itemgetter(0), doc="Rank of the class, r in F_r.")
    exponent = property(itemgetter(1), doc="Line exponent, e in L^e.")

    def __getnewargs__(self) -> tuple[int, int]:
        return self[1], self[0]

    def __add__(self, other):
        # A class is not a sequence to concatenate or repeat: sums and
        # multiples are BundleSums, so + and * raise TypeError.
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __radd__(self, other):
        # A tuple on the left would concatenate once this returned
        # NotImplemented, so refuse here.
        raise TypeError(
            f"unsupported operand type(s) for +: {type(other).__name__!r} and "
            f"{type(self).__name__!r}"
        )

    def __repr__(self) -> str:
        return f"IndecomposableBundle(exponent={self[1]!r}, index={self[0]!r})"

    def __str__(self) -> str:
        index, exponent = self
        if index == 1:
            return _line_name(exponent)
        return f"{_line_prefix(exponent)}F_{index}"


def _line_prefix(exponent: int) -> str:
    """L^exponent as it stands before F_j in a class name: "", "L*" or "L^e*"."""
    if exponent == 0:
        return ""
    return "L*" if exponent == 1 else f"L^{exponent}*"


def _line_name(exponent: int) -> str:
    """The name of the line class L^exponent: "O", "L" or "L^e"."""
    return _line_prefix(exponent)[:-1] or "O"


class _LinePrefixes(dict):
    """``_line_prefix`` by exponent, each computed on its first lookup."""

    def __missing__(self, exponent: int) -> str:
        prefix = self[exponent] = _line_prefix(exponent)
        return prefix


def sum_text(named: Iterable[tuple[int, str]]) -> str:
    """The text of a sum from its (coefficient, class name) terms, as
    :meth:`KRingElement.named_terms` gives them: ``2 F_2 + F_4``,
    ``-O + 2 F_2``, or ``0`` for no terms."""
    text = " ".join([
        (f"+ {name}" if c == 1 else f"+ {c} {name}") if c > 0
        else (f"- {name}" if c == -1 else f"- {-c} {name}")
        for c, name in named
    ])
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def sym_power_f2(k: int) -> IndecomposableBundle:
    """k-th symmetric power of F_2, which is F_{k+1}."""
    if k < 0:
        raise ValueError("symmetric power must be >= 0")
    return IndecomposableBundle(0, k + 1)


def component_indices(r: int, s: int) -> range:
    """Indices of the components of F_r ⊗ F_s: |r-s|+1, |r-s|+3, ..., r+s-1."""
    lo, hi = (r, s) if r <= s else (s, r)
    return range(hi - lo + 1, hi + lo, 2)


def _cg_product(
    context: TorsionContext,
    x: Mapping[IndecomposableBundle, int],
    y: Mapping[IndecomposableBundle, int],
) -> dict[IndecomposableBundle, int]:
    """Terms of x ⊗ y: the Clebsch-Gordan rule extended bilinearly.

    Line exponents add, and each pair c·L^a F_r, c'·L^b F_s contributes c·c'
    to every F_j of the step-2 run ``component_indices(r, s)``.  So the pair
    adds c·c' at index |r - s| + 1 and subtracts it at r + s + 1 in a sparse
    row of break points, one row per (line exponent, index parity), and one
    sweep over each row's sorted break points gives every coefficient: each
    output key is built once, and runs that cancel to zero are skipped.  No
    row is dense, so far-apart indices cost nothing for the gap.
    """
    n = context.order
    rows: dict[int, dict[int, int]] = {}  # 2·exponent + index parity -> break points
    for (r, ea), ca in x.items():
        for (s, eb), cb in y.items():
            c = ca * cb
            e = ea + eb
            if n:
                e %= n
            start, end = (r - s + 1 if r >= s else s - r + 1), r + s + 1
            k = 2 * e + (start & 1)
            row = rows.get(k)
            if row is None:
                rows[k] = {start: c, end: -c}
            else:
                row[start] = row.get(start, 0) + c
                row[end] = row.get(end, 0) - c
    acc: dict[IndecomposableBundle, int] = {}
    for k, row in rows.items():
        e, c, j = k >> 1, 0, 0
        for point in sorted(row):
            if c:
                for i in range(j, point, 2):
                    acc[_key(IndecomposableBundle, (i, e))] = c
            c += row[point]
            j = point
    return acc


# Builds a class from a pair (index, exponent) known to be valid, without the
# index check of IndecomposableBundle.__new__: _key(IndecomposableBundle, pair).
_key = tuple.__new__


def _drop_zeros(acc: dict[IndecomposableBundle, int]) -> dict[IndecomposableBundle, int]:
    """Delete zero coefficients in place, which rehashes only the deleted keys."""
    for b in [b for b, c in acc.items() if not c]:
        del acc[b]
    return acc


def tensor_indec(
    context: TorsionContext, a: IndecomposableBundle, b: IndecomposableBundle
) -> BundleSum:
    """Decompose (L^e_a ⊗ F_r) ⊗ (L^e_b ⊗ F_s) into indecomposables.

    The result is ⊕ L^{e_a+e_b} ⊗ F_j over min(r, s) component indices j,
    each with multiplicity one, of total rank r·s: one step-2 run of
    indices, written here directly rather than swept by :func:`_cg_product`.
    """
    (r, ea), (s, eb) = a, b
    e = context.reduce_exponent(ea + eb)
    return BundleSum(
        context, {_key(IndecomposableBundle, (j, e)): 1 for j in component_indices(r, s)}
    )


def dual(context: TorsionContext, a: IndecomposableBundle) -> IndecomposableBundle:
    """Dual class: the F_r are self-dual, so only the line exponent flips."""
    return context.bundle(-a.exponent, a.index)


# Most multiplicity words (64 bits) that one product, or the repeated products
# of a tensor power, may write, by :func:`_product_words` or :func:`_loop_fits`;
# most word operations of a power, by ``characters._recurrence_plan``; most
# formula terms of ``characters._verify_pairs``; and most slots of the one
# product of ``characters.oracle_check``.  At the limit ``verify --rmax 127``
# takes 0.6 s and 16.6 MB, as text or JSON, one pair product at a time;
# ``oracle_check`` of F_1048576 and F_1 takes 0.06 s and 26 MB, but of
# F_524288 and F_524289, whose factors are both large, 11 s and 196 MB, since
# big-integer products grow faster than their size; ``tensor F_1000000^2``
# prints 10^6 terms in 1.4 s and 370 MB (2.5 s, 590 MB as JSON); fresh
# processes, shared 2-vCPU Xeon.
MAX_LOOP_WORDS = 1 << 20


def _product_words(terms: int, index_sum: int, bits: int) -> int:
    """Upper estimate of the multiplicity words that one product writes:
    each of ``terms`` terms of one factor meets terms of the other whose
    indices sum to ``index_sum``, a pair F_r, F_s writes min(r, s) <= s
    terms, and multiplicities below 2^(bits + 1) take bits // 64 + 1 words.

    This is the size that :data:`MAX_LOOP_WORDS` bounds, kept in words so
    that no refusal moves.  The time of a product goes rather by pairs and
    by terms written (:func:`_loop_fits`), since :func:`_cg_product` builds
    each term once."""
    return terms * index_sum * (bits // 64 + 1)


def _spread(x: KRingElement) -> tuple[int, int, int, int, int]:
    """(lowest line exponent, their span, number of distinct ones, top index
    - 1, 2 if every index has one parity else 1) of a nonzero sum.  Over L of
    order n each exponent e lies at lowest + reduce_exponent(e - lowest), in
    the window of least span: L^3 + O over order 4 spans L^3, L^4."""
    exponents = sorted({b.exponent for b in x.terms})
    indices = {b.index for b in x.terms}
    t_lo, span = exponents[0], exponents[-1] - exponents[0]
    n = x.context.order
    if n:
        for lo, hi in zip(exponents, exponents[1:]):
            if lo + n - hi < span:  # the window from hi up to lo + n
                t_lo, span = hi, lo + n - hi
    step = 2 if len({i % 2 for i in indices}) == 1 else 1
    return t_lo, span, len(exponents), max(indices) - 1, step


@dataclass(frozen=True, eq=False)
class KRingElement:
    """An element of the Grothendieck ring K(X): a Z-linear combination of
    indecomposable classes, multiplied by the tensor rule extended bilinearly.

    ``terms`` maps canonical classes to nonzero coefficients.  Equality is
    equality in K(X), so a :class:`BundleSum` equals the element it views.
    Treat instances as immutable.
    """

    context: TorsionContext
    terms: dict[IndecomposableBundle, int] = field(default_factory=dict)

    @classmethod
    def of(
        cls,
        context: TorsionContext,
        terms: Mapping[IndecomposableBundle, int] | Iterable[tuple[IndecomposableBundle, int]],
    ) -> KRingElement:
        """Build an element, canonicalizing exponents and dropping zero coefficients."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[IndecomposableBundle, int] = {}
        for bundle, c in items:
            key = context.bundle(bundle.exponent, bundle.index)
            acc[key] = acc.get(key, 0) + c
        return cls(context, _drop_zeros(acc))

    @classmethod
    def single(
        cls, context: TorsionContext, bundle: IndecomposableBundle, mult: int = 1
    ) -> KRingElement:
        """mult times one class, its exponent canonicalized; empty if mult is 0."""
        index, exponent = bundle
        return cls(context, {context.bundle(exponent, index): mult} if mult else {})

    @classmethod
    def zero(cls, context: TorsionContext) -> KRingElement:
        return cls(context, {})

    @classmethod
    def unit(cls, context: TorsionContext) -> KRingElement:
        """The class of O, the tensor unit."""
        return cls(context, {context.bundle(): 1})

    # -- queries ---------------------------------------------------------

    def multiplicity(self, bundle: IndecomposableBundle) -> int:
        return self.terms.get(bundle, 0)

    def support(self) -> tuple[IndecomposableBundle, ...]:
        return tuple(sorted(self.terms))

    def rank(self) -> int:
        return sum(m * b.index for b, m in self.terms.items())

    def det_exponent(self) -> int:
        """Exponent of det(V) as a power of L; det(L^e ⊗ F_r) = L^{e·r}."""
        return self.context.reduce_exponent(
            sum(m * b.exponent * b.index for b, m in self.terms.items())
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KRingElement):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    # -- arithmetic ------------------------------------------------------

    def _check_context(self, other: KRingElement) -> type[KRingElement]:
        """Reject mixed contexts; return the class of a result built from both.

        That class is :class:`BundleSum` only when both operands are bundle sums.
        """
        if self.context != other.context:
            raise ContextMismatchError(
                f"cannot combine values over {self.context} and {other.context}"
            )
        if isinstance(self, BundleSum) and isinstance(other, BundleSum):
            return BundleSum
        return KRingElement

    def __add__(self, other):
        if isinstance(other, int):  # k·O, a bundle sum for k >= 0
            other = (BundleSum if other >= 0 else KRingElement).unit(self.context).scale(other)
        if not isinstance(other, KRingElement):
            return NotImplemented
        cls = self._check_context(other)
        acc = dict(self.terms)
        for b, c in other.terms.items():
            v = acc.get(b, 0) + c
            if v:
                acc[b] = v
            else:
                acc.pop(b, None)
        return cls(self.context, acc)

    __radd__ = __add__

    def __neg__(self) -> KRingElement:
        return KRingElement(self.context, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = KRingElement.unit(self.context).scale(other)
        if not isinstance(other, KRingElement):
            return NotImplemented
        return self + (-other)

    def scale(self, k: int) -> KRingElement:
        if k == 0:
            return type(self).zero(self.context)
        return type(self)(self.context, {b: k * c for b, c in self.terms.items()})

    def tensor(self, other: KRingElement) -> KRingElement:
        """Product by the tensor rule, extended bilinearly.

        Raises ``ValueError``, before any arithmetic, when the product would
        write more than :data:`MAX_LOOP_WORDS` multiplicity words.
        """
        cls = self._check_context(other)
        x, y = self.terms, other.terms
        # No multiplicity of the product exceeds the product of the sums of
        # the absolute coefficients.
        bits = (sum(map(abs, x.values())) * sum(map(abs, y.values()))).bit_length() - 1
        words = min(
            _product_words(len(x), sum(b.index for b in y), bits),
            _product_words(len(y), sum(b.index for b in x), bits),
        )
        if words > MAX_LOOP_WORDS:
            raise ValueError(
                f"the product would write about {words} multiplicity words, "
                f"above the limit of {MAX_LOOP_WORDS}"
            )
        return cls(self.context, _cg_product(self.context, x, y))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, KRingElement):
            return NotImplemented
        return self.tensor(other)

    __rmul__ = __mul__

    def dual(self) -> KRingElement:
        """Dual class, extended linearly; it permutes the canonical classes."""
        ctx = self.context
        return type(self)(ctx, {dual(ctx, b): c for b, c in self.terms.items()})

    def __pow__(self, power: int) -> KRingElement:
        """Ring power.  The dual is not the ring inverse, so power must be >= 0."""
        if power < 0:
            raise ValueError("ring powers must be >= 0")
        result = self if power else KRingElement.unit(self.context)
        for _ in range(power - 1):
            result = result * self
        return result

    def named_terms(self) -> list[tuple[int, str]]:
        """(coefficient, class name) of each term, in the order of
        :meth:`support`.

        The keys are sorted once and each index row is walked once: its
        tail ``F_j`` is built once, and each line prefix once per exponent
        over all rows (:class:`_LinePrefixes`), so no class is named on its
        own.  Index-1 terms are the line names ``O``, ``L``, ``L^e``.
        """
        terms = self.terms
        prefixes = _LinePrefixes()
        named = []
        index = tail = None
        for key in sorted(terms):
            j, e = key
            if j != index:
                index, tail = j, f"F_{j}"
            named.append((terms[key], prefixes[e] + tail if j > 1 else _line_name(e)))
        return named

    def __str__(self) -> str:
        """Terms by index then exponent, e.g. ``2 F_2 + F_4`` or ``2 F_2 - F_4``."""
        return sum_text(self.named_terms())


# The plan of a tensor power compares its two routes in one unit, counted
# interpreter steps, one pass of an interpreted loop each (a median of 70 ns
# in repeated products and 100 ns in the recurrence over random bases, on one
# core of a shared 2-vCPU Xeon, Python 3.11).  Repeated products take
# _TERM_STEPS per pair of terms and word of multiplicity met and per term
# written (:func:`_loop_fits`), plus _PRODUCT_STEPS per product; the
# recurrence takes one step per monomial, one per division and one per
# t-slot read off at each q-row (``characters._recurrence_plan``), plus
# _RECURRENCE_STEPS.
_PRODUCT_STEPS = 80
_TERM_STEPS = 2
_RECURRENCE_STEPS = 100


def _loop_fits(
    base: BundleSum, power: int, steps_cap: float, words_cap: int,
    spread: tuple[int, int, int, int, int],
) -> bool:
    """Whether power - 1 products by ``base`` are estimated at most
    ``steps_cap`` interpreter steps and write at most ``words_cap``
    multiplicity words; ``spread`` is ``_spread(base)``.  One loop over
    j = 2, ..., power sums both estimates and stops once either passes its
    cap.

    The estimates rest on upper bounds N_j of the number of terms of the
    j-th power and bits_j of the bits of its multiplicities.  N_1 is the
    number of terms of ``base``; for j >= 2 the line exponents are sums of
    j exponents of ``base`` (at most comb(d + j - 1, j) for d distinct
    ones, counted up to the cap, within a range of j·span + 1, or n residues
    over L of order n) and the indices are at most j·(top - 1) + 1, all of
    one parity when those of ``base`` are; bits_j = j·log2(rank).  The
    product of the (j-1)-th power by ``base`` meets N_(j-1) terms with the
    k terms of ``base``: it takes :func:`_product_words` of N_(j-1) terms
    against the index sum of ``base`` (the size that :data:`MAX_LOOP_WORDS`
    bounds), and _TERM_STEPS per pair and word of bits_j bits and per term
    of the at most N_j it writes (the steps).
    """
    steps = (power - 1) * _PRODUCT_STEPS
    if power - 1 > words_cap or steps > steps_cap:
        return False  # each product writes at least one word and takes _PRODUCT_STEPS
    _, span, d, top, step = spread
    n, k = base.context.order, len(base.terms)
    log_rank = math.log2(base.rank())
    index_sum = sum(b.index for b in base.terms)
    # A term count capped at the larger cap makes the sum it enters pass its
    # own cap, so one count decides for both.
    cap = words_cap if steps_cap == math.inf else max(words_cap, int(steps_cap) // _TERM_STEPS)
    terms, sums, words = k, d, 0  # N_1; comb(d + j - 1, j), capped once it passes cap
    for j in range(2, power + 1):
        sums = min(sums * (d + j - 1) // j, cap + 1)
        next_terms = min(sums, j * span + 1, n or sums) * (j * top // step + 1)
        bits = int(j * log_rank)
        words += _product_words(terms, index_sum, bits)
        steps += (terms * k * (bits // 64 + 1) + next_terms) * _TERM_STEPS
        if words > words_cap or steps > steps_cap:
            return False
        terms = next_terms
    return True


class BundleSum(KRingElement):
    """The non-negative view of :class:`KRingElement`: a finite direct sum of
    indecomposables with positive multiplicities.

    Negative multiplicities are rejected where they enter (:meth:`of`,
    :meth:`single`, :meth:`scale`).  Direct sums, tensor products, duals and
    scalings by k >= 0 of bundle sums are bundle sums, and so is a bundle sum
    plus an integer k >= 0, read as k·O; subtraction, negation or any signed
    operand gives a :class:`KRingElement`.  The empty sum is the
    zero object; it only shows up as an arithmetic intermediate (e.g. scaling
    by 0), never as an isomorphism class of an actual bundle.
    """

    @classmethod
    def of(
        cls,
        context: TorsionContext,
        terms: Mapping[IndecomposableBundle, int] | Iterable[tuple[IndecomposableBundle, int]],
    ) -> BundleSum:
        """Build a sum, canonicalizing exponents and dropping zero multiplicities."""
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for _, m in items:
            if m < 0:
                raise ValueError("multiplicities must be >= 0")
        return super().of(context, items)

    @classmethod
    def single(
        cls, context: TorsionContext, bundle: IndecomposableBundle, mult: int = 1
    ) -> BundleSum:
        if mult < 0:
            raise ValueError("multiplicities must be >= 0")
        return super().single(context, bundle, mult)

    def scale(self, k: int) -> BundleSum:
        if k < 0:
            raise ValueError("multiplicities must be >= 0")
        return super().scale(k)

    def tensor_power(self, power: int) -> BundleSum:
        """|power|-fold tensor power, dualizing first for negative powers.

        The zeroth power is O by the empty-product convention, and the first
        is the sum itself.  Every other power follows one plan, made from
        the terms alone before any arithmetic, in one unit, counted
        interpreter steps: repeated products (``KRingElement.__pow__``) when
        :func:`_loop_fits` finds that they write at most
        :data:`MAX_LOOP_WORDS` words in no more steps than the Miller
        recurrence on the character takes (the steps that
        ``characters._recurrence_plan`` counts, infinite when that
        recurrence takes more than :data:`MAX_LOOP_WORDS` word
        operations); else the recurrence of
        :func:`atiyah.characters.character_power` on the same plan, which
        raises :class:`atiyah.characters.PowerTooLargeError` above that
        limit.  It takes a step per monomial of the base at every q-step, so
        squares, high indices and line exponents far apart take repeated
        products.  A line class L^e has one q-row of one slot, so the
        recurrence takes its m-th power, L^(e·m), in one word operation at
        any m.
        """
        if not self.terms:
            raise ValueError("cannot take tensor powers of the zero sum")
        if power == 0:
            return BundleSum.unit(self.context)
        base = self.dual() if power < 0 else self
        power = abs(power)
        if power == 1:
            return base
        from . import characters

        plan = _, _, spread, _, _, steps = characters._recurrence_plan(base, power)
        if _loop_fits(base, power, steps, MAX_LOOP_WORDS, spread):
            return KRingElement.__pow__(base, power)
        return BundleSum(self.context, characters._recurrence_power(base, power, plan))

    __pow__ = tensor_power

    # Shared implementations, bound here as well so that BundleSum's own
    # namespace holds every operation on sums (perfbench/tracing.py wraps
    # them there).
    __add__ = KRingElement.__add__
    __str__ = KRingElement.__str__
    tensor = KRingElement.tensor
    dual = KRingElement.dual
