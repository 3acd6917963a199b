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
sums is plain structural equality.  :class:`KRingElement` holds signed
Z-linear combinations of classes; :class:`BundleSum` is its non-negative view,
the actual direct sums.  Both multiply through one kernel, :func:`_cg_product`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class IndecomposableBundle:
    """The isomorphism class L^exponent ⊗ F_index.

    The rank equals ``index`` and the degree is zero.  ``index == 1`` is a
    pure line-bundle class; ``exponent == 0 and index == 1`` is O itself.
    """

    exponent: int
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("F index must be >= 1")

    def sort_key(self) -> tuple[int, int]:
        return (self.index, self.exponent)

    def __str__(self) -> str:
        if self.index == 1:
            if self.exponent == 0:
                return "O"
            if self.exponent == 1:
                return "L"
            return f"L^{self.exponent}"
        fr = f"F_{self.index}"
        if self.exponent == 0:
            return fr
        if self.exponent == 1:
            return f"L*{fr}"
        return f"L^{self.exponent}*{fr}"


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

    Line exponents add, and each pair F_r, F_s contributes every F_j with j
    in ``component_indices(r, s)`` at the product of the two coefficients.
    Coefficients that cancel to zero are dropped once, at the end.
    """
    acc: dict[IndecomposableBundle, int] = {}
    reduce = context.reduce_exponent
    for a, ca in x.items():
        for b, cb in y.items():
            c = ca * cb
            e = reduce(a.exponent + b.exponent)
            for j in component_indices(a.index, b.index):
                key = IndecomposableBundle(e, j)
                acc[key] = acc.get(key, 0) + c
    return _drop_zeros(acc)


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
    each with multiplicity one, of total rank r·s.
    """
    return BundleSum(context, _cg_product(context, {a: 1}, {b: 1}))


def dual(context: TorsionContext, a: IndecomposableBundle) -> IndecomposableBundle:
    """Dual class: the F_r are self-dual, so only the line exponent flips."""
    return context.bundle(-a.exponent, a.index)


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
        return cls.of(context, [(bundle, mult)])

    @classmethod
    def zero(cls, context: TorsionContext) -> KRingElement:
        return cls(context, {})

    @classmethod
    def unit(cls, context: TorsionContext) -> KRingElement:
        """The class of O, the tensor unit."""
        return cls(context, {context.bundle(): 1})

    # Ring-language names for the same constructors.
    one = unit
    basis = single

    @staticmethod
    def from_sum(x: KRingElement) -> KRingElement:
        """x as a plain ring element, free to take signed coefficients."""
        return KRingElement(x.context, dict(x.terms))

    # -- queries ---------------------------------------------------------

    def multiplicity(self, bundle: IndecomposableBundle) -> int:
        return self.terms.get(bundle, 0)

    def support(self) -> tuple[IndecomposableBundle, ...]:
        return tuple(sorted(self.terms, key=IndecomposableBundle.sort_key))

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
        if isinstance(other, int):
            other = KRingElement.unit(self.context).scale(other)
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
        if not isinstance(other, (int, KRingElement)):
            return NotImplemented
        return self + (-other)

    def scale(self, k: int) -> KRingElement:
        if k == 0:
            return type(self).zero(self.context)
        return type(self)(self.context, {b: k * c for b, c in self.terms.items()})

    def tensor(self, other: KRingElement) -> KRingElement:
        """Product by the tensor rule, extended bilinearly."""
        cls = self._check_context(other)
        return cls(self.context, _cg_product(self.context, self.terms, other.terms))

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
        result = KRingElement.unit(self.context)
        for _ in range(power):
            result = result * self
        return result

    def __str__(self) -> str:
        """Terms by index then exponent, e.g. ``2 F_2 + F_4`` or ``2 F_2 - F_4``."""
        if not self.terms:
            return "0"
        parts = []
        for b in self.support():
            c = self.terms[b]
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {b}" if abs(c) == 1 else f"{sign} {abs(c)} {b}")
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]


class BundleSum(KRingElement):
    """The non-negative view of :class:`KRingElement`: a finite direct sum of
    indecomposables with positive multiplicities.

    Negative multiplicities are rejected where they enter (:meth:`of`,
    :meth:`single`, :meth:`scale`).  Direct sums, tensor products, duals and
    scalings by k >= 0 of bundle sums are bundle sums; subtraction, negation
    or any signed operand gives a :class:`KRingElement`.  The empty sum is the
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

    def scale(self, k: int) -> BundleSum:
        if k < 0:
            raise ValueError("multiplicities must be >= 0")
        return super().scale(k)

    def tensor_power(self, power: int) -> BundleSum:
        """|power|-fold tensor power, dualizing first for negative powers.

        The zeroth power is O by the empty-product convention.
        """
        if not self.terms:
            raise ValueError("cannot take tensor powers of the zero sum")
        if power == 0:
            return BundleSum.unit(self.context)
        base = self.dual() if power < 0 else self
        result = base
        for _ in range(abs(power) - 1):
            result = result.tensor(base)
        return result

    __pow__ = tensor_power

    # Shared implementations, bound here as well so that BundleSum's own
    # namespace holds every operation on sums (perfbench/tracing.py wraps
    # them there).
    __add__ = KRingElement.__add__
    __str__ = KRingElement.__str__
    tensor = KRingElement.tensor
    dual = KRingElement.dual
