"""Laurent-character oracle for bundle arithmetic.

A second, independent route to tensor decompositions: send L^e ⊗ F_r to the
bivariate Laurent monomial-times-bracket

    t^e · [r]_q,     [r]_q = q^{r-1} + q^{r-3} + ... + q^{-(r-1)},

multiply characters as Laurent polynomials (t-exponents reduced modulo the
torsion order), and recover the decomposition by greedy highest-weight
peeling.  Because the bracket product follows the Clebsch-Gordan rule, this
reproduces the bundle tensor product without ever invoking it, so agreement
between the two routes is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .bundles import BundleSum, ContextMismatchError, IndecomposableBundle, TorsionContext


class NotACharacterError(ValueError):
    """Raised when a Laurent polynomial is not a character of any bundle sum."""


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
        if isinstance(other, int):
            if other == 0:
                return BivariateCharacter.zero(self.context)
            return BivariateCharacter(
                self.context, {k: other * c for k, c in self.coeffs.items()}
            )
        if not isinstance(other, BivariateCharacter):
            return NotImplemented
        self._check_context(other)
        reduce = self.context.reduce_exponent
        acc: dict[tuple[int, int], int] = {}
        for (t1, q1), c1 in self.coeffs.items():
            for (t2, q2), c2 in other.coeffs.items():
                key = (reduce(t1 + t2), q1 + q2)
                v = acc.get(key, 0) + c1 * c2
                if v:
                    acc[key] = v
                else:
                    del acc[key]
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


def decompose_character(c: BivariateCharacter) -> BundleSum:
    """Invert :func:`character` by peeling highest weights.

    Repeatedly take the maximal q-exponent w present, read off the terms
    t^e with coefficient m at that level, record m copies of L^e ⊗ F_{w+1},
    and subtract m·t^e·[w+1]_q.  Raises :class:`NotACharacterError` when the
    input is not a non-negative combination of bracket characters (a negative
    coefficient surfaces, or weight remains at negative q-exponents).
    """
    # Level map q-exponent -> (t-exponent -> coefficient).
    levels: dict[int, dict[int, int]] = {}
    for (t, q), coeff in c.coeffs.items():
        levels.setdefault(q, {})[t] = coeff
    terms: dict[IndecomposableBundle, int] = {}
    while levels:
        w = max(levels)
        if w < 0:
            raise NotACharacterError(
                f"not a character: weight left at negative q-exponent {w}"
            )
        layer = levels.pop(w)
        for t, m in layer.items():
            if m == 0:
                continue
            if m < 0:
                raise NotACharacterError(
                    f"not a character: coefficient {m} at t^{t} q^{w}"
                )
            bundle = IndecomposableBundle(t, w + 1)
            terms[bundle] = terms.get(bundle, 0) + m
            # Subtract m·t^t·[w+1]_q below the peeled level.
            for q in range(w - 2, -w - 1, -2):
                row = levels.setdefault(q, {})
                v = row.get(t, 0) - m
                if v:
                    row[t] = v
                else:
                    row.pop(t, None)
        for q in [q for q, row in levels.items() if not row]:
            del levels[q]
    return BundleSum(c.context, terms)


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
