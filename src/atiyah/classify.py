"""Classification of degree-zero bundles E = L^1 ⊗ F_r on an elliptic curve.

For each pair (rank r, torsion order n of L) this module produces:

* a closed-form description of S(E), the set of indecomposable components of
  all integer tensor powers of E, together with a bound-limited brute-force
  enumeration and an independent structure-law prediction of what each power
  contributes;
* the presentation of R(E), the Q-subalgebra of K(X) ⊗ Q generated by S(E),
  as one of a fixed family of polynomial / Laurent / cyclotomic-quotient
  tensor factors, with its Krull dimension;
* the minimal group scheme G such that E trivializes on a principal
  G-bundle, so that dim R(E) = dim G can be checked cell by cell.

The analogous rank-one and rank-two statements over P^1 (where everything is
governed by the gcd of the degrees) are in :func:`p1_classify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .bundles import BundleSum, IndecomposableBundle, KRingElement, TorsionContext


class PresentationKind(str, Enum):
    POINT = "point"                      # Q
    CYCLOTOMIC = "cyclotomic"            # Q[x]/(x^m - 1)
    POLY = "poly"                        # Q[x]
    LAURENT = "laurent"                  # Q[x, x^-1]
    LAURENT_POLY = "laurent_poly"        # Q[x, x^-1] ⊗ Q[y]
    CYCLOTOMIC_POLY = "cyclotomic_poly"  # Q[x]/(x^m - 1) ⊗ Q[y]


_KRULL_DIM = {
    PresentationKind.POINT: 0,
    PresentationKind.CYCLOTOMIC: 0,
    PresentationKind.POLY: 1,
    PresentationKind.LAURENT: 1,
    PresentationKind.LAURENT_POLY: 2,
    PresentationKind.CYCLOTOMIC_POLY: 1,
}


@dataclass(frozen=True)
class RingPresentation:
    """R(E) as an abstract ring, plus labels for its K-ring generators."""

    kind: PresentationKind
    modulus: int | None = None
    generators: tuple[str, ...] = ()

    def __post_init__(self):
        cyclotomic = self.kind in (
            PresentationKind.CYCLOTOMIC,
            PresentationKind.CYCLOTOMIC_POLY,
        )
        if cyclotomic and (self.modulus is None or self.modulus < 1):
            raise ValueError("cyclotomic modulus must be >= 1")
        if not cyclotomic and self.modulus is not None:
            raise ValueError("modulus only applies to cyclotomic kinds")

    def __str__(self) -> str:
        k = self.kind
        if k is PresentationKind.POINT:
            return "Q"
        if k is PresentationKind.CYCLOTOMIC:
            return f"Q[x]/(x^{self.modulus} - 1)"
        if k is PresentationKind.POLY:
            return "Q[x]"
        if k is PresentationKind.LAURENT:
            return "Q[x,x^-1]"
        if k is PresentationKind.LAURENT_POLY:
            return "Q[x,x^-1] ⊗ Q[y]"
        return f"Q[x]/(x^{self.modulus} - 1) ⊗ Q[y]"


def krull_dimension(presentation: RingPresentation) -> int:
    """Krull dimension of the presented ring (0 for Artinian, +1 per free variable)."""
    return _KRULL_DIM[presentation.kind]


@dataclass(frozen=True)
class GroupScheme:
    """A finite product of the factors 1, mu_m, Gm, Ga."""

    factors: tuple[str, ...]

    def __post_init__(self):
        for f in self.factors:
            if f in ("1", "Gm", "Ga") or f.startswith("mu_"):
                continue
            raise ValueError(f"unknown group factor {f!r}")

    @property
    def dimension(self) -> int:
        return sum(1 for f in self.factors if f in ("Gm", "Ga"))

    def __str__(self) -> str:
        return " x ".join(self.factors) if self.factors else "1"


@dataclass(frozen=True)
class IndexFamily:
    """One closed-form family of members L^e ⊗ F_j inside an S-set.

    Torsion contexts constrain exponents by explicit residue lists; the
    non-torsion context constrains them by minimum absolute value and parity,
    with the index coupled to the exponent by j <= index_slope·|e| + 1.
    """

    description: str
    exponent_residues: tuple[int, ...] | None = None
    min_abs_exponent: int = 0
    exponent_parity: int | None = None
    index_parity: int | None = None
    index_slope: int | None = None

    def contains(self, bundle: IndecomposableBundle) -> bool:
        e, j = bundle.exponent, bundle.index
        if self.index_parity is not None and j % 2 != self.index_parity:
            return False
        if self.exponent_residues is not None:
            return e in self.exponent_residues
        a = abs(e)
        if a < self.min_abs_exponent:
            return False
        if self.exponent_parity is not None and a % 2 != self.exponent_parity:
            return False
        if self.index_slope is not None and j > self.index_slope * a + 1:
            return False
        return True


@dataclass(frozen=True)
class SSetDescription:
    """S(E) as a finite part plus closed-form infinite families."""

    context: TorsionContext
    finite_part: tuple[IndecomposableBundle, ...]
    families: tuple[IndexFamily, ...]

    def contains(self, bundle: IndecomposableBundle) -> bool:
        return bundle in self.finite_part or any(
            f.contains(bundle) for f in self.families
        )

    def describe(self) -> list[str]:
        lines = []
        if self.finite_part:
            lines.append(", ".join(str(b) for b in self.finite_part))
        lines.extend(f.description for f in self.families)
        return lines


def s_set_symbolic(rank: int, torsion: int) -> SSetDescription:
    """Closed-form description of S(L ⊗ F_rank) for L of the given order."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    ctx = TorsionContext(torsion)
    n = torsion
    if rank == 1:
        if n == 0:
            fam = IndexFamily(
                "L^e for e != 0",
                min_abs_exponent=1,
                index_parity=1,
                index_slope=0,
            )
            return SSetDescription(ctx, (ctx.bundle(),), (fam,))
        finite = tuple(ctx.bundle(i, 1) for i in range(n))
        return SSetDescription(ctx, finite, ())
    if n == 1:
        if rank % 2 == 0:
            fam = IndexFamily("F_j for j >= 1", exponent_residues=(0,))
        else:
            fam = IndexFamily("F_j for odd j", exponent_residues=(0,), index_parity=1)
        return SSetDescription(ctx, (), (fam,))
    if n == 0:
        slope = rank - 1
        finite = (ctx.bundle(), ctx.bundle(1, rank), ctx.bundle(-1, rank))
        if rank % 2 == 1:
            fams = (
                IndexFamily(
                    f"L^e*F_j for |e| >= 2, j odd, j <= {slope}*|e|+1",
                    min_abs_exponent=2,
                    index_parity=1,
                    index_slope=slope,
                ),
            )
        else:
            fams = (
                IndexFamily(
                    f"L^e*F_j for even |e| >= 2, j odd, j <= {slope}*|e|+1",
                    min_abs_exponent=2,
                    exponent_parity=0,
                    index_parity=1,
                    index_slope=slope,
                ),
                IndexFamily(
                    f"L^e*F_j for odd |e| >= 3, j even, j <= {slope}*|e|+1",
                    min_abs_exponent=3,
                    exponent_parity=1,
                    index_parity=0,
                    index_slope=slope,
                ),
            )
        return SSetDescription(ctx, finite, fams)
    # Torsion order n >= 2.
    residues = tuple(range(n))
    if rank % 2 == 1:
        fam = IndexFamily(
            f"L^e*F_j for e in 0..{n - 1}, j odd",
            exponent_residues=residues,
            index_parity=1,
        )
        return SSetDescription(ctx, (), (fam,))
    if n % 2 == 1:
        fam = IndexFamily(
            f"L^e*F_j for e in 0..{n - 1}, all j",
            exponent_residues=residues,
        )
        return SSetDescription(ctx, (), (fam,))
    # rank and n both even: exponent parity couples to index parity.
    fams = (
        IndexFamily(
            f"L^e*F_j for even e in 0..{n - 2}, j odd",
            exponent_residues=tuple(range(0, n, 2)),
            index_parity=1,
        ),
        IndexFamily(
            f"L^e*F_j for odd e in 1..{n - 1}, j even",
            exponent_residues=tuple(range(1, n, 2)),
            index_parity=0,
        ),
    )
    return SSetDescription(ctx, (), fams)


def s_set_enumerate(
    rank: int, torsion: int, power_bound: int
) -> set[IndecomposableBundle]:
    """Union of the supports of (L ⊗ F_rank)^{⊗m} over 0 < |m| <= power_bound.

    Computed with the actual tensor arithmetic; the negative powers are the
    duals of the positive ones.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if power_bound < 1:
        raise ValueError("power bound must be >= 1")
    ctx = TorsionContext(torsion)
    base = BundleSum.single(ctx, ctx.bundle(1, rank))
    out: set[IndecomposableBundle] = set()
    power = base
    for m in range(1, power_bound + 1):
        if m > 1:
            power = power.tensor(base)
        out.update(power.terms)
        out.update(power.dual().terms)
    return out


def s_set_reachable(
    rank: int, torsion: int, power_bound: int
) -> set[IndecomposableBundle]:
    """Members of S(E) predicted for powers up to the bound by the structure law.

    Each power m contributes components at line exponent m (reduced) whose
    indices run through every value of parity (rank-1)·|m|+1 up to that top
    index; the powers ±1 contribute only F_rank itself.  No tensor arithmetic
    is used, so comparing this against :func:`s_set_enumerate` cross-checks
    the multiplication route.
    """
    ctx = TorsionContext(torsion)
    out: set[IndecomposableBundle] = set()
    for m in range(-power_bound, power_bound + 1):
        if m == 0:
            continue
        e = ctx.reduce_exponent(m)
        if rank == 1:
            out.add(IndecomposableBundle(e, 1))
            continue
        if abs(m) == 1:
            out.add(IndecomposableBundle(e, rank))
            continue
        top = (rank - 1) * abs(m) + 1
        for j in range(top, 0, -2):
            out.add(IndecomposableBundle(e, j))
    return out


@dataclass(frozen=True)
class IntegerPolynomial:
    """Polynomial with integer coefficients, stored ascending by degree."""

    coefficients: tuple[int, ...]

    @classmethod
    def of(cls, coefficients) -> IntegerPolynomial:
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __add__(self, other: IntegerPolynomial) -> IntegerPolynomial:
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return IntegerPolynomial.of(merged)

    def __neg__(self) -> IntegerPolynomial:
        return IntegerPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: IntegerPolynomial) -> IntegerPolynomial:
        return self + (-other)

    def shifted(self) -> IntegerPolynomial:
        """Multiply by the variable."""
        if not self.coefficients:
            return self
        return IntegerPolynomial((0,) + self.coefficients)

    def evaluate(self, x: KRingElement) -> KRingElement:
        """Horner evaluation inside the K-ring."""
        acc = KRingElement.zero(x.context)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coefficients[d]
            if c == 0:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                var = "x" if d == 1 else f"x^{d}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


def express_in_generator(index: int, chain: str = "even") -> IntegerPolynomial:
    """Polynomial writing [F_index] in the chosen generator of R(F_r).

    The "even" chain uses x = [F_2] and covers every index, via
    p_{i+1} = x·p_i - p_{i-1} (from F_i ⊗ F_2 = F_{i-1} ⊕ F_{i+1}).  The
    "odd" chain uses x = [F_3] and covers odd indices only, via
    q_{i+2} = (x - 1)·q_i - q_{i-2} (from F_i ⊗ F_3 = F_{i-2} ⊕ F_i ⊕ F_{i+2}).
    """
    if index < 1:
        raise ValueError("index must be >= 1")
    one = IntegerPolynomial((1,))
    x = IntegerPolynomial((0, 1))
    if chain == "even":
        if index == 1:
            return one
        prev, cur = one, x
        for _ in range(index - 2):
            prev, cur = cur, cur.shifted() - prev
        return cur
    if chain == "odd":
        if index % 2 == 0:
            raise ValueError("the [F_3] chain only reaches odd indices")
        if index == 1:
            return one
        prev, cur = one, x
        for _ in range((index - 3) // 2):
            prev, cur = cur, (cur.shifted() - cur) - prev
        return cur
    raise ValueError("chain must be 'even' or 'odd'")


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the classification knows about one input bundle."""

    curve: str  # "elliptic" or "p1"
    s_set: object
    presentation: RingPresentation
    krull_dim: int
    group: GroupScheme
    correspondence_holds: bool
    rank: int | None = None
    torsion: int | None = None
    degrees: tuple[int, ...] | None = None
    minimality_note: str | None = None
    notes: tuple[str, ...] = ()


def classify(rank: int, torsion: int) -> ClassificationReport:
    """Full classification of E = L ⊗ F_rank for L of the given torsion order."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if torsion < 0:
        raise ValueError("torsion order must be >= 0")
    n = torsion
    s_set = s_set_symbolic(rank, n)
    minimality = None
    notes: tuple[str, ...] = ()
    if rank == 1:
        if n == 1:
            presentation = RingPresentation(PresentationKind.POINT)
            group = GroupScheme(("1",))
        elif n == 0:
            presentation = RingPresentation(PresentationKind.LAURENT, generators=("[L]",))
            group = GroupScheme(("Gm",))
            notes = (
                "rank-1 non-torsion case: L alone trivializes on a Gm-torsor; "
                "included for completeness beyond the rank >= 2 case analysis",
            )
        else:
            presentation = RingPresentation(
                PresentationKind.CYCLOTOMIC, modulus=n, generators=("[L]",)
            )
            group = GroupScheme((f"mu_{n}",))
    elif n == 1:
        gen = "[F_2]" if rank % 2 == 0 else "[F_3]"
        presentation = RingPresentation(PresentationKind.POLY, generators=(gen,))
        group = GroupScheme(("Ga",))
    elif n == 0:
        if rank % 2 == 1:
            gens = ("[L]", "[F_3]")
        else:
            gens = ("[L^2]", "[L^-1*F_2]")
        presentation = RingPresentation(PresentationKind.LAURENT_POLY, generators=gens)
        group = GroupScheme(("Gm", "Ga"))
    elif rank % 2 == 0 and n % 2 == 0:
        m = n // 2
        presentation = RingPresentation(
            PresentationKind.CYCLOTOMIC_POLY,
            modulus=m,
            generators=("[L^2]", "[L*F_2]"),
        )
        group = GroupScheme((f"mu_{n}", "Ga"))
        det = rank % n
        minimality = (
            f"mu_{m} x Ga does not suffice, although det E = {s_set.context.line(det)} "
            f"has order {n // math.gcd(n, det)}, which divides {m}: by Atiyah's "
            f"classification L*F_{rank} determines L, so a torsor that trivializes E "
            f"also trivializes L, and L has exact order {n}; the minimal group is "
            f"mu_{n} x Ga even though the ring modulus is {m}"
        )
    else:
        gen = "[F_2]" if rank % 2 == 0 else "[F_3]"
        presentation = RingPresentation(
            PresentationKind.CYCLOTOMIC_POLY, modulus=n, generators=("[L]", gen)
        )
        group = GroupScheme((f"mu_{n}", "Ga"))
    dim = krull_dimension(presentation)
    return ClassificationReport(
        curve="elliptic",
        rank=rank,
        torsion=n,
        s_set=s_set,
        presentation=presentation,
        krull_dim=dim,
        group=group,
        correspondence_holds=(dim == group.dimension),
        minimality_note=minimality,
        notes=notes,
    )


def correspondence_grid(r_max: int, n_max: int) -> tuple[ClassificationReport, ...]:
    """Reports for every (rank, torsion) in [1..r_max] x [0..n_max], rank-major.

    Each report carries dim R(E) (``krull_dim``), dim G (``group.dimension``)
    and whether they agree (``correspondence_holds``).
    """
    if r_max < 1 or n_max < 0:
        raise ValueError("grid bounds must cover at least one cell")
    return tuple(
        classify(r, n) for r in range(1, r_max + 1) for n in range(0, n_max + 1)
    )


@dataclass(frozen=True)
class P1SSet:
    """S(E) on the projective line: all twists O(k·step), or just O if step=0."""

    step: int

    def contains(self, degree: int) -> bool:
        if self.step == 0:
            return degree == 0
        return degree % self.step == 0

    def describe(self) -> list[str]:
        if self.step == 0:
            return ["O"]
        return [f"O({self.step}*k) for k in Z"]


def p1_classify(degrees) -> ClassificationReport:
    """Classification of O(a_1) ⊕ ... ⊕ O(a_k) on the projective line.

    Everything is controlled by c = gcd of the degrees: S(E) consists of the
    twists O(c·k), and R(E) is Q (c = 0, trivial group) or Q[x,x^-1]
    (c != 0, Gm).
    """
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("at least one degree is required")
    c = 0
    for d in degrees:
        c = math.gcd(c, d)
    s_set = P1SSet(c)
    if c == 0:
        presentation = RingPresentation(PresentationKind.POINT)
        group = GroupScheme(("1",))
    else:
        presentation = RingPresentation(
            PresentationKind.LAURENT, generators=(f"[O({c})]",)
        )
        group = GroupScheme(("Gm",))
    dim = krull_dimension(presentation)
    return ClassificationReport(
        curve="p1",
        degrees=degrees,
        s_set=s_set,
        presentation=presentation,
        krull_dim=dim,
        group=group,
        correspondence_holds=(dim == group.dimension),
    )


def p1_s_set_enumerate(degrees, power_bound: int) -> set[int]:
    """Degrees of the components of (⊕ O(a_i))^{⊗m} for 0 < |m| <= power_bound.

    The m-th power splits into line bundles O(d_1 + ... + d_m) over all
    choices d_i from the input degrees; negative powers contribute the
    negated degrees.
    """
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("at least one degree is required")
    if power_bound < 1:
        raise ValueError("power bound must be >= 1")
    out: set[int] = set()
    current = {0}
    for _ in range(power_bound):
        current = {c + d for c in current for d in degrees}
        out.update(current)
        out.update(-c for c in current)
    return out
