"""Classification of degree-zero bundles E = L^1 ⊗ F_r on an elliptic curve.

For each pair (rank r, torsion order n of L) this module produces:

* a closed-form description of S(E), the set of indecomposable components of
  all integer tensor powers of E, together with a bound-limited enumeration
  (the tensor rule applied to supports) and an independent structure-law
  prediction of what each power contributes;
* the presentation of R(E), the Q-subalgebra of K(X) ⊗ Q generated by S(E),
  with its Krull dimension;
* the minimal group scheme G such that E trivializes on a principal
  G-bundle, so that dim R(E) = dim G can be checked cell by cell.

Both are composed in one place, :func:`_compose`, from a line factor set by
the order of the line bundles and a unipotent factor (Q[y] and Ga) present
exactly when some F_r with r >= 2 occurs.

The analogous rank-one and rank-two statements over P^1 (where everything is
governed by the gcd of the degrees) are in :func:`p1_classify`, through the
same composition.
"""

from __future__ import annotations

import math
from enum import Enum

from .bundles import (
    IndecomposableBundle,
    KRingElement,
    TorsionContext,
    _set,
    _Value,
)


class PresentationKind(str, Enum):
    """R(E) up to its modulus: a line factor in x (none, Laurent or
    cyclotomic), tensored with Q[y] when there is a unipotent factor.

    Each member carries those two facts as ``line`` and ``unipotent``.
    """

    POINT = "point", None, False                               # Q
    CYCLOTOMIC = "cyclotomic", "cyclotomic", False             # Q[x]/(x^m - 1)
    POLY = "poly", None, True                                  # Q[x]
    LAURENT = "laurent", "laurent", False                      # Q[x, x^-1]
    LAURENT_POLY = "laurent_poly", "laurent", True             # Q[x, x^-1] ⊗ Q[y]
    CYCLOTOMIC_POLY = "cyclotomic_poly", "cyclotomic", True    # Q[x]/(x^m - 1) ⊗ Q[y]

    def __new__(cls, value: str, line: str | None, unipotent: bool):
        kind = str.__new__(cls, value)
        kind._value_ = value
        kind.line = line
        kind.unipotent = unipotent
        return kind


_KINDS = {(kind.line, kind.unipotent): kind for kind in PresentationKind}


class RingPresentation(_Value):
    """R(E) as an abstract ring, plus labels for its K-ring generators."""

    __slots__ = ("kind", "modulus", "generators")

    def __init__(
        self, kind: PresentationKind, modulus: int | None = None, generators: tuple[str, ...] = ()
    ):
        cyclotomic = kind.line == "cyclotomic"
        if cyclotomic and (modulus is None or modulus < 1):
            raise ValueError("cyclotomic modulus must be >= 1")
        if not cyclotomic and modulus is not None:
            raise ValueError("modulus only applies to cyclotomic kinds")
        _set(self, "kind", kind)
        _set(self, "modulus", modulus)
        _set(self, "generators", generators)

    def __str__(self) -> str:
        line = self.kind.line
        if line == "laurent":
            factors = ["Q[x,x^-1]"]
        elif line == "cyclotomic":
            factors = [f"Q[x]/(x^{self.modulus} - 1)"]
        else:
            factors = []
        if self.kind.unipotent:
            factors.append("Q[y]" if factors else "Q[x]")
        return " ⊗ ".join(factors) or "Q"


def krull_dimension(presentation: RingPresentation) -> int:
    """Krull dimension of the presented ring: 1 for a Laurent line factor,
    plus 1 for the unipotent factor (a cyclotomic factor is Artinian)."""
    kind = presentation.kind
    return (kind.line == "laurent") + kind.unipotent


class GroupScheme(_Value):
    """A finite product of the factors 1, mu_m, Gm, Ga."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[str, ...]):
        for f in factors:
            if f in ("1", "Gm", "Ga") or f.startswith("mu_"):
                continue
            raise ValueError(f"unknown group factor {f!r}")
        _set(self, "factors", factors)

    @property
    def dimension(self) -> int:
        return self.factors.count("Gm") + self.factors.count("Ga")

    def __str__(self) -> str:
        return " x ".join(self.factors) if self.factors else "1"


class IndexFamily(_Value):
    """One closed-form family of members L^e ⊗ F_j inside an S-set.

    Torsion contexts constrain exponents by a range of residues; the
    non-torsion context constrains them by minimum absolute value and parity.
    Either may couple the index to the exponent by j <= index_slope·|e| + 1.
    """

    __slots__ = ("description", "exponent_residues", "min_abs_exponent", "exponent_parity",
                 "index_parity", "index_slope")

    def __init__(
        self,
        description: str,
        exponent_residues: range | None = None,
        min_abs_exponent: int = 0,
        exponent_parity: int | None = None,
        index_parity: int | None = None,
        index_slope: int | None = None,
    ):
        _set(self, "description", description)
        _set(self, "exponent_residues", exponent_residues)
        _set(self, "min_abs_exponent", min_abs_exponent)
        _set(self, "exponent_parity", exponent_parity)
        _set(self, "index_parity", index_parity)
        _set(self, "index_slope", index_slope)

    def contains(self, bundle: IndecomposableBundle) -> bool:
        e, j = bundle.exponent, bundle.index
        a = abs(e)
        if self.index_parity is not None and j % 2 != self.index_parity:
            return False
        if self.index_slope is not None and j > self.index_slope * a + 1:
            return False
        if self.exponent_residues is not None:
            return e in self.exponent_residues
        if a < self.min_abs_exponent:
            return False
        if self.exponent_parity is not None and a % 2 != self.exponent_parity:
            return False
        return True


class SSetDescription(_Value):
    """S(E) as a finite part plus closed-form infinite families."""

    __slots__ = ("context", "finite_part", "families")

    def __init__(
        self,
        context: TorsionContext,
        finite_part: tuple[IndecomposableBundle, ...],
        families: tuple[IndexFamily, ...],
    ):
        _set(self, "context", context)
        _set(self, "finite_part", finite_part)
        _set(self, "families", families)

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
        if n == 1:
            return SSetDescription(ctx, (ctx.bundle(),), ())
        fam = IndexFamily(
            f"L^e for e in 0..{n - 1}",
            exponent_residues=range(n),
            index_slope=0,
        )
        return SSetDescription(ctx, (), (fam,))
    if n == 1:
        if rank % 2 == 0:
            fam = IndexFamily("F_j for j >= 1", exponent_residues=range(1))
        else:
            fam = IndexFamily("F_j for odd j", exponent_residues=range(1), index_parity=1)
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
    residues = range(n)
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
            exponent_residues=range(0, n, 2),
            index_parity=1,
        ),
        IndexFamily(
            f"L^e*F_j for odd e in 1..{n - 1}, j even",
            exponent_residues=range(1, n, 2),
            index_parity=0,
        ),
    )
    return SSetDescription(ctx, (), fams)


# Most steps of :func:`s_set_enumerate` (:func:`_s_set_steps`) or of
# :func:`p1_s_set_enumerate`; ``p1 0 1 7 --bound 1383``, at the limit, takes
# 1.4-1.5 s and 20 MB in a fresh process on one core of a shared 2-vCPU Xeon.
MAX_ENUMERATION_STEPS = 1 << 25

# Most cells that :func:`correspondence_grid` fills; ``grid --rmax 256
# --nmax 255``, at the limit, takes 0.17-0.2 s and 29 MB (0.2-0.3 s and
# 46 MB as JSON) in a fresh process on one core of a shared 2-vCPU Xeon
# (Python 3.11), where ``classify --rank 2 --torsion 4`` takes 0.08 s.
MAX_GRID_CELLS = 1 << 16


def _s_set_steps(rank: int, torsion: int, power_bound: int) -> int:
    """Upper estimate of the work of :func:`s_set_enumerate` and of printing
    its members, in the set insertions of :func:`_p1_enumeration_steps`: B
    propagation steps (:func:`_s_set_ranges`) for the power bound B; 2B range
    keys (±m, one index parity each), at most 2n over L of order n; one row
    per index up to the top (rank − 1)·B + 1, one for B = 1; and the members,
    F_rank at ±1 and floor((rank − 1)·m/2) + 1 indices at each ±m, m >= 2, or
    over L of order n at most the top at each of min(n, 2B) exponents.
    Measured on one core of a shared 2-vCPU Xeon (Python 3.11, fresh
    process), where an insertion takes about 40 ns: a step 0.65-1.1 us
    (weight 37), a key with its member 1.7 us and 290 bytes (16 + 30), a
    member 0.25 us and up to 130 bytes as JSON, a row of its own 1.0 us and
    120 bytes more (30 each).  Memory sets the member and row weights: below
    the limit no call costs more than ``sset --rank 1 --bound 260000``.
    """
    top = (rank - 1) * power_bound + 1
    rows = top if power_bound > 1 else 1
    keys = 2 * power_bound
    members = 2 * power_bound + (rank - 1) * (power_bound * (power_bound + 1) - 2) // 2
    if torsion:
        keys = min(keys, 2 * torsion)
        members = min(members, min(torsion, 2 * power_bound) * top)
    return 37 * power_bound + 16 * keys + 30 * (members + rows)


def _s_set_ranges(rank: int, torsion: int, power_bound: int) -> dict[tuple[int, int], list[int]]:
    """The indices of S(E) up to the power bound, as one step-2 range
    ``[lo, hi]`` per (reduced line exponent, index parity) reached.

    Every component of the m-th power of L ⊗ F_rank sits at line exponent
    m, and its indices are those of the (m-1)-th power each multiplied by
    F_rank.  They form one step-2 range lo, lo + 2, ..., hi, which
    propagates as a range: the next power has hi + rank - 1 on top and, at
    the bottom, 1 plus the distance from rank to the nearest index of the
    range.  Multiplicities are positive and never cancel, so the support is
    exact.  The negative powers are the duals of the positive ones.  Per
    (reduced exponent, index parity) the union over the powers is again one
    range, from the least bottom to the greatest top.
    """
    reduce = TorsionContext(torsion).reduce_exponent
    ranges: dict[tuple[int, int], list[int]] = {}  # (exponent, parity) -> [lo, hi]
    lo = hi = rank
    for m in range(1, power_bound + 1):
        if m > 1:
            gap = lo - rank if rank < lo else rank - hi if rank > hi else (rank - lo) & 1
            lo, hi = gap + 1, hi + rank - 1
        for e in {reduce(m), reduce(-m)}:
            bounds = ranges.get((e, lo & 1))
            if bounds is None:
                ranges[e, lo & 1] = [lo, hi]
            else:
                bounds[0], bounds[1] = min(bounds[0], lo), max(bounds[1], hi)
    return ranges


def s_set_enumerate(
    rank: int, torsion: int, power_bound: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Union of the supports of (L ⊗ F_rank)^{⊗m} over 0 < |m| <= power_bound,
    as rows ``(j, (e_1, e_2, ...))``: one row per index j that has a member,
    in increasing j, holding the line exponents e of its members L^e ⊗ F_j
    in increasing order.  Read row by row, the members come in print order
    (by index, then exponent), each once.

    The indices come from the Clebsch-Gordan rule on supports alone, as
    ranges propagated power by power (:func:`_s_set_ranges`).  The rows,
    from the lowest index reached to the top, are filled from those ranges
    taken in exponent order, so only the at most 2B range keys are sorted,
    not the members, and no class is built per member: a caller that prints
    the members can name each line exponent once.

    Raises ``ValueError``, before any propagation, when :func:`_s_set_steps`
    counts more than :data:`MAX_ENUMERATION_STEPS`, the limit p1 shares.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if power_bound < 1:
        raise ValueError("power bound must be >= 1")
    steps = _s_set_steps(rank, torsion, power_bound)
    if steps > MAX_ENUMERATION_STEPS:
        raise ValueError(
            f"enumerating S(E) for rank {rank} up to power bound {power_bound} "
            f"would take about {steps} steps, above the limit of {MAX_ENUMERATION_STEPS}"
        )
    ranges = _s_set_ranges(rank, torsion, power_bound)
    bottom = min(lo for lo, _ in ranges.values())
    top = max(hi for _, hi in ranges.values())
    rows: list[list[int]] = [[] for _ in range(top - bottom + 1)]
    for (e, _), (lo, hi) in sorted(ranges.items()):
        for j in range(lo - bottom, hi - bottom + 1, 2):
            rows[j].append(e)
    return tuple((j, tuple(row)) for j, row in enumerate(rows, bottom) if row)


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


class IntegerPolynomial(_Value):
    """Polynomial with integer coefficients, stored ascending by degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        _set(self, "coefficients", coefficients)

    @classmethod
    def of(cls, coefficients) -> IntegerPolynomial:
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

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


# Largest index² that :func:`express_in_generator` admits, so index <= 4096.
# Both chains take O(index) big-integer steps (about 1.3 ms at the limit);
# what grows is the output, about index/2 coefficients of up to about
# 0.7·index bits, so its size grows as index².  In a fresh process on one
# core of a shared 2-vCPU Xeon (Python 3.11), ``express --index 4096`` prints
# 1.3 MB (2.6 MB as JSON) in about 0.07 s (0.085 s), and ``express --index
# 4095 --chain odd`` 0.77 MB (1.5 MB) in about 0.06 s (0.07 s), of which
# about 0.055 s is starting the interpreter and importing the package.
MAX_EXPRESS_COEFFICIENTS = 1 << 24


def _even_chain(index: int) -> list[int]:
    """Coefficients, ascending, of p_index = Σ_k (-1)^k C(d-k, k) x^(d-2k), d = index - 1.

    Each coefficient follows from the one before it by the term ratio
    C(d-k-1, k+1) / C(d-k, k) = (d-2k)(d-2k-1) / ((k+1)(d-k)), with the sign
    alternating; the division is exact.
    """
    d = index - 1
    coeffs = [0] * index
    c = coeffs[d] = 1
    for k in range(d // 2):
        c = -c * (d - 2 * k) * (d - 2 * k - 1) // ((k + 1) * (d - k))
        coeffs[d - 2 * k - 2] = c
    return coeffs


def _odd_chain(index: int) -> list[int]:
    """Coefficients, ascending, of q_index for an odd index, from the top one down.

    F_2 ⊗ F_2 = O ⊕ F_3, so [F_3] = y² - 1 in y = [F_2], and p_index is even
    in y: q_index(x) = p_index(sqrt(x + 1)).  p_index(y) = U_(index-1)(y/2)
    solves (4 - y²)p'' - 3y·p' + (index² - 1)p = 0, so q = q_index solves
    4(x + 1)(3 - x)q'' - 8x·q' + (index² - 1)q = 0.  Its coefficients a_m,
    with j = (index - 1)/2, a_j = 1 and a_(j+1) = 0, then satisfy
    3(m + 2)(m + 1)a_(m+2) + 2m(m + 1)a_(m+1) + (j - m)(j + m + 1)a_m = 0;
    the division by (j - m)(j + m + 1) is exact.
    """
    j = (index - 1) // 2
    coeffs = [0] * (j + 2)
    coeffs[j] = 1
    for m in range(j - 1, -1, -1):
        coeffs[m] = -(
            3 * (m + 2) * (m + 1) * coeffs[m + 2] + 2 * m * (m + 1) * coeffs[m + 1]
        ) // ((j - m) * (j + m + 1))
    del coeffs[-1]
    return coeffs


def express_in_generator(index: int, chain: str = "even") -> IntegerPolynomial:
    """Polynomial writing [F_index] in the chosen generator of R(F_r).

    The "even" chain uses x = [F_2] and covers every index.  By
    F_i ⊗ F_2 = F_(i-1) ⊕ F_(i+1), p_(i+1) = x·p_i - p_(i-1), so p_i is the
    Chebyshev polynomial U_(i-1)(x/2), whose closed form
    p_i = Σ_k (-1)^k C(i-1-k, k) x^(i-1-2k) is written in one pass by the
    term ratio -(d-2k)(d-2k-1) / ((k+1)(d-k)), d = i - 1 (:func:`_even_chain`).

    The "odd" chain uses x = [F_3] and covers odd indices only.  By
    F_i ⊗ F_3 = F_(i-2) ⊕ F_i ⊕ F_(i+2), q_(i+2) = (x - 1)·q_i - q_(i-2); its
    coefficients have no term ratio, but follow a three-term recurrence from
    the top one down (:func:`_odd_chain`), also in one pass.  That route was
    kept over the two O(index²) ones, the Taylor shift by 1 of U_j + U_(j-1)
    in x - 1 and the recurrence in i: at index 4095 (one core of a shared
    2-vCPU Xeon, Python 3.11) it takes about 1.1 ms, against 170 ms and
    230 ms.

    Raises ``ValueError`` when index² exceeds :data:`MAX_EXPRESS_COEFFICIENTS`.
    """
    if index < 1:
        raise ValueError("index must be >= 1")
    if index * index > MAX_EXPRESS_COEFFICIENTS:
        raise ValueError(
            f"[F_{index}] would print about {index // 2} coefficients of up to "
            f"about {7 * index // 10} bits, above the output limit of index^2 <= "
            f"{MAX_EXPRESS_COEFFICIENTS} (index <= {math.isqrt(MAX_EXPRESS_COEFFICIENTS)})"
        )
    if chain == "even":
        return IntegerPolynomial.of(_even_chain(index))
    if chain != "odd":
        raise ValueError("chain must be 'even' or 'odd'")
    if index % 2 == 0:
        raise ValueError("the [F_3] chain only reaches odd indices")
    return IntegerPolynomial.of(_odd_chain(index))


class ClassificationReport(_Value):
    """Everything the classification knows about one input bundle."""

    __slots__ = ("curve", "s_set", "presentation", "krull_dim", "group", "correspondence_holds",
                 "rank", "torsion", "degrees", "minimality_note", "notes")

    def __init__(
        self,
        curve: str,  # "elliptic" or "p1"
        s_set: object,
        presentation: RingPresentation,
        krull_dim: int,
        group: GroupScheme,
        correspondence_holds: bool,
        rank: int | None = None,
        torsion: int | None = None,
        degrees: tuple[int, ...] | None = None,
        minimality_note: str | None = None,
        notes: tuple[str, ...] = (),
    ):
        _set(self, "curve", curve)
        _set(self, "s_set", s_set)
        _set(self, "presentation", presentation)
        _set(self, "krull_dim", krull_dim)
        _set(self, "group", group)
        _set(self, "correspondence_holds", correspondence_holds)
        _set(self, "rank", rank)
        _set(self, "torsion", torsion)
        _set(self, "degrees", degrees)
        _set(self, "minimality_note", minimality_note)
        _set(self, "notes", notes)


def _compose(
    order: int, unipotent: bool, generators: tuple[str, ...], modulus: int | None, **fields
) -> ClassificationReport:
    """The report for R(E) = (line factor) ⊗ (unipotent factor), and G likewise.

    The line factor is set by ``order``, the order of the line bundles
    involved (0 for infinite): none, with trivial group, for order 1; Laurent,
    with Gm, for order 0; cyclotomic of ``modulus``, with mu_order,
    otherwise.  The unipotent factor, present when ``unipotent``,
    is Q[y] with Ga.  ``fields`` are the report's other fields, passed on to
    :class:`ClassificationReport`, whose defaults fill those left out.
    """
    if order == 1:
        line, group, modulus = None, (), None
    elif order == 0:
        line, group, modulus = "laurent", ("Gm",), None
    else:
        line, group = "cyclotomic", (f"mu_{order}",)
    if unipotent:
        group += ("Ga",)
    presentation = RingPresentation(_KINDS[line, unipotent], modulus, generators)
    group = GroupScheme(group or ("1",))
    dim = krull_dimension(presentation)
    return ClassificationReport(
        presentation=presentation,
        krull_dim=dim,
        group=group,
        correspondence_holds=(dim == group.dimension),
        **fields,
    )


def classify(rank: int, torsion: int) -> ClassificationReport:
    """Full classification of E = L ⊗ F_rank for L of the given torsion order.

    R(E) and G are composed by :func:`_compose` from the line factor of L's
    order n, generated by [L], and the unipotent factor, present exactly
    when rank >= 2 and generated by [F_3] at odd rank, else by [F_2].  When
    rank and n are both even, R(E) holds L^e ⊗ F_j only for e + j odd, so
    [L^2] generates the line factor, the ring modulus is n/2 while G keeps
    mu_n, and F_2 enters twisted by an odd power of L.  Its callees raise
    ``ValueError`` for rank < 1, then for torsion < 0.
    """
    return _classify_cell(rank, torsion, s_set_symbolic(rank, torsion))


def _classify_cell(rank: int, n: int, s_set: SSetDescription | None) -> ClassificationReport:
    """:func:`classify` for a valid rank and torsion order n, with ``s_set``
    as the report's S-set (``None`` for a grid cell, which prints none)."""
    both_even = rank % 2 == 0 and n % 2 == 0
    generators = () if n == 1 else ("[L^2]",) if both_even else ("[L]",)
    minimality = None
    notes: tuple[str, ...] = ()
    if rank == 1:
        if n == 0:
            notes = (
                "rank-1 non-torsion case: L alone trivializes on a Gm-torsor; "
                "included for completeness beyond the rank >= 2 case analysis",
            )
    elif rank % 2 == 1:
        generators += ("[F_3]",)
    elif not both_even:
        generators += ("[F_2]",)
    elif n == 0:
        generators += ("[L^-1*F_2]",)
    else:
        generators += ("[L*F_2]",)
        m = n // 2
        det = rank % n
        minimality = (
            f"mu_{m} x Ga does not suffice, although det E = {IndecomposableBundle(det, 1)} "
            f"has order {n // math.gcd(n, det)}, which divides {m}: by Atiyah's "
            f"classification L*F_{rank} determines L, so a torsor that trivializes E "
            f"also trivializes L, and L has exact order {n}; the minimal group is "
            f"mu_{n} x Ga even though the ring modulus is {m}"
        )
    return _compose(
        n,
        rank > 1,
        generators,
        n // 2 if both_even else n,
        curve="elliptic",
        rank=rank,
        torsion=n,
        s_set=s_set,
        minimality_note=minimality,
        notes=notes,
    )


def correspondence_grid(r_max: int, n_max: int) -> tuple[tuple[int, int, int, int], ...]:
    """Rows ``(rank, torsion, krull_dim, group_dim)`` for every (rank, torsion)
    in [1..r_max] x [0..n_max], rank-major: dim R(E) and dim G of that cell.

    :func:`_compose` sets both dimensions from two facts only: the order
    class of L (0, 1 or >= 2) and whether rank >= 2.  So one representative
    cell per class, ranks 1 and 2 by torsion 0, 1 and 2, at most six per
    grid, goes through :func:`_classify_cell`, the route by which
    :func:`classify` reaches its ``krull_dim`` (:func:`krull_dimension`) and
    ``group.dimension``; each rank's row is filled from the three
    (krull_dim, group_dim) pairs of its class, and no other cell is
    classified on its own.  Raises ``ValueError``, before classifying any
    cell, for more than :data:`MAX_GRID_CELLS` cells.
    """
    if r_max < 1 or n_max < 0:
        raise ValueError("grid bounds must cover at least one cell")
    cells = r_max * (n_max + 1)
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"a {r_max} x {n_max + 1} grid has {cells} cells, "
            f"above the limit of {MAX_GRID_CELLS}"
        )
    classes = []  # per rank class (1, >= 2): the pair of each torsion n
    for rank in range(1, min(r_max, 2) + 1):
        pairs = []
        for n in range(min(n_max, 2) + 1):
            report = _classify_cell(rank, n, None)
            pairs.append((report.krull_dim, report.group.dimension))
        classes.append(pairs + pairs[2:] * (n_max - 2))  # n >= 2 as n = 2
    return tuple(
        (r, n, krull_dim, group_dim)
        for r in range(1, r_max + 1)
        for n, (krull_dim, group_dim) in enumerate(classes[r > 1])
    )


class P1SSet(_Value):
    """S(E) on the projective line: all twists O(k·step), or just O if step=0."""

    __slots__ = ("step",)

    def __init__(self, step: int):
        _set(self, "step", step)

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
    # O(c) has infinite order in Pic(P^1) unless c = 0, and no F_r occurs.
    generators = (f"[O({c})]",) if c else ()
    return _compose(
        0 if c else 1, False, generators, None, curve="p1", degrees=degrees, s_set=P1SSet(c)
    )


def _p1_enumeration_steps(degrees: tuple[int, ...], power_bound: int) -> int:
    """Upper estimate of the work of :func:`p1_s_set_enumerate`, in set
    insertions, cut short once it passes :data:`MAX_ENUMERATION_STEPS`.

    The m-th power has at most min(comb(m + d - 1, m), m·spread + 1) degrees
    for d distinct input degrees spread over ``spread``; each meets all k
    input degrees on the way to the next power and enters the result twice,
    and a power costs about as much as 16 steps besides.
    """
    k, d = len(degrees), len(set(degrees))
    steps = power_bound * (k + 18)  # the least: one degree per power
    if d == 1 or steps > MAX_ENUMERATION_STEPS:
        return steps
    spread = max(degrees) - min(degrees)
    sums = 1  # comb(m + d - 1, m), capped once it passes the limit
    for m in range(1, power_bound + 1):
        sums = min(sums * (d + m - 1) // m, MAX_ENUMERATION_STEPS + 1)
        steps += (min(sums, m * spread + 1) - 1) * (k + 2)
        if steps > MAX_ENUMERATION_STEPS:
            break
    return steps


def p1_s_set_enumerate(degrees, power_bound: int) -> set[int]:
    """Degrees of the components of (⊕ O(a_i))^{⊗m} for 0 < |m| <= power_bound.

    The m-th power splits into line bundles O(d_1 + ... + d_m) over all
    choices d_i from the input degrees; negative powers contribute the
    negated degrees.

    Raises ``ValueError``, before any enumeration, when the work would exceed
    :data:`MAX_ENUMERATION_STEPS`.
    """
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("at least one degree is required")
    if power_bound < 1:
        raise ValueError("power bound must be >= 1")
    steps = _p1_enumeration_steps(degrees, power_bound)
    if steps > MAX_ENUMERATION_STEPS:
        raise ValueError(
            f"enumerating degrees up to power bound {power_bound} would take "
            f"more than the limit of {MAX_ENUMERATION_STEPS} steps"
        )
    out: set[int] = set()
    current = {0}
    for _ in range(power_bound):
        current = {c + d for c in current for d in degrees}
        out.update(current)
        out.update(-c for c in current)
    return out
