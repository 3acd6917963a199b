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
import operator
from dataclasses import dataclass
from enum import Enum

from .bundles import (
    IndecomposableBundle,
    KRingElement,
    TorsionContext,
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


@dataclass(frozen=True)
class RingPresentation:
    """R(E) as an abstract ring, plus labels for its K-ring generators."""

    kind: PresentationKind
    modulus: int | None = None
    generators: tuple[str, ...] = ()

    def __post_init__(self):
        cyclotomic = self.kind.line == "cyclotomic"
        if cyclotomic and (self.modulus is None or self.modulus < 1):
            raise ValueError("cyclotomic modulus must be >= 1")
        if not cyclotomic and self.modulus is not None:
            raise ValueError("modulus only applies to cyclotomic kinds")

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
        return self.factors.count("Gm") + self.factors.count("Ga")

    def __str__(self) -> str:
        return " x ".join(self.factors) if self.factors else "1"


@dataclass(frozen=True)
class IndexFamily:
    """One closed-form family of members L^e ⊗ F_j inside an S-set.

    Torsion contexts constrain exponents by a range of residues; the
    non-torsion context constrains them by minimum absolute value and parity.
    Either may couple the index to the exponent by j <= index_slope·|e| + 1.
    """

    description: str
    exponent_residues: range | None = None
    min_abs_exponent: int = 0
    exponent_parity: int | None = None
    index_parity: int | None = None
    index_slope: int | None = None

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


# Most steps that :func:`s_set_enumerate` or :func:`p1_s_set_enumerate` may
# take, by the estimate of :func:`_enumeration_steps` or
# :func:`_p1_enumeration_steps`.  ``sset --rank 2 --bound 1000``, about 33M
# estimated steps, enumerates and prints its 6.7 MB of text in about 0.1 s and
# 40 MB (0.2 s and 110 MB as JSON), and ``p1 0 1 7 --bound 1383`` takes about
# 3 s, on one core of a shared 2-vCPU Xeon.
MAX_ENUMERATION_STEPS = 1 << 25

# Most cells that :func:`correspondence_grid` classifies; ``grid --rmax 256
# --nmax 255``, at the limit, takes about 3.4 s on one core of a shared 2-vCPU
# Xeon.
MAX_GRID_CELLS = 1 << 16


def _enumeration_steps(rank: int, power_bound: int) -> int:
    """Upper estimate of the work of :func:`s_set_enumerate`, in steps.

    It counts the work of expanding every index of every power into the
    indices of the next and of building one class per member, neither of
    which the enumeration does any more: its real work is O(rank·B) range
    steps for the power bound B (:func:`_s_set_ranges`) plus one append per
    member.  So it is a loose bound; it stays as it was so that every
    refusal stays where it was.  The m-th power has one index for m = 1 and
    at most m(rank - 1)/2 + 1 after, so T(N) = 1 + Σ_{m=2..N} (m(rank-1)/2 +
    1) bounds the indices of the first N powers.  Each index of a power
    expands into at most rank indices of the next, and becomes a member at
    up to two line exponents; a member costs about as much as 64 steps.
    """
    def indices(n: int) -> int:
        return (rank - 1) * (n * (n + 1) // 2 - 1) // 2 + n if n else 0

    return rank * indices(power_bound - 1) + 128 * indices(power_bound)


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
    ranges propagated power by power (:func:`_s_set_ranges`).  The rows are
    filled index by index from those ranges, taken in exponent order, so
    only the at most 4B + 2 range keys are sorted, not the members, and no
    class is built per member: a caller that prints the members can name
    each line exponent once.

    Raises ``ValueError``, before any enumeration, when the work estimated
    by :func:`_enumeration_steps` would exceed :data:`MAX_ENUMERATION_STEPS`.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if power_bound < 1:
        raise ValueError("power bound must be >= 1")
    steps = _enumeration_steps(rank, power_bound)
    if steps > MAX_ENUMERATION_STEPS:
        raise ValueError(
            f"enumerating S(E) for rank {rank} up to power bound {power_bound} "
            f"would take about {steps} steps, above the limit of {MAX_ENUMERATION_STEPS}"
        )
    ranges = _s_set_ranges(rank, torsion, power_bound)
    top = max(hi for _, hi in ranges.values())
    rows: list[list[int]] = [[] for _ in range(top + 1)]
    for (e, _), (lo, hi) in sorted(ranges.items()):
        for j in range(lo, hi + 1, 2):
            rows[j].append(e)
    return tuple((j, tuple(row)) for j, row in enumerate(rows) if row)


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


# Most coefficients that :func:`express_in_generator` may write, estimated as
# index²: at most index steps of at most index coefficients each.  The
# coefficients grow to about index bits, so the time grows about as index³;
# ``express --index 4096``, at the limit, takes about 2 s on one core of a
# shared 2-vCPU Xeon and prints 1.3 MB.
MAX_EXPRESS_COEFFICIENTS = 1 << 24


def express_in_generator(index: int, chain: str = "even") -> IntegerPolynomial:
    """Polynomial writing [F_index] in the chosen generator of R(F_r).

    The "even" chain uses x = [F_2] and covers every index, via
    p_{i+1} = x·p_i - p_{i-1} (from F_i ⊗ F_2 = F_{i-1} ⊕ F_{i+1}).  The
    "odd" chain uses x = [F_3] and covers odd indices only, via
    q_{i+2} = (x - 1)·q_i - q_{i-2} (from F_i ⊗ F_3 = F_{i-2} ⊕ F_i ⊕ F_{i+2}).

    Raises ``ValueError``, before the recurrence runs, when index² exceeds
    :data:`MAX_EXPRESS_COEFFICIENTS`.
    """
    if index < 1:
        raise ValueError("index must be >= 1")
    if index * index > MAX_EXPRESS_COEFFICIENTS:
        raise ValueError(
            f"writing [F_{index}] would take about {index * index} coefficients, "
            f"above the limit of {MAX_EXPRESS_COEFFICIENTS}"
        )
    if chain == "even":
        steps = index - 2
    elif chain == "odd":
        if index % 2 == 0:
            raise ValueError("the [F_3] chain only reaches odd indices")
        steps = (index - 3) // 2
    else:
        raise ValueError("chain must be 'even' or 'odd'")
    # Coefficient lists, ascending: p_1 = 1 and p_2 = x, or q_1 = 1 and q_3 = x.
    prev, cur = [1], [0, 1]
    for _ in range(steps):
        nxt = [0, *cur]
        if chain == "odd":
            nxt[: len(cur)] = map(operator.sub, nxt, cur)
        nxt[: len(prev)] = map(operator.sub, nxt, prev)
        prev, cur = cur, nxt
    return IntegerPolynomial.of(prev if index == 1 else cur)


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


def _compose(
    order: int,
    unipotent: bool,
    generators: tuple[str, ...],
    modulus: int | None,
    *,
    curve: str,
    s_set: object,
    rank: int | None = None,
    torsion: int | None = None,
    degrees: tuple[int, ...] | None = None,
    minimality_note: str | None = None,
    notes: tuple[str, ...] = (),
) -> ClassificationReport:
    """The report for R(E) = (line factor) ⊗ (unipotent factor), and G likewise.

    The line factor is set by ``order``, the order of the line bundles
    involved (0 for infinite): none, with trivial group, for order 1; Laurent,
    with Gm, for order 0; cyclotomic of ``modulus``, with mu_order,
    otherwise.  The unipotent factor, present when ``unipotent``,
    is Q[y] with Ga.  The keyword arguments are the report's other fields.
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
        curve=curve,
        s_set=s_set,
        presentation=presentation,
        krull_dim=dim,
        group=group,
        correspondence_holds=(dim == group.dimension),
        rank=rank,
        torsion=torsion,
        degrees=degrees,
        minimality_note=minimality_note,
        notes=notes,
    )


def classify(rank: int, torsion: int) -> ClassificationReport:
    """Full classification of E = L ⊗ F_rank for L of the given torsion order.

    R(E) and G are composed by :func:`_compose` from the line factor of L's
    order n, generated by [L], and the unipotent factor, present exactly
    when rank >= 2 and generated by [F_3] at odd rank, else by [F_2].  When
    rank and n are both even, R(E) holds L^e ⊗ F_j only for e + j odd, so
    [L^2] generates the line factor, the ring modulus is n/2 while G keeps
    mu_n, and F_2 enters twisted by an odd power of L.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if torsion < 0:
        raise ValueError("torsion order must be >= 0")
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


def correspondence_grid(r_max: int, n_max: int) -> tuple[ClassificationReport, ...]:
    """Reports for every (rank, torsion) in [1..r_max] x [0..n_max], rank-major.

    Each report is that of :func:`classify` without the S-set (``s_set`` is
    ``None``): it carries dim R(E) (``krull_dim``), dim G
    (``group.dimension``) and whether they agree (``correspondence_holds``).
    Raises ``ValueError``, before classifying any cell, for more than
    :data:`MAX_GRID_CELLS` cells.
    """
    if r_max < 1 or n_max < 0:
        raise ValueError("grid bounds must cover at least one cell")
    cells = r_max * (n_max + 1)
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"a {r_max} x {n_max + 1} grid has {cells} cells, "
            f"above the limit of {MAX_GRID_CELLS}"
        )
    return tuple(
        _classify_cell(r, n, None) for r in range(1, r_max + 1) for n in range(0, n_max + 1)
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
