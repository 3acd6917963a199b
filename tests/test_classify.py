"""Classification: case table, S-sets, generator polynomials, P^1 analogue."""

import inspect
import math
import operator
import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah import (
    BundleSum,
    IntegerPolynomial,
    KRingElement,
    PresentationKind,
    RingPresentation,
    TorsionContext,
    classify,
    correspondence_grid,
    express_in_generator,
    krull_dimension,
    p1_classify,
    p1_s_set_enumerate,
    s_set_enumerate,
    s_set_reachable,
    s_set_symbolic,
)
from atiyah.bundles import component_indices
from atiyah.classify import (
    MAX_ENUMERATION_STEPS,
    MAX_EXPRESS_COEFFICIENTS,
    _even_chain,
    _odd_chain,
    _p1_enumeration_steps,
    _s_set_ranges,
    _s_set_steps,
)
from s_sets import reference_s_sets, s_set_members

# The module: the package binds the name atiyah.classify to the function.
classify_module = sys.modules["atiyah.classify"]

NT = TorsionContext(0)


# -- Krull dimension of the presentation family --------------------------------

@pytest.mark.parametrize(
    "presentation, dim",
    [
        (RingPresentation(PresentationKind.POINT), 0),
        (RingPresentation(PresentationKind.CYCLOTOMIC, modulus=5), 0),
        (RingPresentation(PresentationKind.POLY), 1),
        (RingPresentation(PresentationKind.LAURENT), 1),
        (RingPresentation(PresentationKind.LAURENT_POLY), 2),
        (RingPresentation(PresentationKind.CYCLOTOMIC_POLY, modulus=3), 1),
    ],
)
def test_krull_dimension_table(presentation, dim):
    assert krull_dimension(presentation) == dim


def test_cyclotomic_modulus_validated():
    with pytest.raises(ValueError):
        RingPresentation(PresentationKind.CYCLOTOMIC, modulus=0)
    with pytest.raises(ValueError):
        RingPresentation(PresentationKind.POLY, modulus=2)


# -- the classification case table ----------------------------------------------

def test_classify_trivial_bundle():
    report = classify(1, 1)
    assert report.presentation.kind is PresentationKind.POINT
    assert str(report.group) == "1"
    assert report.krull_dim == 0
    assert report.correspondence_holds


def test_classify_torsion_line():
    report = classify(1, 5)
    assert report.presentation.kind is PresentationKind.CYCLOTOMIC
    assert report.presentation.modulus == 5
    assert str(report.group) == "mu_5"
    assert report.krull_dim == 0


def test_classify_nontorsion_line_flagged_as_extension():
    report = classify(1, 0)
    assert report.presentation.kind is PresentationKind.LAURENT
    assert str(report.group) == "Gm"
    assert report.krull_dim == 1
    assert report.notes


def test_classify_plain_atiyah_odd():
    report = classify(3, 1)
    assert report.presentation.kind is PresentationKind.POLY
    assert report.presentation.generators == ("[F_3]",)
    assert str(report.group) == "Ga"
    assert report.krull_dim == 1
    assert report.correspondence_holds


def test_classify_plain_atiyah_even():
    report = classify(4, 1)
    assert report.presentation.generators == ("[F_2]",)


def test_classify_nontorsion_even_rank():
    report = classify(4, 0)
    assert report.presentation.kind is PresentationKind.LAURENT_POLY
    assert report.presentation.generators == ("[L^2]", "[L^-1*F_2]")
    assert str(report.group) == "Gm x Ga"
    assert report.krull_dim == 2
    assert report.correspondence_holds


def test_classify_nontorsion_odd_rank():
    report = classify(3, 0)
    assert report.presentation.generators == ("[L]", "[F_3]")


def test_classify_torsion_not_both_even():
    report = classify(2, 3)
    assert report.presentation.kind is PresentationKind.CYCLOTOMIC_POLY
    assert report.presentation.modulus == 3
    assert report.presentation.generators == ("[L]", "[F_2]")
    assert str(report.group) == "mu_3 x Ga"
    assert report.minimality_note is None


def test_classify_both_even():
    report = classify(2, 4)
    assert report.presentation.kind is PresentationKind.CYCLOTOMIC_POLY
    assert report.presentation.modulus == 2
    assert report.presentation.generators == ("[L^2]", "[L*F_2]")
    assert str(report.group) == "mu_4 x Ga"
    assert report.krull_dim == 1
    assert report.correspondence_holds
    assert report.minimality_note


def test_classify_rejects_bad_rank():
    with pytest.raises(ValueError):
        classify(0, 1)


def test_both_even_minimality_encoding():
    for r in (2, 4, 6):
        for n in (2, 4, 6, 8):
            report = classify(r, n)
            assert report.presentation.modulus == n // 2
            assert report.group.factors[0] == f"mu_{n}"
            assert report.minimality_note
            assert report.krull_dim == report.group.dimension


# -- S-set descriptions -----------------------------------------------------------

def test_s_set_symbolic_even_rank_trivial_line():
    desc = s_set_symbolic(2, 1)
    assert desc.finite_part == ()
    ctx = TorsionContext(1)
    assert all(desc.contains(ctx.atiyah(j)) for j in range(1, 9))


def test_s_set_symbolic_odd_rank_torsion():
    desc = s_set_symbolic(3, 2)
    ctx = TorsionContext(2)
    assert desc.contains(ctx.bundle(1, 5))
    assert desc.contains(ctx.bundle(0, 7))
    assert not desc.contains(ctx.bundle(0, 2))


def test_s_set_symbolic_both_even_coupling():
    desc = s_set_symbolic(2, 2)
    ctx = TorsionContext(2)
    assert desc.contains(ctx.bundle(0, 3))
    assert desc.contains(ctx.bundle(1, 2))
    assert not desc.contains(ctx.bundle(1, 3))
    assert not desc.contains(ctx.bundle(0, 2))


def test_s_set_symbolic_nontorsion_families():
    desc = s_set_symbolic(2, 0)
    assert NT.bundle(1, 2) in desc.finite_part
    assert desc.contains(NT.bundle(2, 3))
    assert desc.contains(NT.bundle(-3, 4))
    assert not desc.contains(NT.bundle(1, 4))      # power 1 only reaches F_2
    assert not desc.contains(NT.bundle(2, 9))      # above the (r-1)|e|+1 cap


def test_s_set_symbolic_rank_one_torsion_is_one_family():
    for n in (2, 3, 7):
        desc = s_set_symbolic(1, n)
        ctx = TorsionContext(n)
        assert desc.finite_part == ()
        assert desc.describe() == [f"L^e for e in 0..{n - 1}"]
        assert all(desc.contains(ctx.line(e)) for e in range(n))
        assert not any(desc.contains(ctx.bundle(e, j)) for e in range(n) for j in (2, 3, 4))


def test_s_set_symbolic_is_constant_size_in_the_torsion():
    n = 10**9
    desc = s_set_symbolic(1, n)
    assert desc.families[0].exponent_residues == range(n)
    assert desc.contains(TorsionContext(n).line(n - 1))
    for fam in s_set_symbolic(10**9, n).families:
        assert isinstance(fam.exponent_residues, range)
    assert classify(1, n).krull_dim == 0


def test_s_set_enumerate_examples():
    ctx1 = TorsionContext(1)
    assert set(s_set_members(s_set_enumerate(2, 1, 3))) == {
        ctx1.atiyah(1), ctx1.atiyah(2), ctx1.atiyah(3), ctx1.atiyah(4)
    }
    ctx3 = TorsionContext(3)
    assert set(s_set_members(s_set_enumerate(1, 3, 4))) == {
        ctx3.line(0), ctx3.line(1), ctx3.line(2)
    }
    assert set(s_set_members(s_set_enumerate(1, 1, 5))) == {ctx1.bundle()}


@pytest.mark.parametrize("rank", range(1, 6))
@pytest.mark.parametrize("torsion", (0, 1, 2, 3, 4))
def test_enumeration_matches_structure_law(rank, torsion):
    for bound in (1, 2, 5):
        enumerated = set(s_set_members(s_set_enumerate(rank, torsion, bound)))
        assert enumerated == s_set_reachable(rank, torsion, bound)
        symbolic = s_set_symbolic(rank, torsion)
        assert all(symbolic.contains(b) for b in enumerated)


def brute_force_s_set(rank, torsion, bound):
    """Supports of the powers of L*F_rank, from the full tensor products."""
    ctx = TorsionContext(torsion)
    base = BundleSum.single(ctx, ctx.bundle(1, rank))
    out = set()
    power = base
    for m in range(1, bound + 1):
        if m > 1:
            power = power.tensor(base)
        out.update(power.terms)
        out.update(power.dual().terms)
    return out


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_brute_force(rank, torsion, bound):
    enumerated = set(s_set_members(s_set_enumerate(rank, torsion, bound)))
    assert enumerated == brute_force_s_set(rank, torsion, bound)


@pytest.mark.parametrize("rank", range(1, 13))
def test_enumeration_matches_set_expansion(rank):
    # Torsion 61 and 10^9 exceed twice every bound, so the residues reached
    # are 1..B and n-B..n-1.
    for torsion in (*range(13), 61, 10**9):
        for bound, reference in enumerate(reference_s_sets(rank, torsion, 30), start=1):
            rows = s_set_enumerate(rank, torsion, bound)
            assert all(exponents for _, exponents in rows)
            enumerated = s_set_members(rows)
            assert enumerated == tuple(sorted(reference)), (rank, torsion, bound)
            assert all(a < b for a, b in zip(enumerated, enumerated[1:]))


def counted_enumeration_work(rank, torsion, bound):
    """The propagation steps, range keys, rows (empty ones included) and
    members of the enumeration, counted and weighted as ``_s_set_steps``
    weighs them."""
    keys = len(_s_set_ranges(rank, torsion, bound))
    rows = s_set_enumerate(rank, torsion, bound)
    members = sum(len(exponents) for _, exponents in rows)
    allocated = rows[-1][0] - rows[0][0] + 1  # the lowest to the top index
    return 37 * bound + 16 * keys + 30 * (members + allocated)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=80, deadline=None)
def test_enumeration_estimate_bounds_the_work(rank, torsion, bound):
    assert counted_enumeration_work(rank, torsion, bound) <= _s_set_steps(rank, torsion, bound)


def old_enumeration_steps(rank, bound):
    """The estimate that sset was refused by before it counted its own work:
    an index expansion and 64 steps per class that it no longer does.  Kept
    only to show that no refusal moved inward."""
    def indices(n):
        return (rank - 1) * (n * (n + 1) // 2 - 1) // 2 + n if n else 0

    return rank * indices(bound - 1) + 128 * indices(bound)


@pytest.mark.parametrize("torsion", [0, 1, 2, 3, 4, 6, 61, 10**9])
def test_enumeration_accepts_every_bound_the_old_estimate_accepted(torsion):
    for rank in range(1, 301):
        bound = 1
        while old_enumeration_steps(rank, bound) <= MAX_ENUMERATION_STEPS:
            bound += 1
        # bound is now one past the old boundary, so these are every bound
        # the old estimate accepted.
        for accepted in range(1, bound):
            assert _s_set_steps(rank, torsion, accepted) <= MAX_ENUMERATION_STEPS, rank


def test_enumeration_refuses_on_its_own_count():
    # Over non-torsion L, rank 1 keeps its boundary (129 steps a power);
    # a torsion order of 1 leaves one key and one member.
    assert _s_set_steps(1, 0, 260111) <= MAX_ENUMERATION_STEPS < _s_set_steps(1, 0, 260112)
    with pytest.raises(ValueError, match="limit"):
        s_set_enumerate(1, 0, 260112)
    assert _s_set_steps(1, 1, 900000) <= MAX_ENUMERATION_STEPS
    with pytest.raises(ValueError, match="limit"):
        s_set_enumerate(1, 1, 10**8)
    # One power of a large rank holds F_rank alone, in one row.
    assert s_set_enumerate(10**9, 0, 1) == ((10**9, (-1, 1)),)
    assert s_set_enumerate(10**9, 3, 1) == ((10**9, (1, 2)),)


def counted_p1_work(degrees, bound):
    """Set insertions of the P^1 enumeration plus 16 per power, counted."""
    steps = 0
    current = {0}
    for _ in range(bound):
        steps += len(current) * len(degrees) + 16
        current = {c + d for c in current for d in degrees}
        steps += 2 * len(current)
    return steps


@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=15),
)
@settings(max_examples=80, deadline=None)
def test_p1_enumeration_estimate_bounds_the_work(degrees, bound):
    assert counted_p1_work(degrees, bound) <= _p1_enumeration_steps(tuple(degrees), bound)


def test_p1_enumeration_at_the_step_limit_computes():
    degrees, bound = (0, 1, 7), 1383
    assert _p1_enumeration_steps(degrees, bound) <= MAX_ENUMERATION_STEPS
    found = p1_s_set_enumerate(degrees, bound)
    assert max(found) == 7 * bound and min(found) == -7 * bound
    assert 7 * bound - 1 not in found  # one short of the top needs a 6
    with pytest.raises(ValueError, match="limit"):
        p1_s_set_enumerate(degrees, bound + 1)
    # Far-apart degrees make few sums, whatever their spread.
    assert p1_s_set_enumerate((0, 10**9), 300) == {k * 10**9 for k in range(-300, 301)}


# -- generator polynomials ----------------------------------------------------------

def test_even_chain_values():
    assert express_in_generator(1, "even") == IntegerPolynomial.of([1])
    assert express_in_generator(2, "even") == IntegerPolynomial.of([0, 1])
    assert express_in_generator(3, "even") == IntegerPolynomial.of([-1, 0, 1])
    assert express_in_generator(5, "even") == IntegerPolynomial.of([1, 0, -3, 0, 1])


def test_odd_chain_values():
    assert express_in_generator(1, "odd") == IntegerPolynomial.of([1])
    assert express_in_generator(3, "odd") == IntegerPolynomial.of([0, 1])
    assert express_in_generator(5, "odd") == IntegerPolynomial.of([-1, -1, 1])


def test_even_chain_closed_form():
    # p_i = Σ_k (-1)^k C(i-1-k, k) x^(i-1-2k), the Chebyshev polynomial U_(i-1)(x/2).
    for i in range(1, 301):
        expected = [0] * i
        for k in range((i - 1) // 2 + 1):
            expected[i - 1 - 2 * k] = (-1) ** k * math.comb(i - 1 - k, k)
        assert express_in_generator(i, "even").coefficients == tuple(expected), i


# The largest index that express_in_generator admits.
TOP_INDEX = math.isqrt(MAX_EXPRESS_COEFFICIENTS)


def _recurrence(chain, top):
    """Yield (index, coefficients) of every index up to ``top`` on one chain,
    by the recurrence in the index that the library's one-pass routes replace:
    p_(i+1) = x·p_i - p_(i-1), and q_(i+2) = (x - 1)·q_i - q_(i-2)."""
    prev, cur = [1], [0, 1]
    index, step = (2, 1) if chain == "even" else (3, 2)
    yield 1, prev
    while index <= top:
        yield index, cur
        nxt = [0, *cur]
        if chain == "odd":
            nxt[: len(cur)] = map(operator.sub, nxt, cur)
        nxt[: len(prev)] = map(operator.sub, nxt, prev)
        prev, cur = cur, nxt
        index += step


def _first_disagreement(route, chain, top=TOP_INDEX):
    """The first index up to ``top`` where ``route(index)`` differs from the
    recurrence on ``chain``, or None."""
    for index, expected in _recurrence(chain, top):
        if route(index) != expected:
            return index
    return None


@pytest.mark.parametrize("chain", ["even", "odd"])
def test_chain_matches_the_recurrence_up_to_the_limit(chain):
    assert TOP_INDEX == 4096

    def route(index):
        return list(express_in_generator(index, chain).coefficients)

    assert _first_disagreement(route, chain) is None


def _mutated(function, old, new):
    """``function`` compiled from its source with ``old`` replaced by ``new``."""
    source = inspect.getsource(function)
    assert old in source
    namespace = {}
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


@pytest.mark.parametrize(
    "function, chain, old, new",
    [
        (_even_chain, "even", "(d - 2 * k - 1)", "(d - 2 * k + 1)"),
        (_even_chain, "even", "((k + 1) * (d - k))", "((k + 1) * (d - k + 1))"),
        (_odd_chain, "odd", "2 * m * (m + 1)", "2 * m * (m - 1)"),
        (_odd_chain, "odd", "(j + m + 1)", "(j + m + 2)"),
    ],
)
def test_mutated_one_pass_route_fails_the_comparison(function, chain, old, new):
    assert _first_disagreement(_mutated(function, old, new), chain) is not None


def _q_int(n, q):
    """[n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    return sum(q ** (n - 1 - 2 * k) for k in range(n))


def _at(poly, x):
    return sum(c * x**d for d, c in enumerate(poly.coefficients))


def test_odd_chain_evaluations():
    q = Fraction(3, 2)
    for i in range(1, 301, 2):
        poly = express_in_generator(i, "odd")
        assert _at(poly, 3) == i
        assert _at(poly, _q_int(3, q)) == _q_int(i, q)


def test_odd_chain_rejects_even_index():
    with pytest.raises(ValueError):
        express_in_generator(4, "odd")


def test_unknown_chain_rejected():
    with pytest.raises(ValueError):
        express_in_generator(3, "diagonal")


@pytest.mark.parametrize("index", range(1, 13))
def test_even_chain_reproduces_basis_classes(index):
    gen = KRingElement.single(NT, NT.atiyah(2))
    value = express_in_generator(index, "even").evaluate(gen)
    assert value == KRingElement.single(NT, NT.atiyah(index))


@pytest.mark.parametrize("index", range(1, 14, 2))
def test_odd_chain_reproduces_basis_classes(index):
    gen = KRingElement.single(NT, NT.atiyah(3))
    value = express_in_generator(index, "odd").evaluate(gen)
    assert value == KRingElement.single(NT, NT.atiyah(index))


# -- correspondence grid ---------------------------------------------------------------

def test_grid_small():
    assert [
        (r, n, krull_dim, group_dim, krull_dim == group_dim)
        for r, n, krull_dim, group_dim in correspondence_grid(1, 1)
    ] == [
        (1, 0, 1, 1, True),
        (1, 1, 0, 0, True),
    ]


def test_grid_known_rows():
    cells = {(r, n): (k, g) for r, n, k, g in correspondence_grid(2, 2)}
    assert cells[(2, 0)] == (2, 2)
    assert cells[(2, 2)] == (1, 1)
    assert all(k == g for k, g in cells.values())


@pytest.mark.parametrize("kind_number", [None, list(PresentationKind).index], ids=["krull", "kind"])
def test_grid_rows_match_classify_cell_by_cell(monkeypatch, kind_number):
    # The grid classifies one cell per dimension class; classify runs every
    # cell on its own, S-set included.  The order classes 1 and >= 2 have the
    # same dimensions, so the second run replaces the Krull dimension by a
    # number that tells every presentation kind apart: the grid must still
    # agree, so its classes separate every kind that _compose can build.
    if kind_number:
        monkeypatch.setattr(classify_module, "krull_dimension", lambda p: kind_number(p.kind))
    expected = []
    for r in range(1, 13):
        for n in range(13):
            report = classify(r, n)
            expected.append((r, n, report.krull_dim, report.group.dimension))
    assert list(correspondence_grid(12, 12)) == expected


def test_grid_classifies_one_cell_per_class(monkeypatch):
    calls = []
    classify_cell = classify_module._classify_cell

    def counted(rank, n, s_set):
        calls.append((rank, n))
        return classify_cell(rank, n, s_set)

    monkeypatch.setattr(classify_module, "_classify_cell", counted)
    assert len(correspondence_grid(30, 29)) == 30 * 30
    assert len(calls) <= 6


def _growth(rank, torsion, degree_bounds):
    """Distinct classes among the components of E^a ⊗ (E^∨)^b, a + b <= N,
    for E = L ⊗ F_rank: their count D(N) for each N in ``degree_bounds``, and
    the index sets by line exponent at the largest N.

    E^∨ = L^-1 ⊗ F_rank, so such a product sits at line exponent a - b with
    the indices of F_rank^(a + b), which follow from ``component_indices``
    alone; the classification is never read.
    """
    ctx = TorsionContext(torsion)
    by_exponent: dict[int, set[int]] = {}
    indices = {1}
    counts = []
    for m in range(max(degree_bounds) + 1):
        if m:
            indices = {j for i in indices for j in component_indices(i, rank)}
        for e in range(-m, m + 1, 2):
            by_exponent.setdefault(ctx.reduce_exponent(e), set()).update(indices)
        if m in degree_bounds:
            counts.append(sum(map(len, by_exponent.values())))
    return counts, by_exponent


def test_dimensions_match_growth_of_the_generated_ring():
    # Distinct classes are a basis of K(X) ⊗ Q, so D(N) is the dimension of
    # the degree-<= N piece of the ring generated by E and its dual, and its
    # growth degree is the Krull dimension.  The group gets Gm when a
    # non-torsion exponent other than 0 is reached and Ga when some F_j with
    # j > 1 is.
    for rank in range(1, 9):
        for torsion in range(0, 9):
            (d16, d32), by_exponent = _growth(rank, torsion, (16, 32))
            report = classify(rank, torsion)
            assert round(math.log2(d32 / d16)) == report.krull_dim, (rank, torsion)
            gm = torsion == 0 and any(e != 0 for e in by_exponent)
            ga = any(j > 1 for js in by_exponent.values() for j in js)
            assert gm + ga == report.group.dimension, (rank, torsion)


def _order(ctx, exponent):
    """Multiplicative order of L^exponent, by stepping through its powers."""
    k = 1
    while ctx.reduce_exponent(k * exponent) != 0:
        k += 1
    return k


def test_minimality_notes_cite_computed_quantities():
    both_even = [
        classify(r, n) for r, n, _, _ in correspondence_grid(10, 12)
        if r % 2 == 0 and n >= 2 and n % 2 == 0
    ]
    assert len(both_even) == 30
    for report in both_even:
        r, n = report.rank, report.torsion
        ctx = TorsionContext(n)
        note = report.minimality_note
        m = report.presentation.modulus
        det = BundleSum.single(ctx, ctx.bundle(1, r)).det_exponent()
        det_order = _order(ctx, det)
        assert "det E = L " not in note
        assert m == n // 2 and report.group.factors == (f"mu_{n}", "Ga")
        assert note.startswith(f"mu_{m} x Ga does not suffice")
        assert f"det E = {ctx.line(det)} has order {det_order}, which divides {m}" in note
        assert m % det_order == 0
        assert f"L*F_{r} determines L" in note
        assert f"L has exact order {_order(ctx, 1)};" in note and _order(ctx, 1) == n
        assert note.endswith(f"minimal group is mu_{n} x Ga even though the ring modulus is {m}")


# -- the projective line ------------------------------------------------------------------

def test_p1_trivial():
    report = p1_classify([0])
    assert report.presentation.kind is PresentationKind.POINT
    assert str(report.group) == "1"
    assert report.krull_dim == 0
    assert report.s_set.contains(0)
    assert not report.s_set.contains(2)


def test_p1_pair():
    report = p1_classify([2, 4])
    assert report.s_set.step == 2
    assert report.presentation.kind is PresentationKind.LAURENT
    assert str(report.group) == "Gm"
    assert report.krull_dim == 1


def test_p1_single_degree_family():
    report = p1_classify([3])
    assert report.s_set.step == 3
    assert report.s_set.contains(-9)
    assert not report.s_set.contains(4)


def test_p1_rejects_empty():
    with pytest.raises(ValueError):
        p1_classify([])


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3), st.randoms())
@settings(max_examples=60, deadline=None)
def test_p1_invariant_under_permutation_and_negation(degrees, rng):
    report = p1_classify(degrees)
    shuffled = list(degrees)
    rng.shuffle(shuffled)
    negated = [-d for d in shuffled]
    for variant in (shuffled, negated):
        other = p1_classify(variant)
        assert other.presentation == report.presentation
        assert other.group == report.group
        assert other.s_set == report.s_set


def test_p1_enumeration_generates_gcd():
    for a, b in [(2, 4), (4, 6), (-3, 3), (0, 5), (2, -4)]:
        enumerated = p1_s_set_enumerate([a, b], 6)
        c = math.gcd(a, b)
        assert all(report_degree % c == 0 for report_degree in enumerated)
        assert reduce(math.gcd, (abs(d) for d in enumerated), 0) == c


def test_p1_enumerate_zero_bundle():
    assert p1_s_set_enumerate([0, 0], 4) == {0}
