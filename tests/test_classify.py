"""Classification: case table, S-sets, generator polynomials, P^1 analogue."""

import math
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


def test_s_set_enumerate_examples():
    ctx1 = TorsionContext(1)
    assert s_set_enumerate(2, 1, 3) == {
        ctx1.atiyah(1), ctx1.atiyah(2), ctx1.atiyah(3), ctx1.atiyah(4)
    }
    ctx3 = TorsionContext(3)
    assert s_set_enumerate(1, 3, 4) == {ctx3.line(0), ctx3.line(1), ctx3.line(2)}
    assert s_set_enumerate(1, 1, 5) == {ctx1.bundle()}


@pytest.mark.parametrize("rank", range(1, 6))
@pytest.mark.parametrize("torsion", (0, 1, 2, 3, 4))
def test_enumeration_matches_structure_law(rank, torsion):
    for bound in (1, 2, 5):
        enumerated = s_set_enumerate(rank, torsion, bound)
        assert enumerated == s_set_reachable(rank, torsion, bound)
        symbolic = s_set_symbolic(rank, torsion)
        assert all(symbolic.contains(b) for b in enumerated)


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


def test_odd_chain_rejects_even_index():
    with pytest.raises(ValueError):
        express_in_generator(4, "odd")


def test_unknown_chain_rejected():
    with pytest.raises(ValueError):
        express_in_generator(3, "diagonal")


@pytest.mark.parametrize("index", range(1, 13))
def test_even_chain_reproduces_basis_classes(index):
    gen = KRingElement.basis(NT, NT.atiyah(2))
    value = express_in_generator(index, "even").evaluate(gen)
    assert value == KRingElement.basis(NT, NT.atiyah(index))


@pytest.mark.parametrize("index", range(1, 14, 2))
def test_odd_chain_reproduces_basis_classes(index):
    gen = KRingElement.basis(NT, NT.atiyah(3))
    value = express_in_generator(index, "odd").evaluate(gen)
    assert value == KRingElement.basis(NT, NT.atiyah(index))


# -- correspondence grid ---------------------------------------------------------------

def test_grid_small():
    cells = correspondence_grid(1, 1)
    assert [
        (c.rank, c.torsion, c.krull_dim, c.group.dimension, c.correspondence_holds)
        for c in cells
    ] == [
        (1, 0, 1, 1, True),
        (1, 1, 0, 0, True),
    ]


def test_grid_known_rows():
    cells = {(c.rank, c.torsion): c for c in correspondence_grid(2, 2)}
    assert (cells[(2, 0)].krull_dim, cells[(2, 0)].group.dimension) == (2, 2)
    assert (cells[(2, 2)].krull_dim, cells[(2, 2)].group.dimension) == (1, 1)
    assert all(c.correspondence_holds for c in cells.values())


def _order(ctx, exponent):
    """Multiplicative order of L^exponent, by stepping through its powers."""
    k = 1
    while ctx.reduce_exponent(k * exponent) != 0:
        k += 1
    return k


def test_minimality_notes_cite_computed_quantities():
    both_even = [
        c for c in correspondence_grid(10, 12)
        if c.rank % 2 == 0 and c.torsion >= 2 and c.torsion % 2 == 0
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
