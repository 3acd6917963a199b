"""Character oracle: brackets, multiplicativity, peeling, and cross-checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah import (
    BivariateCharacter,
    BundleSum,
    NotACharacterError,
    TorsionContext,
    character,
    decompose_character,
    oracle_check,
    tensor_indec,
)

NT = TorsionContext(0)

contexts = st.sampled_from([TorsionContext(n) for n in (0, 1, 2, 3, 4, 5, 6)])


def bundle_sums(ctx, min_terms=0):
    bundle = st.builds(
        ctx.bundle, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
    )
    return st.lists(
        st.tuples(bundle, st.integers(min_value=1, max_value=3)),
        min_size=min_terms,
        max_size=4,
    ).map(lambda pairs: BundleSum.of(ctx, pairs))


# -- brackets -----------------------------------------------------------------

def bracket(r):
    """[r]_q, the character of F_r."""
    return character(BundleSum.single(NT, NT.atiyah(r)))


def test_bracket_one():
    assert bracket(1) == BivariateCharacter.of(NT, {(0, 0): 1})


def test_bracket_two():
    assert bracket(2) == BivariateCharacter.of(NT, {(0, 1): 1, (0, -1): 1})


def test_bracket_four():
    expected = BivariateCharacter.of(NT, {(0, 3): 1, (0, 1): 1, (0, -1): 1, (0, -3): 1})
    assert bracket(4) == expected


def test_bracket_rejects_nonpositive():
    with pytest.raises(ValueError):
        NT.atiyah(0)


def test_complete_homogeneous_weights_match_bracket():
    # h_k evaluated at (q, q^-1) has weights k, k-2, ..., -k: the bracket of k+1.
    k = 4
    h = BivariateCharacter.of(NT, {(0, k - 2 * j): 1 for j in range(k + 1)})
    assert h == bracket(k + 1)


# -- characters ----------------------------------------------------------------

def test_character_of_unit():
    assert character(BundleSum.unit(NT)) == BivariateCharacter.of(NT, {(0, 0): 1})


def test_character_of_twisted_f2():
    x = BundleSum.single(NT, NT.bundle(1, 2))
    assert character(x) == BivariateCharacter.of(NT, {(1, 1): 1, (1, -1): 1})


def test_character_additive():
    f2 = BundleSum.single(NT, NT.atiyah(2))
    assert character(f2 + f2) == BivariateCharacter.of(NT, {(0, 1): 2, (0, -1): 2})


@given(contexts, st.data())
@settings(max_examples=60, deadline=None)
def test_character_multiplicative(ctx, data):
    x = data.draw(bundle_sums(ctx))
    y = data.draw(bundle_sums(ctx))
    assert character(x.tensor(y)) == character(x) * character(y)


@given(contexts, st.data())
@settings(max_examples=60, deadline=None)
def test_character_rank_and_symmetry(ctx, data):
    x = data.draw(bundle_sums(ctx))
    c = character(x)
    assert c.total() == x.rank()
    assert c.is_q_symmetric()


def test_torsion_exponents_reduced_in_products():
    ctx = TorsionContext(4)
    t3 = character(BundleSum.single(ctx, ctx.line(3)))
    t2 = character(BundleSum.single(ctx, ctx.line(2)))
    assert t3 * t2 == BivariateCharacter.of(ctx, {(1, 0): 1})


# -- peeling ---------------------------------------------------------------------

def test_decompose_f2_squared():
    c = BivariateCharacter.of(NT, {(0, 2): 1, (0, 0): 2, (0, -2): 1})
    expected = BundleSum.of(NT, [(NT.atiyah(1), 1), (NT.atiyah(3), 1)])
    assert decompose_character(c) == expected


def test_decompose_f2_cubed():
    c = BivariateCharacter.of(NT, {(0, 3): 1, (0, 1): 3, (0, -1): 3, (0, -3): 1})
    expected = BundleSum.of(NT, [(NT.atiyah(2), 2), (NT.atiyah(4), 1)])
    assert decompose_character(c) == expected


def test_decompose_rejects_asymmetric_monomial():
    with pytest.raises(NotACharacterError):
        decompose_character(BivariateCharacter.of(NT, {(0, 1): 1}))


def test_decompose_rejects_missing_interior_weight():
    with pytest.raises(NotACharacterError):
        decompose_character(BivariateCharacter.of(NT, {(0, 2): 1, (0, -2): 1}))


@given(contexts, st.data())
@settings(max_examples=80, deadline=None)
def test_round_trip(ctx, data):
    x = data.draw(bundle_sums(ctx))
    assert decompose_character(character(x)) == x


@given(contexts, st.data())
@settings(max_examples=40, deadline=None)
def test_peeling_order_independent(ctx, data):
    x = data.draw(bundle_sums(ctx, min_terms=1))
    coeffs = list(character(x).coeffs.items())
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    rng.shuffle(coeffs)
    shuffled = BivariateCharacter(ctx, dict(coeffs))
    assert decompose_character(shuffled) == x


# -- the cross-check itself ---------------------------------------------------------

def test_oracle_check_f2_f2():
    assert oracle_check(NT, NT.atiyah(2), NT.atiyah(2)).agrees


def test_oracle_check_f3_f3():
    check = oracle_check(NT, NT.atiyah(3), NT.atiyah(3))
    assert check.agrees
    expected = BundleSum.of(NT, [(NT.atiyah(1), 1), (NT.atiyah(3), 1), (NT.atiyah(5), 1)])
    assert check.from_character == expected


def test_oracle_check_with_unit():
    for r in range(1, 7):
        assert oracle_check(NT, NT.atiyah(1), NT.atiyah(r)).agrees


def test_oracle_check_reports_both_sides():
    ctx = TorsionContext(5)
    a, b = ctx.bundle(2, 3), ctx.bundle(4, 2)
    check = oracle_check(ctx, a, b)
    assert check.agrees
    assert check.from_formula == tensor_indec(ctx, a, b)
    assert bool(check) is True


def test_f4_power_table_structure():
    # Powers of F_4 keep the alternating-parity staircase with top multiplicity 1.
    f4 = BundleSum.single(NT, NT.atiyah(4))
    c4 = character(f4)
    product = BivariateCharacter.of(NT, {(0, 0): 1})
    for m in range(1, 7):
        product = product * c4
        decomposed = decompose_character(product)
        assert decomposed == f4.tensor_power(m)
        top = 3 * m + 1
        indices = sorted(b.index for b in decomposed.terms)
        if m == 1:
            assert indices == [4]
        else:
            assert indices == list(range(1 if top % 2 else 2, top + 1, 2))
        assert decomposed.multiplicity(NT.atiyah(top)) == 1
