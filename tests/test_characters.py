"""Character oracle: brackets, multiplicativity, peeling, and cross-checks."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atiyah.characters as characters_module
from atiyah import (
    BivariateCharacter,
    BundleSum,
    ContextMismatchError,
    NotACharacterError,
    TorsionContext,
    character,
    decompose_character,
    oracle_check,
    tensor_indec,
)
from atiyah.characters import character_power
from atiyah.cli import _VERIFY_PROBES

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
    assert sum(c.coeffs.values()) == x.rank()
    assert c.is_q_symmetric()


def naive_product(a, b):
    """Laurent product by the double loop over monomial pairs."""
    acc = {}
    for (t1, q1), c1 in a.coeffs.items():
        for (t2, q2), c2 in b.coeffs.items():
            key = (t1 + t2, q1 + q2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return BivariateCharacter.of(a.context, acc)


coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64, max_value=2**66),
)


@st.composite
def laurent_polynomials(draw, ctx):
    """Signed Laurent polynomials with t-spans below and above the torsion
    order, one q-parity or both, and runs of q-exponents with gaps."""
    t_top = draw(st.sampled_from((0, 1, 2, 6)))
    q_top = draw(st.sampled_from((0, 3, 12, 40)))
    parity = draw(st.sampled_from((None, 0, 1)))
    monomial = st.tuples(
        st.integers(min_value=-t_top, max_value=t_top),
        st.integers(min_value=-q_top, max_value=q_top),
    )
    coeffs = draw(st.dictionaries(monomial, coefficients, max_size=12))
    if parity is not None:
        coeffs = {(t, 2 * q + parity): c for (t, q), c in coeffs.items()}
    return BivariateCharacter.of(ctx, coeffs)


@given(st.sampled_from([TorsionContext(n) for n in (0, 1, 2, 3, 5)]), st.data())
@settings(max_examples=300, deadline=None)
def test_packed_product_matches_double_loop(ctx, data):
    a = data.draw(laurent_polynomials(ctx))
    b = data.draw(laurent_polynomials(ctx))
    product = a * b
    assert product == naive_product(a, b)
    assert 0 not in product.coeffs.values()
    assert a * BivariateCharacter.zero(ctx) == BivariateCharacter.zero(ctx)


@pytest.mark.parametrize("qs", [(0, 1, 4), (0, 3, 4), (-3, 0, 1, 3), (0, 2, 4), (5, 7)])
def test_product_of_one_row_spanning_like_a_bracket(qs):
    # n q-exponents of one t-row spanning 2n - 2, every other one or not.
    a = BivariateCharacter.of(NT, {(1, q): q + 5 for q in qs})
    b = BivariateCharacter.of(NT, {(0, 1): 2, (0, -1): 3})
    for x, y in [(a, a), (a, b), (b, a)]:
        assert x * y == naive_product(x, y)


def test_slot_by_slot_packing_matches_double_loop(monkeypatch):
    # With no one-call formats (as on a big-endian machine) every slot width
    # is packed and read slot by slot.
    monkeypatch.setattr(characters_module, "_FORMATS", {})
    ctx = TorsionContext(3)
    f = character(BundleSum.of(ctx, [(ctx.bundle(1, 40), 3), (ctx.bundle(2, 7), 1)]))
    signed = BivariateCharacter.of(ctx, {(0, 0): -(2**20), (1, 3): 5, (2, -1): -7})
    for a, b in [(f, f), (f, signed), (signed, signed)]:
        assert a * b == naive_product(a, b)
    x = BundleSum.of(ctx, [(ctx.bundle(1, 3), 1), (ctx.bundle(0, 2), 2)])
    assert BundleSum(ctx, character_power(x, 5)) == x.tensor(x).tensor(x).tensor(x).tensor(x)


@pytest.mark.parametrize(
    "x",
    [
        character(BundleSum.of(NT, [(NT.line(0), 1), (NT.line(10**8), 1)])),  # O + L^100000000
        BivariateCharacter.of(NT, {(0, 0): 1, (0, 10**8): 1}),
    ],
)
def test_sparse_product_allocates_for_monomials_not_gaps(x):
    tracemalloc.start()
    try:
        square = x * x
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert square == naive_product(x, x)
    assert len(square.coeffs) == 3
    assert peak < 1 << 20  # a slot per exponent in the gap would take 100 MB


def test_product_cancelling_between_pairs_of_runs():
    # (q^0 + q^10)·(q^10 - q^0): two runs each, and the q^10 slots of two
    # pairs of runs cancel.
    a = BivariateCharacter.of(NT, {(0, 0): 1, (0, 10): 1})
    b = BivariateCharacter.of(NT, {(0, 10): 1, (0, 0): -1})
    assert a * b == naive_product(a, b) == BivariateCharacter.of(NT, {(0, 20): 1, (0, 0): -1})


def test_product_takes_two_characters_over_one_context():
    f2 = character(BundleSum.single(NT, NT.atiyah(2)))
    ctx = TorsionContext(3)
    with pytest.raises(ContextMismatchError, match="^cannot combine characters over "):
        f2 * character(BundleSum.single(ctx, ctx.atiyah(2)))
    with pytest.raises(TypeError):
        f2 * 2
    with pytest.raises(TypeError):
        2 * f2


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


@pytest.mark.parametrize(
    "coeffs",
    [
        {(1, 3): 1, (1, 1): 1, (1, -1): 1},               # asymmetric, twisted
        {(0, 2): 2, (0, 0): 1, (0, -2): 2},               # c(0) < c(2)
        {(0, 4): 1, (0, 2): 1, (0, -2): 1, (0, -4): 1},   # gap at q^0
        {(2, 3): 1, (2, -3): 1},                          # gap at q^1 and q^-1
        {(0, 1): 1, (0, 0): -1, (0, -1): 1},              # negative coefficient
    ],
)
def test_decompose_rejects_non_characters(coeffs):
    with pytest.raises(NotACharacterError):
        decompose_character(BivariateCharacter.of(NT, coeffs))


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ({(0, 3): 1, (0, 1): 1, (0, -1): 1}, "not invariant under q -> 1/q"),
        ({(1, 4): 1, (1, 2): 1, (1, -2): 1, (1, -4): 1}, "gap below t^1 q^2"),
        ({(0, 2): 2, (0, 0): 1, (0, -2): 2}, "coefficient 1 at t^0 q^0 is below 2 at q^2"),
        # A gap at q^2 met before the asymmetric t^1 q^1: the asymmetry wins.
        ({(0, 4): 1, (0, -4): 1, (1, 1): 1}, "not invariant under q -> 1/q"),
    ],
)
def test_decompose_rejection_messages(coeffs, message):
    with pytest.raises(NotACharacterError, match=f"^not a character: {re.escape(message)}$"):
        decompose_character(BivariateCharacter.of(NT, coeffs))


def reference_decompose(c):
    """The read-off in two passes: the q-symmetry of every monomial first,
    then the gap and the descent of each monomial with q >= 0."""
    coeffs = c.coeffs
    if not all(coeffs.get((t, -q)) == k for (t, q), k in coeffs.items()):
        raise NotACharacterError("not a character: not invariant under q -> 1/q")
    terms = {}
    for (t, q), k in coeffs.items():
        if q < 0 or not k:
            continue
        if q >= 2 and not coeffs.get((t, q - 2)):
            raise NotACharacterError(f"not a character: gap below t^{t} q^{q}")
        above = coeffs.get((t, q + 2), 0)
        if k < above:
            raise NotACharacterError(
                f"not a character: coefficient {k} at t^{t} q^{q} is below {above} at q^{q + 2}"
            )
        if k > above:
            terms[c.context.bundle(t, q + 1)] = k - above
    return BundleSum(c.context, terms)


def outcome(f, c):
    try:
        return f(c)
    except NotACharacterError as exc:
        return str(exc)


@given(contexts, st.data())
@settings(max_examples=300, deadline=None)
def test_decompose_accepts_exactly_characters(ctx, data):
    # Mostly not characters (signed, lopsided, gapped), some that are.
    c = data.draw(st.one_of(
        laurent_polynomials(ctx),
        bundle_sums(ctx).map(character),
        st.tuples(bundle_sums(ctx), bundle_sums(ctx)).map(
            lambda xy: character(xy[0]) * character(xy[1])),
    ))
    result = outcome(decompose_character, c)
    assert result == outcome(reference_decompose, c)
    if isinstance(result, BundleSum):
        assert character(result) == c


@pytest.mark.parametrize("torsion", range(7))
def test_verify_products_read_off_like_double_loop(torsion):
    # Every character product that `verify --rmax 12` peels, at every probe.
    ctx = TorsionContext(torsion)
    for r in range(1, 13):
        for s in range(1, r + 1):
            for ea, eb in _VERIFY_PROBES:
                a = character(BundleSum.single(ctx, ctx.bundle(ea, r)))
                b = character(BundleSum.single(ctx, ctx.bundle(eb, s)))
                assert decompose_character(a * b) == decompose_character(naive_product(a, b))


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
