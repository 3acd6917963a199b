"""Core tensor arithmetic: frozen examples plus algebraic-law property tests."""

import copy
import math
import pickle
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atiyah import (
    BundleSum,
    ContextMismatchError,
    IndecomposableBundle,
    KRingElement,
    PowerTooLargeError,
    TorsionContext,
    dual,
    sym_power_f2,
    tensor_indec,
)
import atiyah.characters as characters
from atiyah.bundles import MAX_LOOP_WORDS, _cg_product, _loop_fits, _spread, component_indices
from atiyah.characters import character, character_power, decompose_character
from atiyah.classify import s_set_enumerate, s_set_reachable
from atiyah.expressions import evaluate_expression
from s_sets import s_set_members

NT = TorsionContext(0)


def sum_of(ctx, *pairs):
    return BundleSum.of(ctx, [(ctx.bundle(e, r), m) for (m, e, r) in pairs])


def lift(x):
    """x as a plain ring element, free to take signed coefficients."""
    return KRingElement(x.context, dict(x.terms))


# -- strategies -------------------------------------------------------------

contexts = st.sampled_from([TorsionContext(n) for n in (0, 1, 2, 3, 4, 5, 6)])


def bundles(ctx):
    return st.builds(
        ctx.bundle, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
    )


def bundle_sums(ctx, min_terms=0):
    return st.lists(
        st.tuples(bundles(ctx), st.integers(min_value=1, max_value=3)),
        min_size=min_terms,
        max_size=4,
    ).map(lambda pairs: BundleSum.of(ctx, pairs))


def ring_elements(ctx):
    return st.lists(
        st.tuples(bundles(ctx), st.integers(min_value=-3, max_value=3)),
        max_size=4,
    ).map(
        lambda pairs: sum(
            (c * KRingElement.single(ctx, b) for b, c in pairs),
            KRingElement.zero(ctx),
        )
    )


# -- exponent reduction ------------------------------------------------------

def test_reduce_exponent_no_torsion_is_identity():
    assert TorsionContext(0).reduce_exponent(-3) == -3


def test_reduce_exponent_modular():
    assert TorsionContext(4).reduce_exponent(6) == 2


def test_reduce_exponent_trivial_line():
    assert TorsionContext(1).reduce_exponent(5) == 0


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        TorsionContext(-1)


def test_bundle_index_validated():
    with pytest.raises(ValueError):
        IndecomposableBundle(0, 0)


# -- the class key type: an (index, exponent) pair ----------------------------

def assert_canonical_keys(ctx, keys):
    for key in keys:
        assert type(key) is IndecomposableBundle
        rebuilt = ctx.bundle(key.exponent, key.index)
        assert key == rebuilt and hash(key) == hash(rebuilt)


def test_every_construction_route_gives_equal_keys():
    ctx = TorsionContext(4)
    a = ctx.bundle(-1, 2)
    for b in (
        IndecomposableBundle(3, 2),
        IndecomposableBundle(index=2, exponent=3),
        IndecomposableBundle(exponent=3, index=2),
        ctx.bundle(7, 2),
    ):
        assert type(b) is IndecomposableBundle
        assert b == a and hash(b) == hash(a)
    assert ctx.bundle(3, 3) != a and ctx.bundle(2, 2) != a
    x = BundleSum.of(ctx, [(a, 1), (ctx.bundle(2, 3), 2), (ctx.line(1), 1)])
    square = _cg_product(ctx, x.terms, x.terms)
    routes = {
        "_cg_product": square,
        "decompose_character": decompose_character(character(x) * character(x)).terms,
        "character_power": character_power(x, 2),
        "tensor_power": x.tensor_power(2).terms,
    }
    for name, terms in routes.items():
        assert terms == square, name
        assert_canonical_keys(ctx, terms)
    enumerated = set(s_set_members(s_set_enumerate(2, 4, 6)))
    assert enumerated == s_set_reachable(2, 4, 6)
    assert a in enumerated
    assert_canonical_keys(ctx, enumerated)


def test_index_below_one_raises_on_every_route():
    for build in (
        lambda: IndecomposableBundle(0, 0),
        lambda: IndecomposableBundle(exponent=2, index=-1),
        lambda: NT.bundle(1, 0),
        lambda: NT.atiyah(0),
        lambda: TorsionContext(3).bundle(5, -2),
    ):
        with pytest.raises(ValueError, match="F index must be >= 1"):
            build()


def test_bundle_attributes_are_read_only():
    b = NT.bundle(-2, 3)
    assert (b.exponent, b.index) == (-2, 3)
    for name in ("exponent", "index", "rank"):
        with pytest.raises(AttributeError):
            setattr(b, name, 1)
    assert (b.exponent, b.index) == (-2, 3)


def test_bundle_repr_and_str():
    assert repr(IndecomposableBundle(3, 2)) == "IndecomposableBundle(exponent=3, index=2)"
    assert repr(NT.bundle(-1, 1)) == "IndecomposableBundle(exponent=-1, index=1)"
    assert [str(NT.bundle(e, r)) for e, r in ((0, 1), (1, 1), (-2, 1), (0, 3), (1, 2), (5, 4))] == [
        "O", "L", "L^-2", "F_3", "L*F_2", "L^5*F_4"
    ]


def test_bundles_sort_in_print_order_and_equal_plain_pairs():
    x = sum_of(NT, (1, 0, 1), (1, 1, 2), (1, -3, 3), (1, -1, 1), (2, 0, 2), (1, 2, 1))
    assert str(x) == "L^-1 + O + L^2 + 2 F_2 + L*F_2 + L^-3*F_3"
    order = sorted(x.terms)
    assert order == sorted(x.terms, key=lambda b: (b.index, b.exponent))
    assert list(x.support()) == order
    assert [str(b) for b in order] == ["L^-1", "O", "L^2", "F_2", "L*F_2", "L^-3*F_3"]
    assert NT.bundle(3, 2) == (2, 3) and hash(NT.bundle(3, 2)) == hash((2, 3))
    assert NT.bundle(3, 2) != (3, 2)


def test_bundles_do_not_concatenate_as_tuples():
    a, b = NT.line(1), NT.atiyah(2)
    for combine in (lambda: a + b, lambda: a + (2, 0), lambda: a * 2, lambda: 2 * a):
        with pytest.raises(TypeError):
            combine()
    assert BundleSum.single(NT, a) + BundleSum.single(NT, b) == sum_of(NT, (1, 1, 1), (1, 0, 2))


def test_plain_tuple_does_not_concatenate_a_bundle():
    a = NT.line(1)
    x = BundleSum.single(NT, a)
    for combine in (lambda: (1,) + a, lambda: sum([a], ()), lambda: 1 + a, lambda: x + a):
        with pytest.raises(TypeError):
            combine()


def test_bundles_and_sums_survive_pickle_and_copy():
    ctx = TorsionContext(6)
    b = ctx.bundle(-1, 4)
    x = BundleSum.of(ctx, [(b, 2**70), (ctx.line(2), 1)])
    clones = [copy.copy(b), copy.deepcopy(b)] + [
        pickle.loads(pickle.dumps(b, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert type(clone) is IndecomposableBundle
        assert clone == b and hash(clone) == hash(b) and repr(clone) == repr(b)
    sums = [copy.copy(x), copy.deepcopy(x)] + [
        pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in sums:
        assert type(clone) is BundleSum and clone == x and str(clone) == str(x)
        assert_canonical_keys(ctx, clone.terms)


# -- tensor of indecomposables ------------------------------------------------

def test_f2_tensor_f2():
    assert tensor_indec(NT, NT.atiyah(2), NT.atiyah(2)) == sum_of(NT, (1, 0, 1), (1, 0, 3))


def test_tensor_with_unit():
    for r in range(1, 8):
        assert tensor_indec(NT, NT.atiyah(r), NT.atiyah(1)) == sum_of(NT, (1, 0, r))


def test_tensor_indec_with_line_exponents():
    # Oracle-confirmed: t^3 (q+q^-1)(q^2+1+q^-2) = t^3 ([2]_q + [4]_q).
    got = tensor_indec(NT, NT.bundle(1, 2), NT.bundle(2, 3))
    assert got == sum_of(NT, (1, 3, 2), (1, 3, 4))


@given(contexts, st.data())
def test_tensor_indec_rank_and_structure(ctx, data):
    a = data.draw(bundles(ctx))
    b = data.draw(bundles(ctx))
    result = tensor_indec(ctx, a, b)
    assert result.rank() == a.index * b.index
    assert all(m == 1 for m in result.terms.values())
    assert len(result.terms) == min(a.index, b.index)


# -- bilinear tensor on sums ---------------------------------------------------

def test_unit_sum_is_identity():
    x = sum_of(NT, (2, 1, 3), (1, -2, 2))
    assert BundleSum.unit(NT).tensor(x) == x


def test_tensor_bilinearity():
    f2 = sum_of(NT, (1, 0, 2))
    assert (f2 + f2).tensor(f2) == sum_of(NT, (2, 0, 1), (2, 0, 3))


def test_tensor_of_mixed_sum():
    # Oracle-confirmed: ([3]+[1])·[3] = [1] + 2[3] + [5].
    f3 = sum_of(NT, (1, 0, 3))
    got = (f3 + BundleSum.unit(NT)).tensor(f3)
    assert got == sum_of(NT, (1, 0, 1), (2, 0, 3), (1, 0, 5))


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        BundleSum.unit(TorsionContext(2)).tensor(BundleSum.unit(TorsionContext(3)))
    with pytest.raises(ContextMismatchError):
        BundleSum.unit(TorsionContext(2)) + KRingElement.unit(TorsionContext(3))


@given(contexts, st.data())
@settings(max_examples=60, deadline=None)
def test_tensor_commutes(ctx, data):
    x = data.draw(bundle_sums(ctx))
    y = data.draw(bundle_sums(ctx))
    assert x.tensor(y) == y.tensor(x)


@given(contexts, st.data())
@settings(max_examples=40, deadline=None)
def test_tensor_associates(ctx, data):
    x = data.draw(bundle_sums(ctx))
    y = data.draw(bundle_sums(ctx))
    z = data.draw(bundle_sums(ctx))
    assert x.tensor(y).tensor(z) == x.tensor(y.tensor(z))


@given(contexts, st.data())
@settings(max_examples=60, deadline=None)
def test_rank_multiplicative(ctx, data):
    x = data.draw(bundle_sums(ctx))
    y = data.draw(bundle_sums(ctx))
    assert x.tensor(y).rank() == x.rank() * y.rank()


@given(contexts, st.data())
@settings(max_examples=60, deadline=None)
def test_det_exponent_additive(ctx, data):
    x = data.draw(bundle_sums(ctx))
    y = data.draw(bundle_sums(ctx))
    expected = ctx.reduce_exponent(
        y.rank() * x.det_exponent() + x.rank() * y.det_exponent()
    )
    assert x.tensor(y).det_exponent() == expected


# -- the run kernel against the double loop ---------------------------------------

def reference_cg_product(context, x, y):
    """Terms of x ⊗ y with one dict write per (pair, component), the double
    loop that the run kernel replaced; zero coefficients are dropped."""
    acc = {}
    for a, ca in x.items():
        for b, cb in y.items():
            e = context.reduce_exponent(a.exponent + b.exponent)
            for j in component_indices(a.index, b.index):
                key = IndecomposableBundle(e, j)
                acc[key] = acc.get(key, 0) + ca * cb
    return {key: c for key, c in acc.items() if c}


def signed_terms(ctx):
    coefficients = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([2**64, -(2**64), 2**64 + 1, -3 * 2**70]),
    )
    pairs = st.tuples(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=50),
        coefficients,
    )
    return st.lists(pairs, max_size=6).map(
        lambda terms: KRingElement.of(ctx, [(ctx.bundle(e, r), c) for e, r, c in terms]).terms
    )


@given(st.sampled_from([TorsionContext(n) for n in (0, 1, 2, 3, 4, 6)]), st.data())
@settings(max_examples=300, deadline=None)
def test_run_kernel_matches_the_double_loop(ctx, data):
    x = data.draw(signed_terms(ctx))
    y = data.draw(signed_terms(ctx))
    product = _cg_product(ctx, x, y)
    assert product == reference_cg_product(ctx, x, y)
    assert all(product.values())
    assert_canonical_keys(ctx, product)


def test_run_kernel_cancels_and_takes_empty_operands():
    # (F_2 - F_4)·F_3 = (F_2 + F_4) - (F_2 + F_4 + F_6): two runs cancel.
    ctx = TorsionContext(4)
    x = {ctx.atiyah(2): 2**64, ctx.atiyah(4): -(2**64)}
    assert _cg_product(ctx, x, {ctx.atiyah(3): 1}) == {ctx.atiyah(6): -(2**64)}
    # (L*F_2 - L^2*F_2)·(L^3*F_3 + L^2*F_3): both pairs at L^4 = O cancel.
    y = {ctx.bundle(1, 2): 1, ctx.bundle(2, 2): -1}
    z = {ctx.bundle(3, 3): 1, ctx.bundle(2, 3): 1}
    assert _cg_product(ctx, y, z) == {
        ctx.bundle(3, 2): 1, ctx.bundle(3, 4): 1, ctx.bundle(1, 2): -1, ctx.bundle(1, 4): -1
    }
    for a, b in (({}, {}), ({}, x), (x, {})):
        assert _cg_product(ctx, a, b) == {}


# One term L^e F_r with multiplicity c, as (e, r, c): indices small or up to 10^6.
one_terms = st.tuples(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=50) | st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=3) | st.integers(min_value=-3, max_value=-1),
)


@given(st.sampled_from([TorsionContext(n) for n in range(7)]), one_terms, one_terms)
@settings(max_examples=50, deadline=None)
def test_run_kernel_one_term_by_one_term(ctx, first, second):
    # Two one-term sums meet in one pair, which the sweep writes as one run.
    (ea, r, ca), (eb, s, cb) = first, second
    a, b = ctx.bundle(ea, r), ctx.bundle(eb, s)
    e = ctx.reduce_exponent(ea + eb)
    product = _cg_product(ctx, {a: ca}, {b: cb})
    assert product == {ctx.bundle(e, j): ca * cb for j in component_indices(r, s)}
    assert product == {key: ca * cb * c for key, c in tensor_indec(ctx, a, b).terms.items()}
    assert all(type(key) is IndecomposableBundle for key in product)


def test_run_kernel_never_fills_the_gap_between_indices():
    # 1000 line bundles and F_100000 times F_100000: a dense row per exponent
    # would take 10^8 slots; the runs write 101000 terms.
    ctx = NT
    x = BundleSum.of(ctx, [(ctx.line(3 * e), 1) for e in range(1000)] + [(ctx.atiyah(100000), 1)])
    y = BundleSum.single(ctx, ctx.atiyah(100000))
    start = time.perf_counter()
    product = x * y
    assert time.perf_counter() - start < 5.0
    assert len(product.terms) == 1000 + 100000
    assert product.rank() == x.rank() * y.rank()


# -- duality -------------------------------------------------------------------

def test_atiyah_bundles_self_dual():
    assert dual(NT, NT.atiyah(5)) == NT.atiyah(5)


def test_dual_inverts_line():
    assert dual(NT, NT.bundle(3, 2)) == NT.bundle(-3, 2)


@given(contexts, st.data())
def test_dual_is_involution(ctx, data):
    x = data.draw(bundle_sums(ctx))
    assert x.dual().dual() == x


# -- tensor powers ---------------------------------------------------------------

def test_f2_cubed():
    # Oracle-confirmed: (q+q^-1)^3 = [4] + 2[2].
    f2 = sum_of(NT, (1, 0, 2))
    assert f2.tensor_power(3) == sum_of(NT, (2, 0, 2), (1, 0, 4))


def test_f3_squared():
    f3 = sum_of(NT, (1, 0, 3))
    assert f3.tensor_power(2) == sum_of(NT, (1, 0, 1), (1, 0, 3), (1, 0, 5))


def test_first_power_is_identity():
    x = sum_of(NT, (1, 2, 3), (2, 0, 1))
    assert x.tensor_power(1) == x


def test_zeroth_power_is_unit():
    assert sum_of(NT, (1, 1, 4)).tensor_power(0) == BundleSum.unit(NT)


def test_power_of_zero_rejected():
    with pytest.raises(ValueError):
        BundleSum.zero(NT).tensor_power(2)


def test_negative_power_uses_dual():
    ctx = TorsionContext(3)
    line = BundleSum.single(ctx, ctx.line(1))
    # L^(n-1) is the inverse of L in a torsion context.
    assert line.tensor_power(-1) == BundleSum.single(ctx, ctx.line(2))
    f2 = BundleSum.single(NT, NT.atiyah(2))
    assert f2.tensor_power(-2) == f2.tensor_power(2)
    e = BundleSum.single(ctx, ctx.bundle(1, 2))
    assert e ** -1 == BundleSum.single(ctx, ctx.bundle(2, 2))
    assert e ** -3 == e.dual() ** 3
    # In the ring the dual is not the inverse, so negative ring powers are refused.
    with pytest.raises(ValueError):
        lift(e) ** -1
    assert lift(e) ** 3 == e ** 3


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_power_parity_and_top_component(r, m):
    power = BundleSum.single(NT, NT.atiyah(r)).tensor_power(m)
    top = (r - 1) * m + 1
    assert all(b.index % 2 == top % 2 for b in power.terms)
    assert power.multiplicity(NT.atiyah(top)) == 1
    assert all(b.index <= top for b in power.terms)


# Tensor powers go through packed characters or repeated products, ring
# powers always through repeated Clebsch-Gordan products: the routes must agree.

def ring_power(x, m):
    return lift(x.dual() if m < 0 else x) ** abs(m)


def packed_power(x, m):
    base = x.dual() if m < 0 else x
    return BundleSum(x.context, character_power(base, abs(m)))


@given(
    st.sampled_from([TorsionContext(n) for n in (0, 1, 2, 3, 4, 6)]),
    st.data(),
    st.integers(min_value=-8, max_value=8).filter(bool),
)
@settings(max_examples=150, deadline=None)
def test_tensor_power_matches_ring_power(ctx, data, m):
    x = data.draw(bundle_sums(ctx, min_terms=1))
    expected = ring_power(x, m)
    assert x.tensor_power(m) == expected
    if abs(m) >= 2:
        assert packed_power(x, m) == expected


def test_line_powers_match_ring_power():
    # L^e to the m-th is L^(e·m); the ring power is m - 1 Clebsch-Gordan
    # products of the (dualized) base.
    for n in range(7):
        ctx = TorsionContext(n)
        for e in range(-6, 7):
            line = BundleSum.single(ctx, ctx.line(e))
            for m in range(-30, 31):
                assert line.tensor_power(m) == ring_power(line, m), (n, e, m)


def test_line_powers_take_one_word_operation():
    # A line class has one q-row of one slot, so the recurrence takes its
    # power in one word operation, and never refuses it, at any power.
    for n in (0, 1, 4):
        ctx = TorsionContext(n)
        for e in (-3, 0, 1, 5):
            line = BundleSum.single(ctx, ctx.line(e))
            for m in (2, 7, 10**8, 10**400):
                assert characters._recurrence_plan(line, m)[0] == 1, (n, e, m)
                assert line.tensor_power(m) == BundleSum.single(ctx, ctx.line(e * m))
                assert line.tensor_power(-m) == BundleSum.single(ctx, ctx.line(-e * m))


def test_mixed_parity_power_matches_ring_power():
    for n in (0, 1, 2, 3, 4, 6):
        ctx = TorsionContext(n)
        x = sum_of(ctx, (1, 0, 2), (1, 1, 3))  # F_2 + L*F_3
        for m in (-5, 2, 7):
            assert x.tensor_power(m) == ring_power(x, m)
            assert packed_power(x, m) == ring_power(x, m)


@given(
    st.sampled_from([TorsionContext(n) for n in (0, 1, 2, 3, 4, 6)]),
    st.data(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_recurrence_matches_ring_power(ctx, data, big):
    # Multiplicities from 2^64 up take several words per slot; small ones
    # allow powers up to 40.  Mixed index parities mix the q-parities.
    mults = st.sampled_from([2**64, 2**64 + 1, 3 * 2**70]) if big else st.integers(1, 3)
    pairs = data.draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(1, 4), mults), min_size=1, max_size=3
    ))
    x = BundleSum.of(ctx, [(ctx.bundle(e, r), k) for e, r, k in pairs])
    m = data.draw(st.integers(min_value=1, max_value=12 if big else 40))
    # Keep the reference, repeated Clebsch-Gordan products, small.
    assume(_loop_fits(x, m, math.inf, 1 << 17, _spread(x)))
    expected = ring_power(x, m)
    assert x.tensor_power(m) == expected
    if characters._recurrence_plan(x, m)[0] > MAX_LOOP_WORDS:
        # Its own estimate may pass the cap where products fit (several words
        # per slot): then it refuses and tensor_power takes the products.
        with pytest.raises(PowerTooLargeError):
            packed_power(x, m)
    else:
        assert packed_power(x, m) == expected


def test_recurrence_steps_are_the_hand_count():
    # 100 fixed steps, plus per q-row one per monomial outside the lowest
    # q-row, one for the division and one per t-slot.  F_2^3: 2 q-rows of
    # one slot, one monomial (q^1) outside the lowest row.  F_100^7: 7·99 // 2
    # + 1 = 347 q-rows of one slot, 99 monomials outside the lowest row.
    f2, f100 = BundleSum.single(NT, NT.atiyah(2)), BundleSum.single(NT, NT.atiyah(100))
    assert characters._recurrence_plan(f2, 3)[-1] == 100 + 2 * (1 + 1 + 1)
    assert characters._recurrence_plan(f100, 7)[-1] == 100 + 347 * (99 + 1 + 1)
    # L*F_3 + F_2 over L of order 4, power 10: mixed index parities take
    # q-steps of 1, so 10·(2·2) // 2 + 1 = 21 q-rows of 10·1 + 1 = 11 t-slots,
    # read off after the fold to 4; the base has 3 + 2 monomials, one of them
    # (L·q^-2) in the lowest row.
    ctx = TorsionContext(4)
    x = sum_of(ctx, (1, 1, 3), (1, 0, 2))
    assert characters._recurrence_plan(x, 10)[3:] == (21, 11, 100 + 21 * (4 + 1 + 4))
    # Above the limit of word operations the recurrence refuses: no count.
    for y, m in ((f100, 1000), (f2, 10**8), (BundleSum.single(NT, NT.atiyah(10**8)), 2)):
        plan = characters._recurrence_plan(y, m)
        assert plan[0] > MAX_LOOP_WORDS and plan[-1] == math.inf


def test_recurrence_refusal_leaves_tensor_power_to_products():
    # (L^3 + L^-3) * 2^64 F_4, power 11: the recurrence estimates 1079772 word
    # operations, past MAX_LOOP_WORDS; repeated products write about 55000.
    x = BundleSum.of(NT, [(NT.bundle(3, 4), 2**64), (NT.bundle(-3, 4), 2**64)])
    assert characters._recurrence_plan(x, 11)[0] > MAX_LOOP_WORDS
    assert _loop_fits(x, 11, math.inf, 1 << 17, _spread(x))
    with pytest.raises(PowerTooLargeError):
        packed_power(x, 11)
    assert x.tensor_power(11) == ring_power(x, 11)


def test_recurrence_divides_by_zero_divisor_rows():
    # The lowest q-row of F_3 + L^(n/2)*F_3 is 1 + t^(n/2), a zero divisor
    # modulo t^n - 1: the recurrence divides before reducing, so it is exact.
    for n in (2, 4, 6):
        ctx = TorsionContext(n)
        x = sum_of(ctx, (1, 0, 3), (1, n // 2, 3))
        for m in (2, 7, 20, 40):
            assert packed_power(x, m) == ring_power(x, m)


def test_read_off_matches_ring_power_on_two_term_bases():
    # The read-off walks only the nonzero slots of the rows, so a skipped
    # slot must read off as no term.  Every L^e*F_r + L^f*F_s with |e|, |f|
    # <= 2 and r, s <= 4: equal and unequal classes, both q-steps, and over
    # orders 4 and 6 t-columns that fold.
    classes = [(e, r) for e in range(-2, 3) for r in range(1, 5)]
    for n in (0, 1, 4, 6):
        ctx = TorsionContext(n)
        for i, (e, r) in enumerate(classes):
            for f, s in classes[i:]:
                x = sum_of(ctx, (1, e, r), (1, f, s))
                for m in range(2, 7):
                    assert packed_power(x, m) == ring_power(x, m), (n, e, r, f, s, m)


def test_lowest_row_power_at_the_slot_bound():
    # The slots of A_0^m hold rank^m: 3 O to the 500th is one coefficient of
    # exactly 3^500; the coefficients of (2 + 3t + t^2)^200 sum to 6^200, and
    # modulo t^4 - 1 the folded rows hold those sums.
    x = sum_of(NT, (3, 0, 1))
    assert packed_power(x, 500).terms == {NT.line(0): 3**500} == ring_power(x, 500).terms
    for n in (0, 4):
        ctx = TorsionContext(n)
        y = sum_of(ctx, (2, 0, 1), (3, 1, 1), (1, 2, 1))  # 2 O + 3 L + L^2
        assert packed_power(y, 200) == ring_power(y, 200)


def test_f2_power_multiplicities_are_ballot_numbers():
    for m in (300, 5000):  # F_2^5000: too many words for repeated products
        power = BundleSum.single(NT, NT.atiyah(2)).tensor_power(m)
        combs = [0] + [math.comb(m, k) for k in range(m // 2 + 1)]
        expected = {NT.atiyah(m - 2 * k + 1): combs[k + 1] - combs[k] for k in range(m // 2 + 1)}
        assert power.terms == expected


def test_first_power_of_high_index_is_immediate():
    f = BundleSum.single(NT, NT.atiyah(10**6))
    assert f.tensor_power(1) == f
    assert f.tensor_power(-1) == f
    g = BundleSum.single(NT, NT.bundle(3, 10**8))
    assert g.tensor_power(-1) == BundleSum.single(NT, NT.bundle(-3, 10**8))


def test_sparse_powers_too_wide_to_pack():
    # 10^8 apart: the packed integer would have 2·10^8 rows.
    x = sum_of(NT, (1, 0, 1), (1, 10**8, 1))  # O + L^100000000
    assert x.tensor_power(2) == sum_of(NT, (1, 0, 1), (2, 10**8, 1), (1, 2 * 10**8, 1))
    y = sum_of(NT, (1, 0, 2), (1, 10**8, 3))  # F_2 + L^100000000*F_3
    for m in (3, -4):
        assert y.tensor_power(m) == ring_power(y, m)


def test_high_index_square_too_large_to_pack():
    f = BundleSum.single(NT, NT.atiyah(250000))
    with pytest.raises(PowerTooLargeError):
        character_power(f, 2)
    square = f.tensor_power(2)
    assert square.terms == {NT.atiyah(j): 1 for j in range(1, 500000, 2)}


def test_powers_of_a_line_bundle_never_overflow():
    huge = 10**400
    line = BundleSum.single(NT, NT.line(2))
    assert line.tensor_power(huge) == BundleSum.single(NT, NT.line(2 * huge))
    ctx = TorsionContext(3)
    assert BundleSum.single(ctx, ctx.line(1)).tensor_power(-huge).terms == {
        ctx.line(-huge): 1
    }


def test_oversized_power_rejected_up_front():
    f2 = BundleSum.single(NT, NT.atiyah(2))
    for m in (10**8, -(10**8), 10**400):
        with pytest.raises(PowerTooLargeError):
            f2.tensor_power(m)
    with pytest.raises(PowerTooLargeError):
        f2.tensor_power(1000).tensor_power(1000)
    with pytest.raises(PowerTooLargeError):
        BundleSum.single(NT, NT.atiyah(10**8)).tensor_power(2)


@pytest.mark.parametrize(
    "expression, torsion, power, route",
    [
        ("F_2", 0, 1000, "packed"),
        ("L^-1*F_2 + O", 4, 150, "packed"),
        ("L^2*F_3 + F_2", 6, 4, "packed"),
        ("F_50000", 0, 2, "products"),
        ("O + L^100000000", 0, 2, "products"),
        ("F_250000", 0, 2, "products"),
        ("F_2", 0, 10**8, "refused"),
        # One case on each side of a crossover: F_2 and F_20 where the steps
        # decide, F_100 where the products' words limit decides.
        ("F_2", 0, 2, "products"),
        ("F_2", 0, 3, "packed"),
        ("F_20", 0, 7, "products"),
        ("F_20", 0, 8, "packed"),
        ("F_100", 0, 6, "products"),
        ("F_100", 0, 7, "products"),
        ("F_100", 0, 16, "products"),
        ("F_100", 0, 17, "packed"),
        ("F_1000", 0, 3, "products"),
        ("F_1000", 0, 4, "refused"),
        # A line class: a square by one product, higher powers by the recurrence.
        ("L^3", 0, 2, "products"),
        ("L^3", 4, 7, "packed"),
        ("L^-2", 0, 10**400, "packed"),
    ],
)
def test_tensor_power_route(monkeypatch, expression, torsion, power, route):
    packed, products = [], []
    real_power, real_tensor = characters._recurrence_power, BundleSum.tensor

    def recording_power(x, m, plan):
        result = real_power(x, m, plan)
        packed.append(m)  # only calls that return a power
        return result

    def recording_tensor(x, y):
        products.append(len(y.terms))
        return real_tensor(x, y)

    x = evaluate_expression(expression, TorsionContext(torsion))
    monkeypatch.setattr(characters, "_recurrence_power", recording_power)
    monkeypatch.setattr(BundleSum, "tensor", recording_tensor)
    if route == "refused":
        with pytest.raises(PowerTooLargeError):
            x.tensor_power(power)
    else:
        x.tensor_power(power)
    assert packed == ([power] if route == "packed" else [])
    assert len(products) == (power - 1 if route == "products" else 0)


def test_product_at_the_word_limit_computes():
    # One term against one of index 1024 writes 1024 terms, each multiplicity
    # below 2^65535 takes 1024 words: 2^20 words, the most allowed.
    assert 1024 * 1024 == MAX_LOOP_WORDS
    x = BundleSum.single(NT, NT.atiyah(1024), 2**32767)
    assert x.tensor(x).terms == {NT.atiyah(j): 2**65534 for j in range(1, 2048, 2)}
    y = x.scale(2)
    with pytest.raises(ValueError, match="limit"):
        y.tensor(y)
    # A pair writes min(r, s) terms, so a small index against a huge one is cheap.
    f2, huge = BundleSum.single(NT, NT.atiyah(2)), BundleSum.single(NT, NT.atiyah(10**8))
    for product in (huge.tensor(f2), f2.tensor(huge)):
        assert product.terms == {NT.atiyah(10**8 - 1): 1, NT.atiyah(10**8 + 1): 1}


# -- rank / det examples ----------------------------------------------------------

def test_rank_examples():
    assert BundleSum.unit(NT).rank() == 1
    assert sum_of(NT, (1, 0, 2), (1, 0, 3)).rank() == 5


def test_det_exponent_examples():
    assert sum_of(NT, (1, 0, 7)).det_exponent() == 0
    assert sum_of(NT, (1, 3, 2)).det_exponent() == 6
    ctx = TorsionContext(4)
    x = BundleSum.of(ctx, [(ctx.bundle(3, 2), 1), (ctx.bundle(2, 1), 1)])
    assert x.det_exponent() == 0


# -- symmetric powers of F_2 --------------------------------------------------------

def test_sym_power_f2():
    assert sym_power_f2(0) == IndecomposableBundle(0, 1)
    assert sym_power_f2(1) == IndecomposableBundle(0, 2)
    assert sym_power_f2(4) == IndecomposableBundle(0, 5)
    with pytest.raises(ValueError):
        sym_power_f2(-1)


# -- canonicalization ---------------------------------------------------------------

def test_exponents_canonical_at_construction():
    ctx = TorsionContext(4)
    assert ctx.bundle(6, 2) == ctx.bundle(2, 2)
    x = BundleSum.of(ctx, [(IndecomposableBundle(-1, 2), 1)])
    assert x == BundleSum.single(ctx, ctx.bundle(3, 2))
    assert x == BundleSum.single(ctx, IndecomposableBundle(-1, 2))
    assert KRingElement.single(ctx, IndecomposableBundle(-5, 2), -3).terms == {(2, 3): -3}


def test_no_zero_multiplicities_stored():
    x = BundleSum.of(NT, [(NT.atiyah(2), 0)])
    assert x == BundleSum.zero(NT)
    with pytest.raises(ValueError):
        BundleSum.of(NT, [(NT.atiyah(2), -1)])
    with pytest.raises(ValueError):
        BundleSum.single(NT, NT.atiyah(2), -2)
    assert BundleSum.single(NT, NT.atiyah(2), 0) == BundleSum.zero(NT)
    assert KRingElement.single(NT, NT.atiyah(2), 0) == KRingElement.zero(NT)


def test_scaling():
    f2 = sum_of(NT, (1, 0, 2))
    assert 2 * f2 == sum_of(NT, (2, 0, 2))
    assert 0 * f2 == BundleSum.zero(NT)
    with pytest.raises(ValueError):
        f2.scale(-1)
    with pytest.raises(ValueError):
        -1 * f2
    assert -1 * lift(f2) == -f2


# -- ring axioms for K-ring elements --------------------------------------------------

@given(contexts, st.data())
@settings(max_examples=50, deadline=None)
def test_kring_additive_group(ctx, data):
    a = data.draw(ring_elements(ctx))
    b = data.draw(ring_elements(ctx))
    c = data.draw(ring_elements(ctx))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + KRingElement.zero(ctx) == a
    assert a - a == KRingElement.zero(ctx)


@given(contexts, st.data())
@settings(max_examples=40, deadline=None)
def test_kring_multiplication(ctx, data):
    a = data.draw(ring_elements(ctx))
    b = data.draw(ring_elements(ctx))
    c = data.draw(ring_elements(ctx))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * KRingElement.unit(ctx) == a
    assert a * (b + c) == a * b + a * c


@given(contexts, st.data())
@settings(max_examples=40, deadline=None)
def test_kring_extends_bundle_arithmetic(ctx, data):
    x = data.draw(bundle_sums(ctx))
    y = data.draw(bundle_sums(ctx))
    k = data.draw(ring_elements(ctx))
    n = data.draw(st.integers(min_value=0, max_value=3))
    assert lift(x) == x
    assert lift(x) + lift(y) == lift(x + y)
    assert lift(x) * lift(y) == lift(x.tensor(y))
    assert lift(x).dual() == x.dual()
    # BundleSum is the non-negative view: operations that keep coefficients
    # non-negative keep the view, anything signed leaves it.
    powers = (x ** 2, x ** -1) if x else ()
    for value in (x + y, x.tensor(y), x * y, x.dual(), x.scale(n), n * x, x + n, n + x, *powers):
        assert type(value) is BundleSum
    for value in (x - y, -x, x + k, k + x, x * k, k * x, x.tensor(k), x - n, x + -1 - n,
                  k.dual(), k.scale(n), k + n):
        assert type(value) is KRingElement


def test_bundle_sum_plus_a_non_negative_integer_is_a_bundle_sum():
    # k >= 0 is read as k·O, so the sum keeps the bundle-sum view, its
    # tensor power and the power plan behind **.
    e = BundleSum.single(NT, NT.atiyah(2))
    for value in (e + 3, 3 + e, e + 0, e * 3):
        assert type(value) is BundleSum
    assert e + 3 == 3 + e == BundleSum.of(NT, [(NT.line(0), 3), (NT.atiyah(2), 1)])
    assert e + 0 == e
    for value in (e + -1, -1 + e, e - 1, e - 0):
        assert type(value) is KRingElement
    cube = BundleSum.of(
        NT, [(NT.line(0), 4), (NT.atiyah(2), 5), (NT.atiyah(3), 3), (NT.atiyah(4), 1)])
    assert (e + 1).tensor_power(3) == (e + 1) ** 3 == cube
    assert type((e + 1) ** 3) is BundleSum


def test_signed_str():
    f2 = KRingElement.single(NT, NT.atiyah(2))
    one = KRingElement.unit(NT)
    # Terms keep the bundle-sum order (index, then exponent); signs join them.
    assert str(2 * f2 - KRingElement.single(NT, NT.atiyah(4))) == "2 F_2 - F_4"
    assert str(2 * f2 - one) == "-O + 2 F_2"
    assert str(-3 * KRingElement.single(NT, NT.bundle(-1, 2)) - f2) == "-3 L^-1*F_2 - F_2"
    assert str(f2 - f2) == "0"
    # Non-negative elements print like the bundle sums they are.
    assert str(2 * f2 + KRingElement.single(NT, NT.atiyah(4))) == "2 F_2 + F_4"
    assert str(sum_of(NT, (2, 0, 2), (1, 0, 4))) == "2 F_2 + F_4"


def reference_text(x):
    """The text of a sum as one join over its classes, each named by str."""
    if not x.terms:
        return "0"
    parts = []
    for b in x.support():
        c = x.terms[b]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {b}" if abs(c) == 1 else f"{sign} {abs(c)} {b}")
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


_SIGNED_COEFFICIENTS = st.one_of(
    st.sampled_from([1, -1, 2, -2]),
    st.sampled_from([2**64, -(2**64), 3 * 2**70 + 1, -(2**130 + 7)]),
    st.integers(-50, 50).filter(bool),
)
_NAMED_CLASSES = st.tuples(
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(-12, 12)),
    st.one_of(st.just(1), st.integers(2, 12)),
)


@given(contexts, st.lists(st.tuples(_NAMED_CLASSES, _SIGNED_COEFFICIENTS), max_size=12))
@settings(max_examples=300, deadline=None)
def test_sum_names_match_the_names_of_its_classes(ctx, pairs):
    x = KRingElement.of(ctx, [(ctx.bundle(e, r), c) for (e, r), c in pairs])
    assert str(x) == reference_text(x)
    named = x.named_terms()
    assert [name for _, name in named] == [str(b) for b in x.support()]
    assert [c for c, _ in named] == [x.terms[b] for b in x.support()]
    if all(c > 0 for c in x.terms.values()):
        y = BundleSum.of(ctx, x.terms)
        assert str(y) == reference_text(x) and y.named_terms() == named
