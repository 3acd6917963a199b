"""Core tensor arithmetic: frozen examples plus algebraic-law property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah import (
    BundleSum,
    ContextMismatchError,
    IndecomposableBundle,
    KRingElement,
    TorsionContext,
    dual,
    sym_power_f2,
    tensor_indec,
)

NT = TorsionContext(0)


def sum_of(ctx, *pairs):
    return BundleSum.of(ctx, [(ctx.bundle(e, r), m) for (m, e, r) in pairs])


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
            (c * KRingElement.basis(ctx, b) for b, c in pairs),
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
        BundleSum.unit(TorsionContext(2)) + KRingElement.one(TorsionContext(3))


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
        KRingElement.from_sum(e) ** -1
    assert KRingElement.from_sum(e) ** 3 == e ** 3


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_power_parity_and_top_component(r, m):
    power = BundleSum.single(NT, NT.atiyah(r)).tensor_power(m)
    top = (r - 1) * m + 1
    assert all(b.index % 2 == top % 2 for b in power.terms)
    assert power.multiplicity(NT.atiyah(top)) == 1
    assert all(b.index <= top for b in power.terms)


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


def test_no_zero_multiplicities_stored():
    x = BundleSum.of(NT, [(NT.atiyah(2), 0)])
    assert x == BundleSum.zero(NT)
    with pytest.raises(ValueError):
        BundleSum.of(NT, [(NT.atiyah(2), -1)])
    with pytest.raises(ValueError):
        BundleSum.single(NT, NT.atiyah(2), -2)


def test_scaling():
    f2 = sum_of(NT, (1, 0, 2))
    assert 2 * f2 == sum_of(NT, (2, 0, 2))
    assert 0 * f2 == BundleSum.zero(NT)
    with pytest.raises(ValueError):
        f2.scale(-1)
    with pytest.raises(ValueError):
        -1 * f2
    assert -1 * KRingElement.from_sum(f2) == -f2


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
    assert a * KRingElement.one(ctx) == a
    assert a * (b + c) == a * b + a * c


@given(contexts, st.data())
@settings(max_examples=40, deadline=None)
def test_kring_extends_bundle_arithmetic(ctx, data):
    x = data.draw(bundle_sums(ctx))
    y = data.draw(bundle_sums(ctx))
    k = data.draw(ring_elements(ctx))
    n = data.draw(st.integers(min_value=0, max_value=3))
    lift = KRingElement.from_sum
    assert lift(x) == x
    assert lift(x) + lift(y) == lift(x + y)
    assert lift(x) * lift(y) == lift(x.tensor(y))
    assert lift(x).dual() == x.dual()
    # BundleSum is the non-negative view: operations that keep coefficients
    # non-negative keep the view, anything signed leaves it.
    powers = (x ** 2, x ** -1) if x else ()
    for value in (x + y, x.tensor(y), x * y, x.dual(), x.scale(n), n * x, *powers):
        assert type(value) is BundleSum
    for value in (x - y, -x, x + k, k + x, x * k, k * x, x.tensor(k), x + 1, k.dual(), k.scale(n)):
        assert type(value) is KRingElement


def test_signed_str():
    f2 = KRingElement.basis(NT, NT.atiyah(2))
    one = KRingElement.one(NT)
    # Terms keep the bundle-sum order (index, then exponent); signs join them.
    assert str(2 * f2 - KRingElement.basis(NT, NT.atiyah(4))) == "2 F_2 - F_4"
    assert str(2 * f2 - one) == "-O + 2 F_2"
    assert str(-3 * KRingElement.basis(NT, NT.bundle(-1, 2)) - f2) == "-3 L^-1*F_2 - F_2"
    assert str(f2 - f2) == "0"
    # Non-negative elements print like the bundle sums they are.
    assert str(2 * f2 + KRingElement.basis(NT, NT.atiyah(4))) == "2 F_2 + F_4"
    assert str(sum_of(NT, (2, 0, 2), (1, 0, 4))) == "2 F_2 + F_4"
