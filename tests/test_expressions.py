"""Expression grammar: parsing, evaluation, and the format round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyah import (
    BundleSum,
    ExpressionError,
    TorsionContext,
    evaluate_expression,
    parse_expression,
)
from atiyah.expressions import MAX_NESTING

NT = TorsionContext(0)


def sum_of(ctx, *pairs):
    return BundleSum.of(ctx, [(ctx.bundle(e, r), m) for (m, e, r) in pairs])


# -- parsing and evaluation ---------------------------------------------------

def test_product_of_f2s():
    assert evaluate_expression("F_2 * F_2", NT) == sum_of(NT, (1, 0, 1), (1, 0, 3))


def test_unit_atom():
    assert evaluate_expression("O", NT) == BundleSum.unit(NT)


def test_alternate_f_spellings():
    for src in ("F_3", "F(3)", "F3"):
        assert evaluate_expression(src, NT) == sum_of(NT, (1, 0, 3))


def test_line_powers():
    assert evaluate_expression("L^-2", NT) == sum_of(NT, (1, -2, 1))
    assert evaluate_expression("L", NT) == sum_of(NT, (1, 1, 1))


def test_precedence_power_product_sum():
    # power binds before product binds before sum
    assert evaluate_expression("F_2 + F_3 * F_2", NT) == sum_of(NT, (2, 0, 2), (1, 0, 4))
    assert evaluate_expression("F_2 * F_2^2", NT) == evaluate_expression(
        "F_2 * (F_2 * F_2)", NT
    )


def test_parenthesized_power():
    assert evaluate_expression("(F_2 + O)^2", NT) == sum_of(
        NT, (2, 0, 1), (2, 0, 2), (1, 0, 3)
    )


def test_negative_power_of_sum():
    assert evaluate_expression("(L^2 + L^3)^-1", NT) == sum_of(NT, (1, -2, 1), (1, -3, 1))


def test_integer_multiplicities():
    assert evaluate_expression("2 F_2 + F_4", NT) == sum_of(NT, (2, 0, 2), (1, 0, 4))
    assert evaluate_expression("2*F_2", NT) == sum_of(NT, (2, 0, 2))
    assert evaluate_expression("3", NT) == sum_of(NT, (3, 0, 1))
    assert evaluate_expression("0", NT) == BundleSum.zero(NT)


def test_torsion_context_reduction():
    ctx = TorsionContext(4)
    assert evaluate_expression("L^6", ctx) == BundleSum.single(ctx, ctx.line(2))


def test_whitespace_insignificant():
    assert evaluate_expression(" F_2*F_2 ", NT) == evaluate_expression("F_2 * F_2", NT)


def test_stacked_powers_left_associative():
    assert evaluate_expression("F_2^2^2", NT) == evaluate_expression("(F_2^2)^2", NT)


# -- errors ----------------------------------------------------------------------

def test_zero_index_rejected():
    with pytest.raises(ExpressionError, match="F index must be >= 1"):
        parse_expression("F_0")


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("F_2 +* F_3")
    assert err.value.position == 5


def test_unbalanced_parenthesis():
    with pytest.raises(ExpressionError):
        parse_expression("(F_2 + O")


def test_trailing_garbage():
    with pytest.raises(ExpressionError):
        parse_expression("F_2 F_3")


def test_unknown_character():
    with pytest.raises(ExpressionError):
        parse_expression("F_2 ? O")


def test_missing_f_index():
    with pytest.raises(ExpressionError):
        parse_expression("F + O")


def test_deep_nesting_rejected():
    with pytest.raises(ExpressionError, match="nested more than"):
        parse_expression("(" * 3000 + "F_2" + ")" * 3000)
    with pytest.raises(ExpressionError) as err:
        parse_expression("(" * (MAX_NESTING + 1) + "O" + ")" * (MAX_NESTING + 1))
    assert err.value.position == MAX_NESTING


def test_nesting_at_the_limit_evaluates():
    src = "(F_2 + " * MAX_NESTING + "O" + ")^1" * MAX_NESTING
    assert evaluate_expression(src, NT).rank() == 2 * MAX_NESTING + 1


def test_long_power_chain_evaluates():
    assert evaluate_expression("F_2" + "^1" * 3000, NT) == sum_of(NT, (1, 0, 2))


# -- round trip --------------------------------------------------------------------

contexts = st.sampled_from([TorsionContext(n) for n in (0, 1, 2, 3, 4, 5, 6)])


def bundle_sums(ctx):
    bundle = st.builds(
        ctx.bundle, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
    )
    return st.lists(
        st.tuples(bundle, st.integers(min_value=1, max_value=5)), max_size=5
    ).map(lambda pairs: BundleSum.of(ctx, pairs))


@given(contexts, st.data())
@settings(max_examples=100, deadline=None)
def test_parse_of_format_is_identity(ctx, data):
    x = data.draw(bundle_sums(ctx))
    assert evaluate_expression(str(x), ctx) == x


def test_output_terms_sorted_by_index_then_exponent():
    x = BundleSum.of(
        NT,
        [(NT.bundle(2, 3), 1), (NT.bundle(-1, 3), 1), (NT.bundle(0, 1), 1), (NT.bundle(1, 2), 4)],
    )
    assert str(x) == "O + 4 L*F_2 + L^-1*F_3 + L^2*F_3"
