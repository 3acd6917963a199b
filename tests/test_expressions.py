"""Expression grammar: parsing, evaluation, and the format round-trip."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atiyah import (
    BundleSum,
    ExpressionError,
    KRingElement,
    TorsionContext,
    evaluate_expression,
    parse_expression,
)
from atiyah.expressions import MAX_NESTING, _tokenize

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
    with pytest.raises(ExpressionError, match="unexpected character"):
        parse_expression("F_²")  # a digit, but not a decimal one


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


# -- tokenizer -------------------------------------------------------------------

_REFERENCE_PUNCT = {"+": "plus", "*": "star", "^": "caret", "(": "lparen",
                    ")": "rparen", "-": "minus", "_": "underscore"}


def reference_tokenize(src):
    """The tokenizer as a loop over characters: (kind, value, position)
    triples, runs of str.isdecimal characters as integers, str.isspace
    characters skipped."""
    tokens = []
    i, size = 0, len(src)
    while i < size:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < size and src[i].isdecimal():
                i += 1
            try:
                value = int(src[start:i])
            except ValueError:  # more digits than int() may convert
                raise ExpressionError(
                    f"integer literal of {i - start} digits is too long", start
                ) from None
            tokens.append(("int", value, start))
            continue
        if ch in "OLF":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch in _REFERENCE_PUNCT:
            tokens.append((_REFERENCE_PUNCT[ch], None, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, size))
    return tokens


def _outcome(tokenize, src):
    try:
        return [tuple(tok) for tok in tokenize(src)]
    except ExpressionError as err:
        return str(err), err.position


_TOKEN_CHARS = st.one_of(
    st.sampled_from("0123456789+-*^()_OLF "),  # the grammar
    # decimal digits of other scripts, then digits that are not decimal
    st.sampled_from("٣５߉²³¹½ↂ"),
    # spaces, then two characters that are not
    st.sampled_from("\u00a0\u2003\u3000\x1c\x1f\x85\n\t\u200b\ufeff"),
    st.characters(),  # anything else
)


@given(st.text(_TOKEN_CHARS, max_size=40))
@example("F_٣ + L^２")
@example("F_²")
@example("1" * 4301)
@example("O + " + "9" * 4301 + " F_2 ?")
@example("2 F_2 ? " + "1" * 4301)
@settings(max_examples=500, deadline=None)
def test_tokenizer_matches_the_character_loop(src):
    assert _outcome(_tokenize, src) == _outcome(reference_tokenize, src)


# -- long sums ---------------------------------------------------------------------

def _random_part(rng):
    e, r = rng.randint(-3, 3), rng.randint(1, 4)  # few classes, so they repeat
    atom = rng.choice(["L" if e == 1 else f"L^{e}", f"L^{e}*F_{r}", f"F({r})", "O"])
    kind = rng.random()
    if kind < 0.15:
        return f"0 {atom}"
    if kind < 0.45:
        return f"{rng.randint(1, 9)} {atom}"
    if kind < 0.55:
        return f"({atom})^{rng.randint(-3, 3)}"
    return atom


@pytest.mark.parametrize("torsion", [0, 1, 4, 6])
def test_long_sum_equals_the_fold_of_its_parts(torsion):
    ctx = TorsionContext(torsion)
    rng = random.Random(torsion)
    for size in (1, 2, 3, 50, 200, 400):
        parts = [_random_part(rng) for _ in range(size)]
        expected = evaluate_expression(parts[0], ctx)
        for part in parts[1:]:
            expected = KRingElement.__add__(expected, evaluate_expression(part, ctx))
        assert evaluate_expression(" + ".join(parts), ctx) == expected


def test_sum_of_zero_multiples_is_zero_and_still_checks_its_parts():
    assert evaluate_expression("0 F_2 + 0 L^3 + 0", NT) == BundleSum.zero(NT)
    with pytest.raises(ValueError, match="zero sum"):
        evaluate_expression("O + 0 (0)^2", NT)


# -- round trip --------------------------------------------------------------------

contexts = st.sampled_from([TorsionContext(n) for n in (0, 1, 2, 3, 4, 5, 6)])


def bundle_sums(ctx):
    # Up to 400 terms: a size is drawn first, since lists drawn freely stay short.
    bundle = st.builds(
        ctx.bundle,
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    pair = st.tuples(bundle, st.integers(min_value=1, max_value=5))
    return st.integers(min_value=0, max_value=400).flatmap(
        lambda n: st.lists(pair, min_size=n, max_size=n)
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
