"""Expression grammar: parsing, evaluation, and the format round-trip."""

import random

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import atiyah.bundles as bundles_module
import atiyah.characters as characters_module
from atiyah import (
    BundleSum,
    ExpressionError,
    KRingElement,
    TorsionContext,
    evaluate_expression,
    parse_expression,
)
from atiyah.expressions import MAX_NESTING, Atom, Power, Product, Sum, _Parser, _tokenize

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


@pytest.mark.parametrize("src, node", [
    ("L^2*F_3", Atom(2, 3)),
    ("(L^-1)^-1^2", Atom(2, 1)),
    ("L^0", Atom(0, 1)),
    ("O^5", Atom(0, 1)),
    ("F_1^-3", Atom(0, 1)),
    ("F_3*L^-2*L", Atom(-1, 3)),
    ("L*(L^2)^-3*F(4)*O", Atom(-5, 4)),
    ("2 L^2*F_3", Sum(((2, Atom(2, 3)),))),
])
def test_class_names_parse_as_one_atom(src, node):
    assert parse_expression(src) == node


@pytest.mark.parametrize("src, node", [
    ("F_2*F_3", Product((Atom(0, 2), Atom(0, 3)))),
    ("L*F_2*F_3", Product((Atom(1, 2), Atom(0, 3)))),
    ("F_2*L*F_3", Product((Atom(1, 2), Atom(0, 3)))),
    ("F_2*F_3*L", Product((Atom(0, 2), Atom(0, 3), Atom(1, 1)))),
    ("F_2^2*L", Product((Power(Atom(0, 2), (2,)), Atom(1, 1)))),
    ("F_4^1", Power(Atom(0, 4), (1,))),
    ("(L*F_2)^-1", Power(Atom(1, 2), (-1,))),
    ("(2 L)^2", Power(Sum(((2, Atom(1, 1)),)), (2,))),
    ("(L + O)*L", Product((Sum(((1, Atom(1, 1)), (1, Atom(0, 1)))), Atom(1, 1)))),
])
def test_other_products_and_powers_keep_their_nodes(src, node):
    assert parse_expression(src) == node


def test_a_folded_class_evaluates_without_products_or_powers(monkeypatch):
    def refuse(*args):
        raise AssertionError("a folded class took a product or a power")

    monkeypatch.setattr(BundleSum, "tensor", refuse)
    monkeypatch.setattr(BundleSum, "tensor_power", refuse)
    ctx = TorsionContext(4)
    assert evaluate_expression("L^2*F_3*L^-3", ctx) == sum_of(ctx, (1, 3, 3))
    assert evaluate_expression("(L^2)^-3*F_2", ctx) == sum_of(ctx, (1, 2, 2))


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
    characters skipped, and a class name as the tokens of its characters."""
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


def _outcome(parse, src):
    try:
        return parse(src)
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

# Class names in every spelling, with zero and padded indices, next to the
# text that decides whether one is a token: '^' (after spaces too), digits,
# long literals, spaces and other grammar characters.
_NAME_PIECES = st.one_of(
    st.integers(-12, 12).map(lambda e: f"L^{e}"),
    st.tuples(st.sampled_from(["F_{}", "F({})", "F{}", "F_0{}", "F(00{})"]), st.integers(0, 12))
    .map(lambda pair: pair[0].format(pair[1])),
    st.sampled_from(["^", "^-", " ^", "^2", "^-1", "0", "7", " ", "*", "+", "(", ")", "_",
                     "L", "F", "O", "1" * 19, "²", "٣", "\u3000"]),
)


@given(st.one_of(st.text(_TOKEN_CHARS, max_size=40),
                 st.lists(_NAME_PIECES, max_size=10).map("".join)))
@example("F_٣ + L^２")
@example("F_²")
@example("1" * 4301)
@example("O + " + "9" * 4301 + " F_2 ?")
@example("2 F_2 ? " + "1" * 4301)
@example("F_12^2 + L^10^-2")  # a '^' after a name of two digits
@example("L^-" + "9" * 4301 + " + F_" + "0" * 4300 + "1")  # literals too long for int()
@settings(max_examples=500, deadline=None)
def test_tokenizer_matches_the_character_loop(src):
    # Class names are one token, so tokens no longer compare; parse outcomes do.
    reference = _outcome(lambda text: _Parser(reference_tokenize(text)).parse(), src)
    assert _outcome(parse_expression, src) == reference


@pytest.mark.parametrize("src, kinds", [
    ("5 L^-3*F(5)", ["int", "atom", "star", "atom", "end"]),
    ("L^2*F_3^2", ["atom", "star", "atom", "caret", "int", "end"]),
    ("F_0", ["F", "underscore", "int", "end"]),
    ("L ^ 2", ["L", "caret", "int", "end"]),
])
def test_class_names_are_one_token_unless_the_parser_must_see_more(src, kinds):
    assert [kind for kind, _, _ in _tokenize(src)] == kinds


def test_one_atom_per_spelling():
    tokens = _tokenize("F_3 + L^-3*F(5) + F_3 + F3")
    atoms = [value for kind, value, _ in tokens if kind == "atom"]
    assert atoms == [Atom(0, 3), Atom(-3, 1), Atom(0, 5), Atom(0, 3), Atom(0, 3)]
    assert atoms[0] is atoms[3] and atoms[0] is not atoms[4]


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


# -- independent point evaluation ----------------------------------------------
#
# L^e ⊗ F_r ↦ t^e·[r]_q is a ring homomorphism on K(X), and the dual acts as
# t ↦ 1/t, so an expression and its decomposition agree at every point (t0,
# q0).  Trees are tuples: ("atom", e, r) is L^e ⊗ F_r, ("sum", ((m, node),
# ...)), ("product", nodes) and ("power", base, exponents), the chain applied
# left to right.  Values are taken modulo P = 2^61 - 1 at a random q0, as
# vectors of n residues in F_P[t]/(t^n - 1): over L of order n, with t itself
# (so no root of unity is needed, and 4 does not divide P - 1), and over
# non-torsion L with n = 1 and t = t0 at random.  Nothing here calls into
# bundles or characters; the result is read as its (index, exponent) pairs.

P = (1 << 61) - 1
_TORSIONS = (0, 1, 2, 3, 4, 6)


def _bracket(r, q0):
    """[r]_q at q0: (q0^r - q0^-r) / (q0 - q0^-1) modulo P."""
    return (pow(q0, r, P) - pow(q0, -r, P)) * pow(q0 - pow(q0, -1, P), -1, P) % P


def _cyclic_product(x, y):
    n = len(x)
    out = [0] * n
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[(i + j) % n] = (out[(i + j) % n] + a * b) % P
    return out


def _cyclic_power(x, m):
    result = [1] + [0] * (len(x) - 1)
    while m:
        if m & 1:
            result = _cyclic_product(result, x)
        x = _cyclic_product(x, x)
        m >>= 1
    return result


def tree_value(node, point, sign=1):
    """The tree's character at ``point`` = (n, t0, q0); sign -1 evaluates its dual."""
    n, t0, q0 = point
    kind = node[0]
    if kind == "atom":
        _, e, r = node
        value = [0] * n
        value[sign * e % n] = pow(t0, sign * e, P) * _bracket(r, q0) % P
        return value
    if kind == "sum":
        value = [0] * n
        for m, part in node[1]:
            for i, c in enumerate(tree_value(part, point, sign)):
                value[i] = (value[i] + m * c) % P
        return value
    if kind == "product":
        value = [1] + [0] * (n - 1)
        for factor in node[1]:
            value = _cyclic_product(value, tree_value(factor, point, sign))
        return value
    _, base, exponents = node
    *head, last = exponents
    inner = ("power", base, tuple(head)) if head else base
    if last == 0:
        return [1] + [0] * (n - 1)
    return _cyclic_power(tree_value(inner, point, sign if last > 0 else -sign), abs(last))


def sum_value(x, point):
    """Σ m·t^e·[r]_q over the terms m·L^e ⊗ F_r of a decomposition, at ``point``."""
    n, t0, q0 = point
    value = [0] * n
    for (index, exponent), m in x.terms.items():
        slot = exponent % n
        value[slot] = (value[slot] + m * pow(t0, exponent, P) * _bracket(index, q0)) % P
    return value


_SUM, _TERM, _PRODUCT, _POWER, _PRIMARY = range(5)


def render(node, rng, level=_SUM):
    """Write a tree in the grammar, with random spellings; a text is put in
    parentheses where ``level`` binds tighter than its own precedence."""
    kind = node[0]
    if kind == "atom":
        _, e, r = node
        f = rng.choice((f"F_{r}", f"F({r})", f"F{r}"))
        if r == 1:
            text = rng.choice(("O", f)) if e == 0 else "L" if e == 1 else f"L^{e}"
            prec = _PRIMARY if e in (0, 1) else _POWER
        else:
            text = f if e == 0 else f"L*{f}" if e == 1 else f"L^{e}*{f}"
            prec = _PRIMARY if e == 0 else _PRODUCT
    elif kind == "sum":
        parts = []
        for m, part in node[1]:
            if m == 1 and rng.random() < 0.7:
                parts.append(render(part, rng, _TERM))
            elif part == ("atom", 0, 1) and rng.random() < 0.5:
                parts.append(str(m))  # a bare integer: m copies of O
            else:
                parts.append(f"{m}{rng.choice((' ', '*', ' * '))}{render(part, rng, _PRODUCT)}")
        text, prec = " + ".join(parts), _SUM
    elif kind == "product":
        text = rng.choice(("*", " * ")).join(render(f, rng, _PRODUCT) for f in node[1])
        prec = _PRODUCT
    else:
        _, base, exponents = node
        text = render(base, rng, _PRIMARY) + "".join(f"^{e}" for e in exponents)
        prec = _POWER
    return f"({text})" if prec < level else text


_atoms = st.builds(lambda e, r: ("atom", e, r), st.integers(-3, 3), st.integers(1, 5))


def _compounds(children):
    return st.one_of(
        st.lists(st.tuples(st.integers(0, 3), children), min_size=1, max_size=3).map(
            lambda parts: ("sum", tuple(parts))
        ),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: ("product", tuple(fs))),
        st.tuples(children, st.lists(st.integers(-3, 4), min_size=1, max_size=2)).map(
            lambda pair: ("power", pair[0], tuple(pair[1]))
        ),
    )


trees = st.recursive(_atoms, _compounds, max_leaves=6)


def point_values(tree, src, torsion, t0, q0):
    """(decomposition's value, tree's value) at one point: t0 is used only
    over non-torsion L."""
    point = (1, t0, q0) if torsion == 0 else (torsion, 1, q0)
    result = evaluate_expression(src, TorsionContext(torsion))
    return sum_value(result, point), tree_value(tree, point)


@given(
    trees,
    st.sampled_from(_TORSIONS),
    st.integers(1, P - 1),
    st.integers(2, P - 2),
    st.randoms(use_true_random=False),
)
@example(("sum", ((3, ("atom", 0, 1)),)), 0, 5, 7, random.Random(0))
@example(("power", ("sum", ((2, ("atom", 0, 2)),)), (2,)), 4, 1, 9, random.Random(0))
@example(("power", ("sum", ((1, ("atom", -1, 2)), (1, ("atom", 0, 1)))), (-3,)), 6, 1, 11,
         random.Random(0))
@example(("power", ("sum", ((1, ("atom", -1, 2)), (1, ("atom", 0, 1)))), (4, -4)), 4, 1, 13,
         random.Random(0))  # the recurrence, folded modulo t^4 - 1
@settings(max_examples=300, deadline=None)
def test_every_form_agrees_with_its_point_value(tree, torsion, t0, q0, rng):
    src = render(tree, rng)
    try:
        decomposition, value = point_values(tree, src, torsion, t0, q0)
    except ValueError as err:  # a power of the zero sum, or over a size limit
        if "zero sum" not in str(err) and "limit" not in str(err):
            raise
        reject()
    assert decomposition == value, src


def _off_by_one(route, calls):
    """``route`` with 1 added to the multiplicity of its first term."""

    def mutated(*args):
        terms = dict(route(*args))
        terms[next(iter(terms))] += 1
        calls.append(args)
        return terms

    return mutated


@pytest.mark.parametrize("module, route, tree", [
    (bundles_module, "_cg_product",
     ("product", (("atom", 0, 2), ("atom", 0, 3)))),
    (characters_module, "_recurrence_power",
     ("power", ("atom", 0, 2), (40,))),
])
@pytest.mark.parametrize("torsion", [0, 4])
def test_point_value_catches_a_mutated_route(monkeypatch, module, route, tree, torsion):
    calls = []
    monkeypatch.setattr(module, route, _off_by_one(getattr(module, route), calls))
    src = render(tree, random.Random(0))
    decomposition, value = point_values(tree, src, torsion, 12345, 678910)
    assert calls, f"{src} did not go through {route}"
    assert decomposition != value
