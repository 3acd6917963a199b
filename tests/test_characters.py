"""Character oracle: brackets, multiplicativity, peeling, and cross-checks."""

import contextlib
import io
import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from atiyah.bundles import MAX_LOOP_WORDS
from atiyah.characters import _VERIFY_PROBES, _verify_pairs, character_power
from atiyah.cli import main

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


def at_q3(c):
    """{t-exponent: value} of the Laurent polynomial c at q = 3, nonzero values only."""
    values = {}
    for (t, q), k in c.coeffs.items():
        values[t] = values.get(t, 0) + k * Fraction(3) ** q
    return {t: v for t, v in values.items() if v}


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
def test_product_at_q3_is_the_product_of_the_values(ctx, data):
    # The product at q = 3, t kept modulo t^n - 1, is the product of the two
    # factors there: evaluation is a ring homomorphism.
    a = data.draw(laurent_polynomials(ctx))
    b = data.draw(laurent_polynomials(ctx))
    product = a * b
    expected = {}
    for ta, va in at_q3(a).items():
        for tb, vb in at_q3(b).items():
            t = ctx.reduce_exponent(ta + tb)
            expected[t] = expected.get(t, 0) + va * vb
    assert at_q3(product) == {t: v for t, v in expected.items() if v}
    assert 0 not in product.coeffs.values()
    assert a * BivariateCharacter.zero(ctx) == BivariateCharacter.zero(ctx)


def test_verify_and_oracle_products_take_the_packed_path(monkeypatch, capsys):
    # verify and oracle_check read every pair off a packed integer product
    # by one block test: when every pair agrees, neither makes a character
    # product nor calls decompose_character.  A planted failure calls
    # decompose_character once per failing pair, to name the oracle side.
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(BivariateCharacter, "__mul__", counted(BivariateCharacter.__mul__))
    monkeypatch.setattr(characters_module, "decompose_character", counted(decompose_character))
    for torsion in range(7):
        assert main(["verify", "--rmax", "12", "--torsion", str(torsion)]) == 0
    capsys.readouterr()
    rng = random.Random(16)
    pairs = []
    for _ in range(200):
        ctx = TorsionContext(rng.randrange(7))
        a, b = (ctx.bundle(rng.randint(-9, 9), rng.randint(1, 60)) for _ in range(2))
        assert oracle_check(ctx, a, b).agrees
        pairs.append((ctx, a, b))
    assert calls == []

    # verify: the formula side fails at the 9 pairs F_r, F_s with r odd.
    def odd_broken(ctx, a, b):
        return BundleSum.zero(ctx) if a.index % 2 else tensor_indec(ctx, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(characters_module, "tensor_indec", odd_broken)
        assert main(["verify", "--rmax", "6"]) == 2
    assert len(capsys.readouterr().out.splitlines()) == 1 + 9
    assert calls == ["decompose_character"] * 9
    # oracle_check: a block read one slot off fails the block test.
    calls.clear()
    unpack = characters_module._unpack
    monkeypatch.setattr(characters_module, "_unpack", lambda v, n, w: [0, *unpack(v, n, w)[:-1]])
    for pair in pairs[:20]:
        with pytest.raises(NotACharacterError):
            oracle_check(*pair)
    assert calls == ["decompose_character"] * 20


@pytest.mark.parametrize("torsion", range(7))
def test_packed_verify_reads_off_what_oracle_check_peels(torsion, monkeypatch):
    # The read-off of verify's pair product, at every pair F_r, F_s
    # (s <= r <= R) and probe, for every R <= 30, equals what oracle_check
    # peels off that pair's own character product: with the formula side
    # replaced by oracle_check's from_character, every pair agrees at every
    # probe.  A row of the wrong length or a block read one slot off breaks
    # this.
    ctx = TorsionContext(torsion)
    peeled = {
        (a, b): oracle_check(ctx, a, b).from_character
        for r in range(1, 31) for s in range(1, r + 1)
        for a, b in ((ctx.bundle(ea, r), ctx.bundle(eb, s)) for ea, eb in _VERIFY_PROBES)
    }
    compared = []

    def from_character(context, a, b):
        compared.append((a, b))
        return peeled[a, b]

    monkeypatch.setattr(characters_module, "tensor_indec", from_character)
    for rmax in range(1, 31):
        compared.clear()
        assert _verify_pairs(ctx, rmax) == []
        assert len(compared) == len(_VERIFY_PROBES) * rmax * (rmax + 1) // 2


def read_block_by_differences(block):
    """The block test and read-off of ``_read_block`` written slot by slot
    with ``_differences``: the reference for the C-level read."""
    if block != block[::-1] or 0 in block:
        return None
    n = len(block)
    half = characters_module._differences(block[:(n + 1) // 2], 1)
    read = {n - 2 * i: c for i, c in half}
    return read if min(read.values(), default=0) > 0 else None


@st.composite
def slot_rows(draw):
    """A block of slot values as ``_unpack`` returns them at a width of 1, 2
    or 3 bytes: a character's row (rising to the middle), any palindrome
    (zero slots and descents among them) or any row."""
    width = draw(st.sampled_from((1, 2, 3)))
    slot = st.one_of(st.integers(0, 3), st.integers(0, (1 << 8 * width) - 1))
    kind = draw(st.sampled_from(("character", "palindrome", "any")))
    if kind == "any":
        block = draw(st.lists(slot, max_size=12))
    else:
        if kind == "character":
            steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
            half = list(itertools.accumulate(steps))
        else:
            half = draw(st.lists(slot, max_size=6))
        block = half + half[-2::-1] if draw(st.booleans()) else half + half[::-1]
    packed = characters_module._pack(block, width)
    return characters_module._unpack(packed, len(block), width)


@given(slot_rows())
@settings(max_examples=400, deadline=None)
@example([1, 2, 1])
@example([3, 2, 3])  # a descent
@example([1, 0, 1])  # a zero slot
@example([1, 2, 3])  # no palindrome
@example([])
def test_read_block_reads_like_the_slot_by_slot_differences(block):
    read = characters_module._read_block(block)
    expected = read_block_by_differences(block)
    assert read == expected
    if read is not None:
        assert list(read.items()) == list(expected.items())


def _verify_with_fault(monkeypatch, torsion, fault):
    """``verify --rmax 6`` over L of ``torsion`` with ``tensor_indec``
    replaced by ``fault(ctx, a, b)`` wherever that returns a sum: (exit
    status, failure lines)."""
    tensor_indec = characters_module.tensor_indec

    def planted(ctx, a, b):
        wrong = fault(ctx, a, b)
        return tensor_indec(ctx, a, b) if wrong is None else wrong

    with monkeypatch.context() as patch:
        patch.setattr(characters_module, "tensor_indec", planted)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["verify", "--rmax", "6", "--torsion", str(torsion)])
    return status, out.getvalue().splitlines()[1:]


def test_verify_checks_each_probe_against_its_own_read_off(monkeypatch):
    # Over order 3 all three probes label the read-off with t = 0, and over
    # non-torsion L and order 4 probes (0, 0) and (1, -1) do.  A fault at one
    # probe must fail every pair there, not pass against the read-off that
    # an earlier probe was compared with.
    def top_dropped_at_second_probe(ctx, a, b):
        if (a.exponent, b.exponent) == (1, 2):  # L*F_r x L^-1*F_s over order 3
            return BundleSum.of(ctx, [(a, 1)])
        return None

    status, lines = _verify_with_fault(monkeypatch, 3, top_dropped_at_second_probe)
    ctx = TorsionContext(3)
    assert status == 2
    assert len(lines) == 21
    assert [line.split(":")[0] for line in lines] == [
        f"{ctx.bundle(1, r)} x {ctx.bundle(-1, s)}" for r in range(1, 7) for s in range(1, r + 1)]

    # The right indices at the line exponent of the other probes' read-off.
    def untwisted_at_third_probe(ctx, a, b):
        if (a.exponent, b.exponent) == (ctx.reduce_exponent(2), ctx.reduce_exponent(1)):
            return tensor_indec(ctx, ctx.bundle(0, a.index), ctx.bundle(0, b.index))
        return None

    for torsion in (0, 4):
        ctx = TorsionContext(torsion)
        status, lines = _verify_with_fault(monkeypatch, torsion, untwisted_at_third_probe)
        assert status == 2
        assert len(lines) == 21
        for line, (r, s) in zip(lines, [(r, s) for r in range(1, 7) for s in range(1, r + 1)]):
            a, b = ctx.bundle(2, r), ctx.bundle(1, s)
            untwisted = tensor_indec(ctx, ctx.atiyah(r), ctx.atiyah(s))
            assert line == f"{a} x {b}: formula {untwisted} vs oracle {tensor_indec(ctx, a, b)}"


class _Packing(Exception):
    """Raised in place of packing a row, once a size check has passed."""


def _packing(*args):
    raise _Packing


def _verify_refuses(rmax, monkeypatch):
    """Whether ``_verify_pairs`` refuses rmax before packing."""
    monkeypatch.setattr(characters_module, "_ones", _packing)
    try:
        _verify_pairs(NT, rmax)
    except _Packing:
        return False
    except ValueError as err:
        assert "limit" in str(err)
        return True
    raise AssertionError("verify neither packed nor refused")


def test_verify_accepts_every_rmax_the_old_count_accepted(monkeypatch):
    # The old limit counted 3·R(R+1)²/2 character monomials of a per-probe
    # route; the formula side writes R(R+1)(R+2)/6 terms per probe.
    for rmax in range(1, 201):
        refused = _verify_refuses(rmax, monkeypatch)
        if 3 * rmax * (rmax + 1) ** 2 // 2 <= MAX_LOOP_WORDS:
            assert not refused, rmax
        assert refused == (rmax > 127), rmax


@pytest.mark.parametrize("torsion", [0, 3, 4])
def test_verify_makes_one_pair_sized_product_per_pair(torsion, monkeypatch):
    # One product per pair F_r, F_s, read off its own r + s - 1 slots, not
    # one product of every pair at once.
    ctx = TorsionContext(torsion)
    unpack = characters_module._unpack
    counts = []

    def recorded(v, count, width):
        counts.append(count)
        return unpack(v, count, width)

    monkeypatch.setattr(characters_module, "_unpack", recorded)
    for rmax in range(1, 31):
        counts.clear()
        assert _verify_pairs(ctx, rmax) == []
        assert len(counts) == rmax * (rmax + 1) // 2
        assert max(counts) <= 2 * rmax - 1


def test_oracle_check_refuses_a_product_over_the_limit_before_packing(monkeypatch):
    # F_r x F_s has r + s - 1 slots; one more than MAX_LOOP_WORDS is refused
    # before either route, and MAX_LOOP_WORDS itself goes on to packing.
    monkeypatch.setattr(characters_module, "_ones", _packing)
    big = NT.atiyah(MAX_LOOP_WORDS)
    with pytest.raises(ValueError, match="limit"):
        oracle_check(NT, big, NT.atiyah(2))
    with pytest.raises(_Packing):
        oracle_check(NT, big, NT.atiyah(1))


def test_slot_by_slot_packing_gives_the_same_power_and_oracle_check(monkeypatch):
    # With no one-call formats (as on a big-endian machine) every slot width
    # is packed and read slot by slot: the powers' rows, and the two-byte
    # slots of oracle_check once min(r, s) >= 256.
    monkeypatch.setattr(characters_module, "_FORMATS", {})
    ctx = TorsionContext(3)
    x = BundleSum.of(ctx, [(ctx.bundle(1, 3), 1), (ctx.bundle(0, 2), 2)])
    assert BundleSum(ctx, character_power(x, 5)) == x.tensor(x).tensor(x).tensor(x).tensor(x)
    assert oracle_check(ctx, ctx.bundle(1, 300), ctx.bundle(2, 257)).agrees


def unpack_slot_by_slot(v, count, width):
    """The slots of a packed integer, each cut from its bytes and read alone."""
    data = v.to_bytes(count * width, "little")
    return [int.from_bytes(data[at:at + width], "little") for at in range(0, count * width, width)]


@pytest.mark.parametrize("width", [3, 5, 9, 20, 40])
@pytest.mark.parametrize("count", [0, 1, 7, 2000])
def test_unpack_matches_the_slot_by_slot_read(width, count):
    rng = random.Random(width * 10007 + count)
    values = [rng.choice((0, 1, (1 << 8 * width) - 1, rng.getrandbits(8 * width)))
              for _ in range(count)]
    v = sum(value << 8 * width * i for i, value in enumerate(values))
    assert list(characters_module._unpack(v, count, width)) == values
    assert unpack_slot_by_slot(v, count, width) == values


@pytest.mark.parametrize(
    "x, square_coeffs",
    [
        (  # O + L^100000000
            character(BundleSum.of(NT, [(NT.line(0), 1), (NT.line(10**8), 1)])),
            {(0, 0): 1, (10**8, 0): 2, (2 * 10**8, 0): 1},
        ),
        (
            BivariateCharacter.of(NT, {(0, 0): 1, (0, 10**8): 1}),
            {(0, 0): 1, (0, 10**8): 2, (0, 2 * 10**8): 1},
        ),
    ],
    ids=["x0", "x1"],
)
def test_sparse_product_allocates_for_monomials_not_gaps(x, square_coeffs):
    tracemalloc.start()
    try:
        square = x * x
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert square == BivariateCharacter.of(NT, square_coeffs)
    assert peak < 1 << 20  # a slot per exponent in the gap would take 100 MB


def test_product_cancelling_between_pairs_of_runs():
    # (q^0 + q^10)·(q^10 - q^0): two runs each, and the q^10 slots of two
    # pairs of runs cancel.
    a = BivariateCharacter.of(NT, {(0, 0): 1, (0, 10): 1})
    b = BivariateCharacter.of(NT, {(0, 10): 1, (0, 0): -1})
    assert a * b == BivariateCharacter.of(NT, {(0, 20): 1, (0, 0): -1})


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
    then the gap and the descent of each monomial with q >= 0.  This is the
    library's algorithm, kept to pin its messages; :func:`greedy_decompose`
    is the independent route."""
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


def greedy_decompose(c):
    """The read-off by its own algorithm, a greedy top-down peel: per t, the
    highest q with a nonzero coefficient k is the top of k copies of the
    bracket [q+1]_q, which are subtracted; a negative k, or a leftover whose
    highest q is negative, is no character."""
    rows = {}
    for (t, q), k in c.coeffs.items():
        if k:
            rows.setdefault(t, {})[q] = k
    terms = {}
    for t, row in rows.items():
        while row:
            top = max(row)
            k = row[top]
            if k < 0 or top < 0:
                raise NotACharacterError(f"not a character: {k} left at t^{t} q^{top}")
            for q in range(top, -top - 1, -2):
                v = row.get(q, 0) - k
                if v:
                    row[q] = v
                else:
                    del row[q]
            terms[c.context.bundle(t, top + 1)] = k
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
    # The greedy peel names failures in its own words: compare the verdict
    # and the decomposition.
    greedy = outcome(greedy_decompose, c)
    assert isinstance(result, BundleSum) == isinstance(greedy, BundleSum)
    if isinstance(result, BundleSum):
        assert result == greedy
        assert character(result) == c


@pytest.mark.parametrize("torsion", range(7))
def test_verify_pair_products_decompose_as_the_formula(torsion):
    # Every character product that `verify --rmax 12` peels, at every probe,
    # read off the double loop, is the formula's decomposition.
    ctx = TorsionContext(torsion)
    for r in range(1, 13):
        for s in range(1, r + 1):
            for ea, eb in _VERIFY_PROBES:
                x, y = ctx.bundle(ea, r), ctx.bundle(eb, s)
                a, b = (character(BundleSum.single(ctx, z)) for z in (x, y))
                assert decompose_character(a * b) == tensor_indec(ctx, x, y)


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


rs_pairs = st.integers(min_value=1, max_value=10**4).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(min_value=1, max_value=10**4 // r)))
exponents = st.integers(min_value=-9, max_value=9)


@given(st.integers(min_value=0, max_value=6), rs_pairs, exponents, exponents)
@example(4, (300, 257), 1, -2)  # two-byte slots
@settings(max_examples=150, deadline=None)
def test_oracle_check_reads_off_what_the_double_loop_peels(torsion, rs, ea, eb):
    # oracle_check's block test against a different route: the double loop
    # of BivariateCharacter.__mul__, then decompose_character's pass over
    # the monomials.
    ctx = TorsionContext(torsion)
    r, s = rs
    a, b = ctx.bundle(ea, r), ctx.bundle(eb, s)
    product = character(BundleSum.single(ctx, a)) * character(BundleSum.single(ctx, b))
    assert oracle_check(ctx, a, b).from_character == decompose_character(product)


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
