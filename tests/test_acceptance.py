"""Acceptance suite: the eight exit criteria, all exact integer checks.

Run as `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (timed where a budget applies).
"""

import json
import random
import time

import jsonschema

from atiyah import (
    BundleSum,
    IntegerPolynomial,
    KRingElement,
    TorsionContext,
    character,
    classify,
    correspondence_grid,
    decompose_character,
    evaluate_expression,
    express_in_generator,
    oracle_check,
    p1_classify,
    p1_s_set_enumerate,
    s_set_enumerate,
    s_set_reachable,
    s_set_symbolic,
    tensor_indec,
)
from atiyah.cli import main, report_to_json
from atiyah.schema import REPORT_SCHEMA
from s_sets import s_set_members

import math
from functools import reduce


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_oracle_equivalence():
    """tensor_indec agrees with the character oracle on the full sweep."""
    start = time.perf_counter()
    checks = 0
    for n in (0, 1, 2, 3, 4, 6):
        ctx = TorsionContext(n)
        for r in range(1, 13):
            for s in range(1, r + 1):
                for ea in range(-3, 4):
                    for eb in range(-3, 4):
                        result = oracle_check(ctx, ctx.bundle(ea, r), ctx.bundle(eb, s))
                        assert result.agrees, (n, r, s, ea, eb)
                        checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s (budget 5s)"
    _report(1, f"{checks} checks agree in {elapsed:.2f}s")


def test_criterion_2_multiplication_formula_structure():
    """F_r tensor F_s: exactly min(r,s) components, each once, rank r*s."""
    ctx = TorsionContext(0)
    pairs = 0
    for r in range(1, 13):
        for s in range(1, 13):
            result = tensor_indec(ctx, ctx.atiyah(r), ctx.atiyah(s))
            lo, hi = min(r, s), max(r, s)
            expected = {ctx.atiyah(hi - lo + 1 + 2 * k) for k in range(lo)}
            assert set(result.terms) == expected
            assert all(m == 1 for m in result.terms.values())
            assert result.rank() == r * s
            pairs += 1
    _report(2, f"{pairs} (r, s) pairs")


def test_criterion_3_tensor_power_form():
    """Powers of F_r keep the index parity, top component once, and the
    r = 2 multiplicities match the character oracle."""
    ctx = TorsionContext(0)
    for r in range(1, 6):
        base = BundleSum.single(ctx, ctx.atiyah(r))
        power = BundleSum.unit(ctx)
        for m in range(1, 9):
            power = power.tensor(base)
            top = (r - 1) * m + 1
            assert all(b.index % 2 == top % 2 for b in power.terms)
            assert power.multiplicity(ctx.atiyah(top)) == 1
    # Specific small multiplicities for r = 2, via both routes.
    f2 = BundleSum.single(ctx, ctx.atiyah(2))
    cube = f2.tensor_power(3)
    fourth = f2.tensor_power(4)
    assert cube.multiplicity(ctx.atiyah(2)) == 2          # a_2(3)
    assert fourth.multiplicity(ctx.atiyah(1)) == 2        # a_1(4)
    assert fourth.multiplicity(ctx.atiyah(3)) == 3        # a_3(4)
    c = character(f2)
    assert decompose_character(c * c * c) == cube
    assert decompose_character(c * c * c * c) == fourth
    _report(3, "r <= 5, powers <= 8, r=2 multiplicities oracle-confirmed")


def test_criterion_4_s_set_agreement():
    """Brute-force S-set enumeration matches the symbolic description."""
    start = time.perf_counter()
    bound = 8
    cases = 0
    for r in range(1, 7):
        for n in range(0, 7):
            enumerated = set(s_set_members(s_set_enumerate(r, n, bound)))
            symbolic = s_set_symbolic(r, n)
            missing = [b for b in enumerated if not symbolic.contains(b)]
            assert not missing, (r, n, missing[:5])
            # Coverage: every described member reachable within the bound
            # (same-power parity, residue, and top-index cap) is enumerated.
            predicted = s_set_reachable(r, n, bound)
            assert all(symbolic.contains(b) for b in predicted)
            assert enumerated == predicted, (r, n)
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"S-set sweep took {elapsed:.2f}s (budget 30s)"
    _report(4, f"{cases} (r, n) cases at bound {bound} in {elapsed:.2f}s")


def test_criterion_5_dimension_correspondence():
    """dim R(E) = dim G over the full grid, with both-even minimality data."""
    cells = correspondence_grid(10, 12)
    assert len(cells) == 130
    assert all(krull_dim == group_dim for _, _, krull_dim, group_dim in cells)
    both_even = 0
    for rank, torsion, _, _ in cells:
        if rank >= 2 and torsion >= 2 and rank % 2 == 0 and torsion % 2 == 0:
            report = classify(rank, torsion)
            assert report.minimality_note
            assert report.presentation.modulus == torsion // 2
            assert report.group.factors[0] == f"mu_{torsion}"
            both_even += 1
    _report(5, f"130 cells hold; {both_even} both-even cells carry minimality notes")


def test_criterion_6_generator_polynomials():
    """[F_i] is recovered by evaluating its chain polynomial in the K-ring."""
    ctx = TorsionContext(0)
    f2 = KRingElement.single(ctx, ctx.atiyah(2))
    for i in range(1, 13):
        value = express_in_generator(i, "even").evaluate(f2)
        assert value == KRingElement.single(ctx, ctx.atiyah(i)), i
    f3 = KRingElement.single(ctx, ctx.atiyah(3))
    for i in range(1, 14, 2):
        value = express_in_generator(i, "odd").evaluate(f3)
        assert value == KRingElement.single(ctx, ctx.atiyah(i)), i
    assert express_in_generator(3, "even") == IntegerPolynomial.of([-1, 0, 1])
    assert express_in_generator(5, "odd") == IntegerPolynomial.of([-1, -1, 1])
    _report(6, "even chain i <= 12, odd chain i <= 13, hand values confirmed")


def test_criterion_7_p1_remark():
    """S(O(a) + O(b)) is governed by the gcd, confirmed by enumeration."""
    bound = 6
    cases = 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            c = math.gcd(a, b)
            report = p1_classify([a, b])
            assert report.s_set.step == c
            reference = p1_classify([c])
            assert report.presentation == reference.presentation
            assert report.group == reference.group
            assert report.krull_dim == reference.krull_dim
            assert report.correspondence_holds
            enumerated = p1_s_set_enumerate([a, b], bound)
            if c == 0:
                assert enumerated == {0}
            else:
                assert all(d % c == 0 for d in enumerated)
                assert reduce(math.gcd, (abs(d) for d in enumerated), 0) == c
                assert all(report.s_set.contains(d) for d in enumerated)
            cases += 1
    _report(7, f"{cases} degree pairs at bound {bound}")


def test_criterion_8_cli_contract(capsys):
    """Round-trip on randomized expressions, schema-valid JSON, verify exit 0."""
    rng = random.Random(20260810)
    orders = (0, 1, 2, 3, 4, 6)
    round_trips = 0
    for _ in range(100):
        ctx = TorsionContext(rng.choice(orders))
        terms = [
            (ctx.bundle(rng.randint(-6, 6), rng.randint(1, 8)), rng.randint(1, 9))
            for _ in range(rng.randint(0, 5))
        ]
        x = BundleSum.of(ctx, terms)
        assert evaluate_expression(str(x), ctx) == x
        round_trips += 1

    pairs = [(r, n) for r in range(1, 6) for n in (0, 1, 2, 4)]
    assert len(pairs) == 20
    for r, n in pairs:
        payload = report_to_json(classify(r, n))
        jsonschema.validate(payload, REPORT_SCHEMA)
        status = main(
            ["classify", "--rank", str(r), "--torsion", str(n), "--format", "json"]
        )
        out = capsys.readouterr().out
        assert status == 0
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    status = main(["verify", "--rmax", "6"])
    out = capsys.readouterr().out
    assert status == 0
    assert "oracle agreement 21/21 pairs" in out
    _report(8, f"{round_trips} round-trips, 20 schema-valid reports, verify exit 0")
