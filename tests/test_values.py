"""Value semantics of the package's record classes, and what importing the CLI loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from atiyah import (
    BivariateCharacter,
    BundleSum,
    ClassificationReport,
    GroupScheme,
    IndexFamily,
    IntegerPolynomial,
    KRingElement,
    OracleCheck,
    P1SSet,
    PresentationKind,
    RingPresentation,
    SSetDescription,
    TorsionContext,
    classify,
    p1_classify,
)
from atiyah.expressions import Atom, Power, Product, Sum

CTX = TorsionContext(4)
F2 = CTX.atiyah(2)
SUM = BundleSum(CTX, {F2: 2})
FAMILY_FIELDS = dict(exponent_residues=range(0, 4, 2), index_parity=1)

# (class, a function of no arguments that builds an instance; two calls build
# equal objects from equal fields, never the same object).
BUILDERS = [
    (TorsionContext, lambda: TorsionContext(4)),
    (KRingElement, lambda: KRingElement(CTX, {F2: -1})),
    (BundleSum, lambda: BundleSum(CTX, {F2: 2})),
    (BivariateCharacter, lambda: BivariateCharacter(CTX, {(1, 0): 3})),
    (OracleCheck, lambda: OracleCheck(True, SUM, BundleSum(CTX, {F2: 2}))),
    (RingPresentation, lambda: RingPresentation(PresentationKind.CYCLOTOMIC, 2, ("[L]",))),
    (GroupScheme, lambda: GroupScheme(("mu_4", "Ga"))),
    (IndexFamily, lambda: IndexFamily("F_j for odd j", **FAMILY_FIELDS)),
    (SSetDescription, lambda: SSetDescription(CTX, (F2,), (IndexFamily("x"),))),
    (IntegerPolynomial, lambda: IntegerPolynomial((1, -2, 0))),
    (ClassificationReport, lambda: classify(2, 4)),
    (P1SSet, lambda: P1SSet(3)),
    (Atom, lambda: Atom(-1, 3)),
    (Power, lambda: Power(Atom(0, 2), (2, -1))),
    (Product, lambda: Product((Atom(0, 2), Atom(1, 3)))),
    (Sum, lambda: Sum(((2, Atom(0, 2)), (1, Atom(1, 1))))),
]
UNHASHABLE = {KRingElement, BundleSum, BivariateCharacter, OracleCheck}
FIELDS = {
    TorsionContext: ("order",),
    KRingElement: ("context", "terms"),
    BundleSum: ("context", "terms"),
    BivariateCharacter: ("context", "coeffs"),
    OracleCheck: ("agrees", "from_formula", "from_character"),
    RingPresentation: ("kind", "modulus", "generators"),
    GroupScheme: ("factors",),
    IndexFamily: ("description", "exponent_residues", "min_abs_exponent", "exponent_parity",
                  "index_parity", "index_slope"),
    SSetDescription: ("context", "finite_part", "families"),
    IntegerPolynomial: ("coefficients",),
    ClassificationReport: ("curve", "s_set", "presentation", "krull_dim", "group",
                           "correspondence_holds", "rank", "torsion", "degrees",
                           "minimality_note", "notes"),
    P1SSet: ("step",),
    Atom: ("exponent", "index"),
    Power: ("base", "exponents"),
    Product: ("factors",),
    Sum: ("parts",),
}


@pytest.mark.parametrize("cls, build", BUILDERS, ids=[cls.__name__ for cls, _ in BUILDERS])
def test_equal_fields_give_equal_values(cls, build):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    with pytest.raises(TypeError):
        a < b  # noqa: B015 - no ordering is defined
    for clone in [copy.copy(a), copy.deepcopy(a)] + [
        pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]:
        assert type(clone) is cls and clone == a and repr(clone) == repr(a)


@pytest.mark.parametrize("cls, build", BUILDERS, ids=[cls.__name__ for cls, _ in BUILDERS])
def test_fields_are_read_only(cls, build):
    value = build()
    before = repr(value)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


def test_a_field_that_differs_makes_values_differ():
    assert TorsionContext(4) != TorsionContext(5)
    assert Atom(0, 2) != Atom(1, 2) and Atom(0, 2) != Atom(0, 3)
    assert BundleSum(CTX, {F2: 2}) != BundleSum(CTX, {F2: 3})
    assert BundleSum(CTX, {F2: 2}) != BundleSum(TorsionContext(0), {F2: 2})
    assert BivariateCharacter(CTX, {(1, 0): 3}) != BivariateCharacter(CTX, {(1, 0): 4})
    assert OracleCheck(True, SUM, SUM) != OracleCheck(False, SUM, SUM)
    assert IndexFamily("x") != IndexFamily("x", index_parity=0)
    assert classify(2, 4) != classify(2, 5)
    assert P1SSet(2) != P1SSet(3)


def test_values_of_different_classes_never_compare_equal():
    parts = ((1, Atom(0, 2)),)
    assert Product(parts) != Sum(parts) and Sum(parts) != Product(parts)
    assert Atom(0, 2) != (0, 2) and TorsionContext(0) != 0
    assert GroupScheme(("Gm",)) != IntegerPolynomial(("Gm",))
    assert P1SSet(0) != TorsionContext(0)
    nodes = [build() for cls, build in BUILDERS if cls in (Atom, Power, Product, Sum)]
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert (x == y) == (i == j)
    # A bundle sum equals the ring element that it views, in either order.
    assert SUM == KRingElement(CTX, {F2: 2}) and KRingElement(CTX, {F2: 2}) == SUM


def test_defaults():
    assert KRingElement(CTX).terms == {} and BundleSum(CTX).terms == {}
    assert BundleSum(CTX).terms is not BundleSum(CTX).terms
    assert BivariateCharacter(CTX).coeffs == {}
    assert RingPresentation(PresentationKind.POINT) == RingPresentation(
        PresentationKind.POINT, None, ()
    )
    family = IndexFamily("x")
    assert (family.exponent_residues, family.min_abs_exponent, family.exponent_parity,
            family.index_parity, family.index_slope) == (None, 0, None, None, None)
    report = p1_classify([2, 4])
    assert (report.rank, report.torsion, report.minimality_note, report.notes) == (
        None, None, None, ()
    )


def test_repr_text():
    assert repr(TorsionContext(0)) == "TorsionContext(order=0)"
    assert repr(Atom(0, 1)) == "Atom(exponent=0, index=1)"
    assert repr(BundleSum(TorsionContext(0), {TorsionContext(0).atiyah(2): 1})) == (
        "BundleSum(context=TorsionContext(order=0), "
        "terms={IndecomposableBundle(exponent=0, index=2): 1})"
    )
    assert repr(KRingElement(CTX, {F2: -1})) == (
        "KRingElement(context=TorsionContext(order=4), "
        "terms={IndecomposableBundle(exponent=0, index=2): -1})"
    )
    assert repr(BivariateCharacter(CTX, {(1, 0): 3})) == (
        "BivariateCharacter(context=TorsionContext(order=4), coeffs={(1, 0): 3})"
    )
    assert repr(OracleCheck(True, SUM, SUM)).startswith(
        "OracleCheck(agrees=True, from_formula=BundleSum(context=TorsionContext(order=4), "
    )
    assert repr(IntegerPolynomial((1, -2))) == "IntegerPolynomial(coefficients=(1, -2))"
    assert repr(Sum(((1, Power(Product((Atom(0, 2), Atom(0, 3))), (2,))), (2, Atom(1, 1))))) == (
        "Sum(parts=((1, Power(base=Product(factors=(Atom(exponent=0, index=2), "
        "Atom(exponent=0, index=3))), exponents=(2,))), (2, Atom(exponent=1, index=1))))"
    )
    assert repr(p1_classify([2, 4])) == (
        "ClassificationReport(curve='p1', s_set=P1SSet(step=2), "
        "presentation=RingPresentation(kind=<PresentationKind.LAURENT: 'laurent'>, "
        "modulus=None, generators=('[O(2)]',)), krull_dim=1, "
        "group=GroupScheme(factors=('Gm',)), correspondence_holds=True, rank=None, "
        "torsion=None, degrees=(2, 4), minimality_note=None, notes=())"
    )
    assert repr(classify(2, 4).s_set.families[0]) == (
        "IndexFamily(description='L^e*F_j for even e in 0..2, j odd', "
        "exponent_residues=range(0, 4, 2), min_abs_exponent=0, exponent_parity=None, "
        "index_parity=1, index_slope=None)"
    )
    assert repr(SSetDescription(CTX, (), ())) == (
        "SSetDescription(context=TorsionContext(order=4), finite_part=(), families=())"
    )


@pytest.mark.parametrize("build, message", [
    (lambda: TorsionContext(-1), "torsion order must be >= 0"),
    (lambda: RingPresentation(PresentationKind.CYCLOTOMIC), "cyclotomic modulus"),
    (lambda: RingPresentation(PresentationKind.CYCLOTOMIC_POLY, 0), "cyclotomic modulus"),
    (lambda: RingPresentation(PresentationKind.LAURENT, 2), "modulus only applies"),
    (lambda: GroupScheme(("Gm", "SL_2")), "unknown group factor 'SL_2'"),
])
def test_construction_is_validated(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, atiyah.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
