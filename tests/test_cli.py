"""CLI contract: subcommands, exit codes, formats, and the JSON schema."""

import json

import jsonschema

from atiyah import TorsionContext, evaluate_expression
from atiyah.cli import main
from atiyah.schema import REPORT_SCHEMA


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_tensor_text(capsys):
    status, out, _ = run(capsys, "tensor", "--torsion", "0", "F_2 * F_3")
    assert status == 0
    assert out.strip() == "F_2 + F_4"


def test_tensor_json_matches_text(capsys):
    status, out, _ = run(capsys, "tensor", "F_2 * F_3", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    ctx = TorsionContext(0)
    assert evaluate_expression(payload["text"], ctx) == evaluate_expression(
        "F_2 * F_3", ctx
    )
    assert payload["terms"] == [
        {"multiplicity": 1, "bundle": "F_2"},
        {"multiplicity": 1, "bundle": "F_4"},
    ]


def test_power_subcommand(capsys):
    status, out, _ = run(capsys, "power", "F_2", "3")
    assert status == 0
    assert out.strip() == "2 F_2 + F_4"


def test_power_negative_exponent(capsys):
    status, out, _ = run(capsys, "power", "--torsion", "3", "L", "-1")
    assert status == 0
    assert out.strip() == "L^2"


def test_classify_json_validates(capsys):
    status, out, _ = run(capsys, "classify", "--rank", "2", "--torsion", "4", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["krull_dim"] == 1
    assert payload["group"]["factors"] == ["mu_4", "Ga"]
    assert payload["presentation"]["modulus"] == 2
    assert payload["minimality_note"]


def test_classify_text_contains_verdict(capsys):
    status, out, _ = run(capsys, "classify", "--rank", "3", "--torsion", "1")
    assert status == 0
    assert "Q[x]" in out
    assert "Ga" in out
    assert "holds" in out


def test_sset_text_and_json_agree(capsys):
    status, text_out, _ = run(capsys, "sset", "--rank", "2", "--torsion", "1", "--bound", "3")
    assert status == 0
    status, json_out, _ = run(
        capsys, "sset", "--rank", "2", "--torsion", "1", "--bound", "3", "--format", "json"
    )
    assert status == 0
    payload = json.loads(json_out)
    assert payload["enumerated"] == ["O", "F_2", "F_3", "F_4"]
    for term in payload["enumerated"]:
        assert term in text_out


def test_express_subcommand(capsys):
    status, out, _ = run(capsys, "express", "--index", "5", "--chain", "odd")
    assert status == 0
    assert "x^2 - x - 1" in out
    status, out, _ = run(capsys, "express", "--index", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 0, -3, 0, 1]
    assert payload["generator"] == "[F_2]"


def test_verify_exits_zero(capsys):
    status, out, _ = run(capsys, "verify", "--rmax", "6")
    assert status == 0
    assert out.strip() == "oracle agreement 21/21 pairs"


def test_verify_torsion_context(capsys):
    status, out, _ = run(capsys, "verify", "--rmax", "4", "--torsion", "3")
    assert status == 0
    assert "10/10" in out


def test_grid_subcommand(capsys):
    status, out, _ = run(capsys, "grid", "--rmax", "3", "--nmax", "4")
    assert status == 0
    assert "holds in 15/15 cells" in out


def test_grid_json(capsys):
    status, out, _ = run(capsys, "grid", "--rmax", "2", "--nmax", "2", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["all_hold"] is True
    assert len(payload["cells"]) == 6


def test_p1_subcommand(capsys):
    status, out, _ = run(capsys, "p1", "2", "4")
    assert status == 0
    assert "gcd of degrees: 2" in out
    status, out, _ = run(capsys, "p1", "0", "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["input"] == {"degrees": [0]}
    assert payload["krull_dim"] == 0


def test_usage_error_exit_code(capsys):
    status, _, err = run(capsys, "classify", "--rank", "0")
    assert status == 1
    assert "usage error" in err
    status, _, err = run(capsys, "tensor", "F_2 +* F_3")
    assert status == 1
    assert "error" in err


def test_computation_error_exit_code(capsys):
    status, _, err = run(capsys, "power", "0", "2")
    assert status == 2
    assert "zero" in err


def test_express_chain_mismatch_is_usage_error(capsys):
    status, _, err = run(capsys, "express", "--index", "4", "--chain", "odd")
    assert status == 1
    assert "odd" in err


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    status, out, _ = run(
        capsys, "classify", "--rank", "2", "--torsion", "0", "--format", "json",
        "--out", str(target),
    )
    assert status == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_unknown_subcommand(capsys):
    status, _, err = run(capsys, "frobnicate")
    assert status == 1


def test_verify_mismatch_exits_two(capsys, monkeypatch):
    # The math never disagrees, so force a mismatch to pin the CI gate.
    import atiyah.cli as cli_module
    from atiyah import BundleSum, OracleCheck

    def broken_oracle(ctx, a, b):
        formula = BundleSum.single(ctx, ctx.bundle(a.exponent + b.exponent, 1))
        return OracleCheck(False, formula, BundleSum.zero(ctx))

    monkeypatch.setattr(cli_module, "oracle_check", broken_oracle)
    status, out, _ = run(capsys, "verify", "--rmax", "2")
    assert status == 2
    assert "oracle agreement 0/3 pairs" in out


def test_out_to_unwritable_path_is_a_computation_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    status, out, err = run(capsys, "tensor", "F_2 * F_3", "--out", str(target))
    assert status == 2
    assert out.strip() == "F_2 + F_4"
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_deep_nesting_is_a_usage_error(capsys):
    status, out, err = run(capsys, "tensor", "(" * 3000 + "F_2" + ")" * 3000)
    assert status == 1
    assert out == ""
    assert err.startswith("error: parentheses nested more than")
