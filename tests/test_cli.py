"""CLI contract: subcommands, exit codes, formats, and the JSON schemas."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atiyah import TorsionContext, classify, evaluate_expression, p1_classify, s_set_reachable
from atiyah.cli import main, report_to_json, report_to_text
from atiyah.schema import (
    DECOMPOSITION_SCHEMA,
    EXPRESS_SCHEMA,
    GRID_SCHEMA,
    REPORT_SCHEMA,
    SSET_SCHEMA,
    VERIFY_SCHEMA,
)
from s_sets import reference_s_sets

# The schema of each subcommand's --format json payload.
SCHEMAS = {
    "tensor": DECOMPOSITION_SCHEMA,
    "power": DECOMPOSITION_SCHEMA,
    "sset": SSET_SCHEMA,
    "classify": REPORT_SCHEMA,
    "express": EXPRESS_SCHEMA,
    "verify": VERIFY_SCHEMA,
    "grid": GRID_SCHEMA,
    "p1": REPORT_SCHEMA,
}


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


def enumerated_line(text_out, bound):
    """The enumerated members of ``sset`` text output, as printed."""
    lines = text_out.splitlines()
    return lines[lines.index(f"enumerated up to power bound {bound}:") + 1]


@pytest.mark.parametrize("rank", range(1, 13))
def test_sset_prints_the_names_of_the_set_expansion(capsys, rank):
    # The CLI names the members row by row from line prefixes; the reference
    # is the set-based expansion, each class named by its own __str__.
    for torsion in (*range(13), 61, 10**9):
        for bound, reference in enumerate(reference_s_sets(rank, torsion, 30), start=1):
            names = [str(b) for b in sorted(reference)]
            argv = ("sset", "--rank", str(rank), "--torsion", str(torsion), "--bound", str(bound))
            status, text_out, _ = run(capsys, *argv)
            assert status == 0
            assert enumerated_line(text_out, bound) == "  " + ", ".join(names), argv
            status, json_out, _ = run(capsys, *argv, "--format", "json")
            assert status == 0
            assert json.loads(json_out)["enumerated"] == names, argv


def test_sset_largest_benchmark_job_prints_the_structure_law(capsys):
    status, out, _ = run(capsys, "sset", "--rank", "7", "--bound", "120", "--torsion", "0")
    assert status == 0
    expected = ", ".join(map(str, sorted(s_set_reachable(7, 0, 120))))
    assert enumerated_line(out, 120) == "  " + expected


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


def test_verify_at_the_limit(capsys):
    # --rmax 127 writes 1,048,512 formula terms over its three probes, just
    # within bundles.MAX_LOOP_WORDS; 128, which would write 1,073,280, is
    # among the oversized calls below.
    status, out, _ = run(capsys, "verify", "--rmax", "127")
    assert status == 0
    assert out.strip() == "oracle agreement 8128/8128 pairs"


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


def test_grid_at_the_limit(capsys):
    status, out, _ = run(capsys, "grid", "--rmax", "256", "--nmax", "255")
    assert status == 0
    assert out.splitlines()[-1] == "dimension correspondence holds in 65536/65536 cells"
    status, out, err = run(capsys, "grid", "--rmax", "257", "--nmax", "255")
    assert (status, out) == (2, "")
    assert "limit" in err


def test_express_at_the_limit(capsys):
    status, out, _ = run(capsys, "express", "--index", "4096")
    assert status == 0
    assert out.startswith("[F_4096] = x^4095 - 4094*x^4093 + 8374278*x^4091 - ")
    assert out.endswith(" - 2048*x   (x = [F_2])\n")
    status, out, _ = run(capsys, "express", "--index", "4095", "--chain", "odd")
    assert status == 0
    assert out.startswith("[F_4095] = x^2047 - 2046*x^2046 + 2089989*x^2045 - ")
    status, out, err = run(capsys, "express", "--index", "4097")
    assert (status, out) == (2, "")
    assert "limit" in err


def test_grid_mismatch_exits_two(capsys, monkeypatch):
    # The math never disagrees, so force a mismatch: every Krull dimension
    # one more than the group's, through the route the grid reads its
    # dimensions from.  The package binds atiyah.classify to the function.
    classify_module = sys.modules["atiyah.classify"]
    krull_dimension = classify_module.krull_dimension
    monkeypatch.setattr(
        classify_module, "krull_dimension", lambda presentation: krull_dimension(presentation) + 1
    )
    status, out, _ = run(capsys, "grid", "--rmax", "3", "--nmax", "3")
    assert status == 2
    lines = out.splitlines()
    assert lines[-1] == "dimension correspondence holds in 0/12 cells"
    assert all(line.endswith(" false") for line in lines[1:-1])
    status, out, _ = run(capsys, "grid", "--rmax", "3", "--nmax", "3", "--format", "json")
    assert status == 2
    payload = json.loads(out)
    jsonschema.validate(payload, GRID_SCHEMA)
    assert payload["all_hold"] is False
    assert not any(cell["holds"] for cell in payload["cells"])


@pytest.mark.parametrize(
    "argv, report",
    [
        (("classify", "--rank", "2", "--torsion", "4"), lambda: classify(2, 4)),
        (("classify", "--rank", "1", "--torsion", "1"), lambda: classify(1, 1)),
        (("p1", "2", "4", "--bound", "2"), lambda: p1_classify((2, 4))),
        (("p1", "0"), lambda: p1_classify((0,))),
    ],
    ids=["classify-2-4", "classify-1-1", "p1-2-4", "p1-0"],
)
def test_classify_and_p1_mismatch_exit_two(capsys, monkeypatch, argv, report):
    # As for grid: a report whose printed correspondence fails exits 2, and
    # prints what it printed before, the FAILS line included.
    classify_module = sys.modules["atiyah.classify"]
    krull_dimension = classify_module.krull_dimension
    monkeypatch.setattr(
        classify_module, "krull_dimension", lambda presentation: krull_dimension(presentation) + 1
    )
    expected = report()
    assert not expected.correspondence_holds
    status, out, err = run(capsys, *argv)
    assert (status, err) == (2, "")
    k, g = expected.krull_dim, expected.group.dimension
    assert f"dimension correspondence: FAILS ({k} vs {g})" in out.splitlines()
    assert out.startswith(report_to_text(expected) + "\n")
    status, out, err = run(capsys, *argv, "--format", "json")
    assert (status, err) == (2, "")
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["correspondence"] is False
    assert payload.items() >= report_to_json(expected).items()


def test_p1_subcommand(capsys):
    status, out, _ = run(capsys, "p1", "2", "4")
    assert status == 0
    assert "gcd of degrees: 2" in out
    listed = out.splitlines()[-1]
    status, out, _ = run(capsys, "p1", "2", "4", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["bound"] == 6
    assert listed == "degrees enumerated up to power bound 6: " + ", ".join(
        str(d) for d in payload["enumerated"]
    )
    status, out, _ = run(capsys, "p1", "0", "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["input"] == {"degrees": [0]}
    assert payload["krull_dim"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("tensor", "L*F_2 + 2 O", "--torsion", "3"),
        ("tensor", "0"),
        ("power", "L^-1*F_2 + O", "-3"),
        ("sset", "--rank", "3", "--torsion", "4", "--bound", "3"),
        ("classify", "--rank", "2", "--torsion", "6"),
        ("express", "--index", "7", "--chain", "odd"),
        ("verify", "--rmax", "3", "--torsion", "2"),
        ("grid", "--rmax", "2", "--nmax", "3"),
        ("p1", "-2", "3", "--bound", "3"),
    ],
)
def test_json_payload_validates(capsys, argv):
    status, out, _ = run(capsys, *argv, "--format", "json")
    assert status == 0
    jsonschema.validate(json.loads(out), SCHEMAS[argv[0]])


# One call of each subcommand, with a multi-term decomposition for tensor
# and power.
_ONE_CALL_EACH = [
    ("tensor", "L*F_2 + 2 O + L^-1*F_3^2", "--torsion", "3"),
    ("power", "L^-1*F_2 + O", "5"),
    ("sset", "--rank", "3", "--torsion", "4", "--bound", "3"),
    ("classify", "--rank", "2", "--torsion", "6"),
    ("express", "--index", "7", "--chain", "odd"),
    ("verify", "--rmax", "3", "--torsion", "2"),
    ("grid", "--rmax", "2", "--nmax", "3"),
    ("p1", "-2", "3", "--bound", "3"),
]


@pytest.mark.parametrize("argv", _ONE_CALL_EACH, ids=lambda argv: argv[0])
def test_json_prints_the_rendered_payload_on_one_line(capsys, tmp_path, argv):
    import atiyah.cli as cli_module

    args = cli_module.build_parser().parse_args([*argv, "--format", "json"])
    result, status = getattr(cli_module, args.handler)(args)
    payload = getattr(cli_module, args.to_json)(result)
    target = tmp_path / "out.json"
    status_json, out, err = run(capsys, *argv, "--format", "json", "--out", str(target))
    assert (status_json, err) == (status, "")
    assert out == json.dumps(payload) + "\n"
    assert out.count("\n") == 1
    assert target.read_text(encoding="utf-8") == out
    if argv[0] in ("tensor", "power"):
        assert len(payload["terms"]) > 1
        assert run(capsys, *argv) == (0, payload["text"] + "\n", "")


# Small arguments, so that no call runs long: each subcommand's required
# arguments, then options with values and junk.  No -h/--help (argparse
# exits on it) and no --out (it writes a file).
_SMALL = st.integers(min_value=-1, max_value=9).map(str)
_EXPRESSIONS = st.one_of(
    st.sampled_from(["F_2", "L*F_3 + O", "(L^-1*F_2 + O)^3", "2 F_2 + F_4", "0", "O^-2"]),
    st.text(alphabet="OLF_0123()+*^- x²", max_size=8),
)
_REQUIRED = {
    "tensor": st.tuples(_EXPRESSIONS),
    "power": st.tuples(_EXPRESSIONS, _SMALL),
    "sset": st.tuples(st.just("--rank"), _SMALL),
    "classify": st.tuples(st.just("--rank"), _SMALL),
    "express": st.tuples(st.just("--index"), _SMALL),
    "verify": st.just(()),
    "grid": st.just(()),
    "p1": st.lists(_SMALL, min_size=1, max_size=3).map(tuple),
    "frobnicate": st.just(()),
}
_VALUES = st.one_of(
    _SMALL,
    _EXPRESSIONS,
    st.sampled_from(["even", "odd", "text", "json", "yaml", "--bogus", "", "-", "1e3"]),
)
_OPTIONS = st.sampled_from(
    ["--torsion", "--rank", "--bound", "--rmax", "--nmax", "--index", "--chain", "--format"]
)
_EXTRAS = st.lists(
    st.one_of(st.tuples(_OPTIONS, _SMALL), st.tuples(_OPTIONS, _VALUES), st.tuples(_VALUES)),
    max_size=2,
)


# Every fuzzed call is held to this by the CLI's up-front size limits, not by
# the test; the slowest seen takes about 30 ms (`tensor F_9999^2`).  The same
# 2 s cuts the subprocess runs below.
MAX_CALL_SECONDS = 2.0


@given(st.sampled_from(sorted(_REQUIRED)), st.data(), st.sampled_from(["text", "json"]))
@settings(max_examples=300, deadline=None)
def test_exit_code_contract_fuzzed(command, data, fmt):
    argv = [command, *data.draw(_REQUIRED[command])]
    for extra in data.draw(_EXTRAS):
        argv.extend(extra)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([*argv, "--format", fmt])
    assert time.perf_counter() - start < MAX_CALL_SECONDS, argv
    assert status in (0, 1, 2)
    if status:
        assert err.getvalue().startswith(("error: ", "usage error: "))
    elif fmt == "json":
        jsonschema.validate(json.loads(out.getvalue()), SCHEMAS[command])


def test_usage_error_exit_code(capsys):
    status, _, err = run(capsys, "classify", "--rank", "0")
    assert status == 1
    assert "usage error" in err
    status, _, err = run(capsys, "tensor", "F_2 +* F_3")
    assert status == 1
    assert "error" in err
    # More digits than int() converts: still a usage error with a position.
    status, _, err = run(capsys, "tensor", "F_" + "9" * 5000)
    assert status == 1
    assert err.startswith("error: integer literal of 5000 digits is too long (at position 2)")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--rank", "x"),
        ("grid", "--nmax", "x"),
        ("sset", "--rank", "2", "--bound", "1.5"),
    ],
)
def test_non_integer_option_is_a_plain_usage_error(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert status == 1
    assert out == ""
    assert err.startswith("usage error: argument ")
    assert "invalid integer value" in err
    assert "_positive_int" not in err and "_nonneg_int" not in err


def test_computation_error_exit_code(capsys):
    status, _, err = run(capsys, "power", "0", "2")
    assert status == 2
    assert "zero" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tensor", "F_2^100000000"),
        ("power", "F_2", "100000000"),
        ("tensor", "F_2^1000^1000"),
        ("power", "F_2", "1" + "0" * 400),
        ("tensor", "F_100000000^2"),
    ],
)
def test_oversized_power_exits_two_promptly(argv):
    assert_exits_two_promptly(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--rmax", "100000"),
        ("grid", "--rmax", "100000", "--nmax", "100000"),
        ("sset", "--rank", "2", "--bound", "100000"),
        ("sset", "--rank", "1000000", "--bound", "2"),
        ("tensor", "F_100000000*F_100000000"),
        ("p1", "0", "1", "7", "--bound", "100000"),
        ("p1", "0", "1", "7", "--bound", "100000", "--format", "json"),
        ("express", "--index", "1000000"),
        ("sset", "--rank", "1", "--bound", "100000000"),
        ("verify", "--rmax", "128"),
        ("tensor", "F_3^3^4^4^3"),  # refused by the recurrence's own limit
    ],
)
def test_oversized_work_exits_two_promptly(argv):
    assert "limit" in assert_exits_two_promptly(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--rank", "1000000000", "--torsion", "1000000000"),
        ("classify", "--rank", "1", "--torsion", "1000000000"),
        ("grid", "--rmax", "1", "--nmax", "3000"),
    ],
)
def test_large_torsion_orders_run_promptly(argv):
    result = run_cli(argv)
    assert result.returncode == 0
    assert result.stderr == ""


def cli_env():
    """The environment for a CLI subprocess that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv):
    """Run the CLI on argv in a fresh process, cut after MAX_CALL_SECONDS."""
    # A fresh process, so that an unbounded computation is cut by the timeout.
    return subprocess.run(
        [sys.executable, "-m", "atiyah.cli", *argv],
        capture_output=True, text=True, env=cli_env(), timeout=MAX_CALL_SECONDS,
    )


def assert_exits_two_promptly(argv):
    """Run the CLI on argv; check it exits 2 with a message; return stderr."""
    result = run_cli(argv)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    return result.stderr


def read_head_then_close(argv):
    """Run the CLI on argv, read 100 bytes of stdout and close the pipe, as
    `atiyah ... | head -c 100` does; return (status, the bytes, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "atiyah.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    status = proc.wait(timeout=30)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return status, head, err


def test_reader_closing_the_pipe_early_is_not_an_error(tmp_path):
    # About 250 kB of output, more than a pipe holds, so the CLI is still
    # writing when the reader closes the pipe.
    out = tmp_path / "sset.txt"
    status, head, err = read_head_then_close(
        ["sset", "--rank", "2", "--bound", "200", "--out", str(out)]
    )
    assert status == 0
    assert "Traceback" not in err and "Exception ignored" not in err
    assert out.read_text().startswith(head.decode())


@pytest.mark.parametrize(
    "argv",
    [
        # 0.3 MB, 0.4 MB and 3.1 MB of output, each more than a pipe holds.
        ("sset", "--rank", "2", "--bound", "200", "--format", "json"),
        ("power", "F_2", "2000"),
        ("grid", "--rmax", "200", "--nmax", "200", "--format", "json"),
    ],
)
def test_closed_pipe_is_not_an_error(argv):
    status, head, err = read_head_then_close(argv)
    assert status == 0
    assert len(head) == 100
    assert "Traceback" not in err


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
    # The math never disagrees, so force a mismatch to pin the CI gate: break
    # the formula side where verify's packed route and oracle_check look it
    # up.  oracle_check's character side must not move with it.
    import atiyah.characters as characters_module
    from atiyah import BundleSum, oracle_check

    tensor_indec = characters_module.tensor_indec
    ctx = TorsionContext(4)
    pairs = [(ctx.bundle(0, 1), ctx.bundle(0, 1)), (ctx.bundle(1, 7), ctx.bundle(-2, 5)),
             (ctx.bundle(3, 300), ctx.bundle(2, 260))]
    unbroken = [oracle_check(ctx, a, b) for a, b in pairs]

    def broken_formula(ctx, a, b):
        return BundleSum.zero(ctx)

    monkeypatch.setattr(characters_module, "tensor_indec", broken_formula)
    for (a, b), before in zip(pairs, unbroken):
        check = oracle_check(ctx, a, b)
        assert before.agrees and not check.agrees
        assert check.from_character == before.from_character
    status, out, _ = run(capsys, "verify", "--rmax", "2")
    assert status == 2
    assert out.splitlines() == [
        "oracle agreement 0/3 pairs",
        "O x O: formula 0 vs oracle O",
        "F_2 x O: formula 0 vs oracle F_2",
        "F_2 x F_2: formula 0 vs oracle O + F_3",
    ]
    status, out, _ = run(capsys, "verify", "--rmax", "2", "--format", "json")
    assert status == 2
    payload = json.loads(out)
    jsonschema.validate(payload, VERIFY_SCHEMA)
    assert (payload["ok"], len(payload["failures"])) == (False, 3)

    # A failure at the twisted probe (1, -1) names the two twisted classes.
    def twisted_formula(ctx, a, b):
        if (a.exponent, b.exponent) != (1, -1):
            return tensor_indec(ctx, a, b)
        return BundleSum.zero(ctx)

    monkeypatch.setattr(characters_module, "tensor_indec", twisted_formula)
    status, out, _ = run(capsys, "verify", "--rmax", "3")
    assert status == 2
    assert out.splitlines() == [
        "oracle agreement 0/6 pairs",
        "L x L^-1: formula 0 vs oracle O",
        "L*F_2 x L^-1: formula 0 vs oracle F_2",
        "L*F_2 x L^-1*F_2: formula 0 vs oracle O + F_3",
        "L*F_3 x L^-1: formula 0 vs oracle F_3",
        "L*F_3 x L^-1*F_2: formula 0 vs oracle F_2 + F_4",
        "L*F_3 x L^-1*F_3: formula 0 vs oracle O + F_3 + F_5",
    ]
    status, out, _ = run(capsys, "verify", "--rmax", "3", "--format", "json")
    assert status == 2
    assert json.loads(out)["failures"][4] == "L*F_3 x L^-1*F_2: formula 0 vs oracle F_2 + F_4"


def test_breaking_the_packed_character_product_exits_two(capsys, monkeypatch):
    # Shift every slot that the packed product reads back by one: each
    # pair's block is then no character product, and verify must report
    # every pair as a failure line and exit 2, never agree or stop early.
    # oracle_check, which reads its product the same way, raises.
    import atiyah.characters as characters_module
    from atiyah import NotACharacterError, oracle_check

    unpack = characters_module._unpack

    def shifted(v, count, width):
        return [0, *unpack(v, count, width)[:-1]]

    monkeypatch.setattr(characters_module, "_unpack", shifted)
    asymmetric = "vs oracle not a character: not invariant under q -> 1/q"
    status, out, err = run(capsys, "verify", "--rmax", "4")
    assert (status, err) == (2, "")
    lines = out.splitlines()
    assert lines[0] == "oracle agreement 0/10 pairs"
    assert len(lines) == 11
    assert lines[1] == "O x O: formula O vs oracle 0"  # one slot, the zero before it
    assert lines[5] == f"F_3 x F_2: formula F_2 + F_4 {asymmetric}"
    assert all(line.endswith(asymmetric) for line in lines[2:])
    status, out, err = run(capsys, "verify", "--rmax", "4", "--format", "json")
    assert (status, err) == (2, "")
    payload = json.loads(out)
    jsonschema.validate(payload, VERIFY_SCHEMA)
    assert (payload["pairs"], payload["agreements"], payload["ok"]) == (10, 0, False)
    assert payload["failures"] == lines[1:]
    ctx = TorsionContext(4)
    message = "^not a character: not invariant under q -> 1/q$"
    for (ea, r), (eb, s) in [((0, 2), (0, 1)), ((1, 7), (-2, 5)), ((3, 300), (2, 260))]:
        with pytest.raises(NotACharacterError, match=message):
            oracle_check(ctx, ctx.bundle(ea, r), ctx.bundle(eb, s))


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


# -- one parser per process -----------------------------------------------------------

# Valid calls, usage errors (exit 1) and computation errors (exit 2), mixed.
_SEQUENCE = [
    ("classify", "--rank", "2", "--torsion", "4"),
    ("classify", "--rank", "x"),
    ("tensor", "L*F_2 + O", "--torsion", "3", "--format", "json"),
    ("power", "0", "2"),
    ("frobnicate",),
    ("sset", "--rank", "1", "--torsion", "3", "--bound", "2"),
    ("grid", "--nmax", "-1"),
    ("express", "--index", "4", "--chain", "odd"),
    ("verify", "--rmax", "100000"),
    ("p1", "2", "4", "--format", "json"),
    ("tensor",),
    ("express", "--index", "9", "--chain", "odd", "--format", "json"),
    ("tensor", "F_2 +* F_3"),
    ("grid", "--rmax", "2", "--nmax", "2"),
    ("sset", "--rank", "2", "--bound", "1.5", "--format", "json"),
    ("power", "F_2", "3", "--format", "yaml"),
    ("classify", "--rank", "3", "--torsion", "0", "--format", "json"),
    ("--format", "json"),
    ("p1",),
    ("verify", "--rmax", "2", "--torsion", "2"),
    ("power", "F_2", "--torsion", "4", "3"),
    ("power", "--torsion", "4", "F_2", "3"),
    ("tensor", "", "--format", "json"),
    ("tensor", "F_2", "--out", ""),
    ("classify", "--rank", "2", "--rank", "3"),
]


def _outcomes(capsys, argvs):
    return [run(capsys, *argv) for argv in argvs]


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch):
    import atiyah.cli as cli_module

    reused = _outcomes(capsys, _SEQUENCE * 2)
    assert {status for status, _, _ in reused} == {0, 1, 2}

    # The same calls, each with parsers built from scratch: the subcommand's
    # own for a known command, else the full one.
    def fresh_build_parser(command=None):
        parser, subparsers = cli_module._shared_parsers.__wrapped__()
        return subparsers.get(command, parser)

    monkeypatch.setattr(cli_module, "build_parser", fresh_build_parser)
    assert _outcomes(capsys, _SEQUENCE * 2) == reused


def test_rebinding_parse_args_does_not_stack(capsys, monkeypatch):
    # A tracer rebinds parse_args on each parser that build_parser returns;
    # were that parser shared, every call would wrap the last wrapper again.
    # Both kinds are checked: a subcommand's parser and the full one.
    import atiyah.cli as cli_module

    untraced = run(capsys, "classify", "--rank", "2")
    build_parser = cli_module.build_parser

    def traced_build_parser(*args):
        parser = build_parser(*args)
        inner = parser.parse_args
        parser.parse_args = lambda *args, **kwargs: inner(*args, **kwargs)
        return parser

    monkeypatch.setattr(cli_module, "build_parser", traced_build_parser)
    for _ in range(2000):
        assert main(["classify", "--rank", "2", "--torsion", "x"]) == 1
        assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.count("usage error") == 4000
    assert run(capsys, "classify", "--rank", "2") == untraced
    monkeypatch.undo()
    assert run(capsys, "classify", "--rank", "2") == untraced


def _call(argv):
    """(exit status, stdout, stderr) of ``main(argv)``; -h/--help exit through
    SystemExit, whose code stands in for the status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exit_:
            status = f"SystemExit({exit_.code})"
    return status, out.getvalue(), err.getvalue()


def test_every_call_parses_once_through_the_wrapped_parser(monkeypatch):
    # perfbench's tracer wraps build_parser and rebinds parse_args on the
    # parser it returns, and times both as cli.argparse_s.  Wrap it the same
    # way: every call, on a known or an unknown command, must go through the
    # rebound parse_args exactly once, with the subcommand's own parser for a
    # known command and the full parser otherwise.
    import atiyah.cli as cli_module

    build_parser = cli_module.build_parser
    parsed = []

    def traced_build_parser(*args):
        parser = build_parser(*args)
        inner = parser.parse_args

        def parse_args(*args, **kwargs):
            parsed.append(parser.prog)
            return inner(*args, **kwargs)

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli_module, "build_parser", traced_build_parser)
    argvs = [*_SEQUENCE, (), ("-h",), ("--help",), ("tensor", "-h"), ("p1", "--", "-2")]
    for argv in argvs:
        del parsed[:]
        _call(argv)
        known = bool(argv) and argv[0] in SCHEMAS
        assert parsed == [f"atiyah {argv[0]}" if known else "atiyah"], argv


def test_well_formed_argv_is_read_without_argparse(monkeypatch):
    # A subcommand's parser reads an argv of the plain shape off its own
    # table, p1's degrees (nargs="+") and negative numbers included; -h and
    # degrees split by an option go to argparse, once.
    import argparse

    parse_known_args = argparse.ArgumentParser.parse_known_args
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv, parsed in [
        (("classify", "--rank", "2", "--torsion", "4", "--format", "json"), []),
        (("power", "F_2", "--torsion", "4", "3"), []),
        (("p1", "-2", "3"), []),
        (("power", "L*F_2", "-2"), []),
        (("p1", "3", "--bound", "4", "5"), ["atiyah p1"]),
        (("tensor", "-h"), ["atiyah tensor"]),
    ]:
        del calls[:]
        _call(argv)
        assert calls == parsed, argv


def test_direct_read_gives_argparse_namespace():
    # The same Namespace, defaults and set_defaults included, as argparse's
    # own parse of the same argv.
    import argparse

    import atiyah.cli as cli_module

    _, subparsers = cli_module._shared_parsers()
    for argv in [
        ("classify", "--rank", "2", "--torsion", "4", "--format", "json"),
        ("express", "--index", "9", "--chain", "odd"),
        ("grid",),
        ("power", "--out", "", "F_2", "3"),
        ("tensor", "L*F_2 + O"),
        ("p1", "-2", "3"),
        ("p1", "--bound", "4", "0", "-12", "5", "--format", "json"),
        ("power", "L*F_2", "-2"),
        ("tensor", "-1.5", "--torsion", "3"),
    ]:
        parser = subparsers[argv[0]]
        assert cli_module._read(parser._table, argv[1:]) is not None, argv
        direct = parser.parse_args(list(argv[1:]))
        assert direct == argparse.ArgumentParser.parse_args(parser, list(argv[1:])), argv


# -- the subcommand's own parser against the full one ----------------------------------

# Each subcommand's grammar: its positionals, then its options with values
# (--format is added to every one; --out is left out, since it writes a file).
# A positional of None is left out, so p1 gets one to three degrees.  Numbers
# include tokens that start with "-", negative numbers to argparse or not.
_NEGATIVE = st.sampled_from(["-2", "-12", "-0", "-1.5", "-.5", "-1e3", "-2x", "- 2"])
_NUMBERS = st.one_of(_SMALL, _NEGATIVE)
_GRAMMARS = {
    "tensor": ((st.one_of(_EXPRESSIONS, _NEGATIVE),), ("--torsion",)),
    "power": ((_EXPRESSIONS, _NUMBERS), ("--torsion",)),
    "sset": ((), ("--rank", "--bound", "--torsion")),
    "classify": ((), ("--rank", "--torsion")),
    "express": ((), ("--index", "--chain")),
    "verify": ((), ("--rmax", "--torsion")),
    "grid": ((), ("--rmax", "--nmax")),
    "p1": ((_NUMBERS, st.one_of(st.none(), _NUMBERS), st.one_of(st.none(), _NUMBERS)),
           ("--bound",)),
}
_OPTION_VALUES = st.one_of(
    _SMALL, st.sampled_from(["even", "odd", "text", "json", "x", "1.5", "", "-", "0x10", "-1"])
)
_PLAIN_VALUES = st.one_of(_SMALL, st.sampled_from(["even", "odd"]))
_JUNK = st.sampled_from(
    ["--", "-h", "--help", "--he", "--bogus", "--torsionx", "-x", "-", "extra", "-3", "--format"]
)


@st.composite
def _mutated_argv(draw):
    """argv of one subcommand's grammar, then mutated: a positional moved
    after the options, values dropped, options abbreviated, written as
    --opt=value or repeated, junk inserted (--, -h, unknown options, bad
    integers), or the command replaced."""
    command = draw(st.sampled_from(sorted(_GRAMMARS)))
    positionals, options = _GRAMMARS[command]
    # Half the argvs keep the plain shape, so that many reach the subcommand
    # parser's direct read; the other half are mutated.
    mutated = draw(st.booleans())
    styles = ["pair", "equals", "abbreviated", "missing", "repeated"] if mutated else ["pair"]
    argv = [value for value in map(draw, positionals) if value is not None]
    count = len(argv)
    drawn = st.lists(st.sampled_from([*options, "--format"]), max_size=3, unique=not mutated)
    for option in draw(drawn):
        if option == "--format":
            value = draw(st.sampled_from(["text", "json"]))
        else:
            value = draw(_OPTION_VALUES if mutated else _PLAIN_VALUES)
        style = draw(st.sampled_from(styles))
        if style == "equals":
            argv.append(f"{option}={value}")
        elif style == "abbreviated":
            argv += [option[: draw(st.integers(3, len(option)))], value]
        elif style == "missing":
            argv.append(option)
        elif style == "repeated":
            argv += [option, value, option, draw(_OPTION_VALUES)]
        else:
            argv += [option, value]
    if count and draw(st.booleans()):
        argv.append(argv.pop(draw(st.integers(0, count - 1))))
    if not mutated:
        return [command, *argv]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    head = draw(st.sampled_from([command] * 6 + ["frobnicate", "tens", "-h", ""]))
    return [head, *argv]


@given(_mutated_argv())
@example(["express", "--index", "3", "--chain", "x"])  # a value outside choices
@example(["tensor", "F_2", "--", "4"])  # -- is no option, nor a prefix of one
@example(["classify", "--rank", "2", "--format", "json", "--format", "text"])  # the last wins
@example(["p1", "3", "--bound", "4", "5"])  # degrees split by an option
@example(["p1", "-2", "--format", "json", "-3"])  # negative degrees split by an option
@example(["power", "L*F_2", "-1.5"])  # a negative number that is no integer
@settings(max_examples=800, deadline=None)
def test_subcommand_parser_matches_the_full_parser(argv):
    # The full-parser route: with no subcommand known to main, every call
    # goes through the full parser and its subparsers action, as all calls
    # did before main parsed with the subcommand's own parser.
    import atiyah.cli as cli_module

    full, _ = cli_module._shared_parsers()
    direct = _call(argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli_module, "_shared_parsers", lambda: (full, {}))
        assert _call(argv) == direct


def test_rebound_renderer_is_called(capsys, monkeypatch):
    # The parser outlives one call, but each call looks its renderers up anew.
    import atiyah.cli as cli_module

    run(capsys, "classify", "--rank", "2")
    monkeypatch.setattr(cli_module, "report_to_text", lambda report: f"rank {report.rank}")
    assert run(capsys, "classify", "--rank", "2") == (0, "rank 2\n", "")
