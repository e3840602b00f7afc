"""Grammar, dispatch, exit codes, and JSON-schema conformance of the CLI."""
import argparse
import json
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from singulant.cli import (
    _build_argparser,
    main,
    parse_element,
    parse_ideal,
    parse_module,
    parse_ring,
)
from singulant.errors import ParseError
from singulant.poly import QQ, PrimeField

from util import rand_poly, embedded_point_ring

RING_A = "ring Q[x,y] / (x^2, x*y)"
RING_B = "ring Q[x,y,z,w] / (x^2, y*z, y*w)"


@pytest.fixture(scope="module")
def schema():
    path = resources.files("singulant") / "schemas" / "output.schema.json"
    return json.loads(path.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing --------------------------------------------------------------------


class TestParseRing:
    def test_golden_presentation(self):
        ring = parse_ring(RING_A)
        assert ring.format() == "Q[x,y]/(x^2, x*y)"
        assert ring.field is QQ
        assert ring.names == ("x", "y")

    def test_ring_keyword_optional(self):
        assert parse_ring("Q[x,y]/(x^2)") == parse_ring("ring Q[x,y]/(x^2)")

    def test_regular_ring_without_quotient(self):
        ring = parse_ring("ring Q[x]")
        assert not ring.defining

    def test_prime_field(self):
        ring = parse_ring("ring F2[x,y] / (x^2)")
        assert ring.field == PrimeField(2)

    def test_format_reparses_to_equal_ring(self):
        for text in (RING_A, RING_B, "Q[t]", "F5[a,b]/(a^3 - b^2, 2*a*b)"):
            ring = parse_ring(text)
            assert parse_ring(ring.format()) == ring

    def test_non_prime_field_rejected(self):
        with pytest.raises(ParseError):
            parse_ring("ring F4[x]")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_ring("ring Q[x,x]")
        assert "duplicate" in str(err.value)

    def test_zero_generator_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_ring("ring Q[x,y]/(x - x)")
        assert "zero" in str(err.value)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_ring("ring Q[x,y]/(x*z)")
        assert "unknown variable" in str(err.value)
        assert "column 16" in str(err.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_ring("ring Q[x,y")
        assert err.value.line == 1 and err.value.column > 1

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_ring("ring Q[x,y]/(x^2) extra")

    @pytest.mark.parametrize("body", ["(" * 3000 + "x" + ")" * 3000,
                                      "-" * 3000 + "x"],
                             ids=["parentheses", "unary-minus"])
    def test_deep_nesting_is_a_parse_error(self, capsys, body):
        with pytest.raises(ParseError, match="nesting"):
            parse_ring(f"Q[x]/({body})")
        code, _, err = run_cli(capsys, "dim", f"Q[x]/({body})")
        assert code == 2
        assert "nesting" in err and "Traceback" not in err

    def test_moderate_nesting_parses(self):
        ring = parse_ring("Q[x]/(" + "-(" * 40 + "x" + ")" * 40 + ")")
        assert ring.format() == "Q[x]/(x)"

    def test_power_past_the_degree_budget_exits_before_expanding(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "dim", "Q[x]/((x+1)^1000)")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "degree budget exhausted (term of degree 1000 exceeds 24)" in err
        # the default budget still admits a power of degree 24
        ring = parse_ring("Q[x]/((x+1)^24)")
        assert ring.defining[0].total_degree() == 24
        assert len(ring.defining[0].terms) == 25


    @pytest.mark.parametrize("ring", [
        "Q[x]/(x^{n})", "Q[x]/({n}*x)", "Q[x]/(x - 1/{n})", "F{n}[x]"],
        ids=["exponent", "coefficient", "denominator", "field"])
    def test_integer_past_the_conversion_limit_is_a_parse_error(self, capsys, ring):
        text = ring.format(n="9" * 5000)
        with pytest.raises(ParseError, match="5000 digits"):
            parse_ring(text)
        code, out, err = run_cli(capsys, "dim", text)
        assert code == 2 and out == ""
        assert "integer of 5000 digits is too long" in err and "Traceback" not in err

    def test_coefficient_past_the_conversion_limit_is_a_parse_error(self, capsys):
        # 4,300 digits still print, and over F_p every power reduces
        ring = parse_ring("Q[x]/(x - 10^4299)")
        assert ring.format() == "Q[x]/(x - 1" + "0" * 4299 + ")"
        assert parse_ring("F7[x]/(x - 10^5000)").format() == "F7[x]/(x + 5)"
        for command, ring, column in [("report", "Q[x,y]/(x^2-10^5000*y^3)", 9),
                                      ("dim", "Q[x]/(x - (10^2000)^3)", 11),
                                      ("dim", "Q[x]/(x - 10^3000*10^3000)", 7),
                                      ("dim", "Q[x]/(x - 1/10^4300)", 7)]:
            code, out, err = run_cli(capsys, command, ring)
            assert code == 2 and out == "", ring
            assert err == ("parse error: coefficient of more than 4300 digits "
                           f"(line 1, column {column})\n")

    def test_huge_power_of_a_constant_is_refused_before_it_is_computed(self, capsys):
        start = time.perf_counter()
        # 3^10000000 has 4.7 million digits and takes seconds to compute
        code, _, err = run_cli(capsys, "dim", "Q[x]/(x - 3^10000000)")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "coefficient of more than 4300 digits" in err

    @pytest.mark.parametrize("ring, char, column", [
        ("Q[\u00e9]", "\u00e9", 3),        # a non-ASCII letter
        ("Q[x]/(x^\u00b2)", "\u00b2", 9),  # superscript two, isdigit() but not int()
        ("Q[x]/(x^\u0663)", "\u0663", 9),  # Arabic-Indic three, int() reads it as 3
    ], ids=["letter", "superscript-digit", "arabic-indic-digit"])
    def test_non_ascii_character_is_a_parse_error(self, capsys, ring, char, column):
        code, out, err = run_cli(capsys, "dim", ring)
        assert code == 2 and out == ""
        assert err == (f"parse error: unexpected character {char!r} "
                       f"(line 1, column {column})\n")


class TestParsePolynomials:
    def test_arithmetic(self):
        ring = parse_ring("Q[x,y]")
        x, y = ring.variable(0), ring.variable(1)
        assert parse_element("x^2 + 2*x*y - y^3", ring) == (
            x * x + 2 * (x * y) - y ** 3)
        assert parse_element("-(x - y)^2", ring) == -((x - y) ** 2)
        assert parse_element("3", ring) == ring.poly_ring.constant(3)

    def test_fraction_coefficients(self):
        ring = parse_ring("Q[x]")
        from fractions import Fraction
        assert parse_element("1/2*x", ring) == ring.poly_ring.constant(
            Fraction(1, 2)) * ring.variable(0)

    def test_round_trip_random_polynomials(self):
        rng = random.Random(20260814)
        ring = embedded_point_ring()
        for _ in range(100):
            p = rand_poly(rng, ring.poly_ring, max_degree=4, nterms=4)
            assert parse_element(ring.format_element(p), ring) == p

    def test_round_trip_prime_field(self):
        rng = random.Random(7)
        ring = parse_ring("F5[a,b]")
        for _ in range(50):
            p = rand_poly(rng, ring.poly_ring, max_degree=3, nterms=3)
            assert parse_element(ring.format_element(p), ring) == p


class TestParseModule:
    def test_cyclic(self):
        ring = parse_ring(RING_A)
        module = parse_module("R/(x, y)", ring)
        assert module.rank == 1 and module.n_relations == 2

    def test_free_and_residue_shorthands(self):
        ring = parse_ring(RING_A)
        assert parse_module("R", ring).is_free_presentation()
        assert parse_module("k", ring).n_relations == 2

    def test_matrix_form(self):
        ring = parse_ring(RING_A)
        module = parse_module("[[x, y], [0, x]]", ring)
        assert module.rank == 2 and module.n_relations == 2

    def test_ragged_matrix_rejected(self):
        ring = parse_ring(RING_A)
        with pytest.raises(ParseError) as err:
            parse_module("[[x, y], [x]]", ring)
        assert "ragged" in str(err.value)

    def test_nonsense_rejected(self):
        ring = parse_ring(RING_A)
        with pytest.raises(ParseError):
            parse_module("S/(x)", ring)

    def test_ideal_text(self):
        ring = parse_ring(RING_A)
        handle = parse_ideal("(x, y^2)", ring)
        assert len(handle.generators) == 2


# -- exit codes ------------------------------------------------------------------


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "jac", RING_A)
        assert code == 0
        assert out.strip() == "(x, y)"

    def test_parse_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, "jac", "ring Q[x,y")
        assert code == 2
        assert "parse error" in err

    def test_missing_ideal_flag_is_two(self, capsys):
        code, _, err = run_cli(capsys, "nu", RING_A)
        assert code == 2
        assert "--ideal" in err

    def test_precondition_failure_is_one(self, capsys):
        code, _, err = run_cli(capsys, "loewy", RING_A, "--ideal", "(x)")
        assert code == 1
        assert "m-primary" in err

    @pytest.mark.parametrize("ring, unit", [("Q[x]/(x^2)", "(1)"),
                                            ("Q[x,y]/(x^2,y^2)", "(x+1)")])
    def test_unit_ideal_is_not_m_primary(self, capsys, ring, unit):
        code, out, err = run_cli(capsys, "loewy", ring, "--ideal", unit)
        assert code == 1 and out == ""
        assert "unit ideal" in err
        code, out, err = run_cli(capsys, "bound", ring, "--ideal", unit,
                                 "--assume-annihilates")
        assert code == 1 and out == ""
        assert "m-primary" in err

    def test_reader_closing_early_leaves_without_traceback(self):
        # the JSON (about 115 kB) overfills the pipe, so the write fails
        # once the reader has gone
        proc = subprocess.Popen(
            [sys.executable, "-m", "singulant", "resolve",
             "Q[x,y,z]/(x*y,y*z,x*z)", "k", "--length", "6", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() in (0, 1, 2, 3)
        assert err == ""

    def test_unsupported_input_is_one(self, capsys):
        code, _, err = run_cli(capsys, "minimal-primes",
                               "ring Q[x,y]/(x^2 - y^3)")
        assert code == 1
        assert "monomial" in err

    def test_budget_exhaustion_is_three(self, capsys):
        code, _, err = run_cli(capsys, "resolve", "ring Q[x,y]/(x^3 - y^7)",
                               "R/(x)", "--length", "3", "--max-degree", "5")
        assert code == 3
        assert "budget" in err

    def test_degree_budget_exhausted_in_reduction_is_three(self, capsys):
        # every parsed power is within the budget; under lex, x^3 reduces
        # modulo x - y^4 to x^2*y^4, of degree 6
        code, out, err = run_cli(capsys, "resolve", "Q[x,y]/(x - y^4)", "R/(x^3)",
                                 "--length", "2", "--order", "lex", "--max-degree", "5")
        assert code == 3 and out == ""
        assert "term of degree 6 exceeds 5" in err

    @pytest.mark.parametrize("ring", [RING_A, "ring Q[x,y] / (x^3 - y^2)"])
    def test_step_budget_bounds_the_whole_report(self, capsys, ring):
        code, out, err = run_cli(capsys, "report", ring, "--max-steps", "200")
        assert code == 3
        assert "budget" in err
        assert out == ""

    def test_step_budget_bounds_verify_paper(self, capsys):
        code, _, err = run_cli(capsys, "verify-paper", "--max-steps", "10")
        assert code == 3
        assert "budget" in err

    def test_step_budget_above_the_total_changes_nothing(self, capsys):
        # ring A's report takes under 15,000 steps in all
        code, default, _ = run_cli(capsys, "report", RING_A)
        assert code == 0
        code, roomy, _ = run_cli(capsys, "report", RING_A, "--max-steps", "50000")
        assert code == 0
        assert roomy == default

    def test_env_budget_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGULANT_MAX_DEGREE", "5")
        code, _, err = run_cli(capsys, "resolve", "ring Q[x,y]/(x^3 - y^7)",
                               "R/(x)", "--length", "3")
        assert code == 3

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGULANT_MAX_DEGREE", "5")
        code, _, _ = run_cli(capsys, "resolve", "ring Q[x,y]/(x^3 - y^7)",
                             "R/(x)", "--length", "2", "--max-degree", "40")
        assert code == 0

    def test_bad_env_value_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SINGULANT_MAX_STEPS", "many")
        code, _, err = run_cli(capsys, "dim", RING_A)
        assert code == 2
        assert "SINGULANT_MAX_STEPS" in err


# -- command goldens -------------------------------------------------------------


class TestCommandOutput:
    def test_dim_depth(self, capsys):
        assert run_cli(capsys, "dim", RING_A)[1].strip() == "1"
        assert run_cli(capsys, "depth", RING_A)[1].strip() == "0"

    def test_height(self, capsys):
        assert run_cli(capsys, "height", RING_B)[1].strip() == "2"

    def test_socle(self, capsys):
        assert run_cli(capsys, "socle", RING_A)[1].strip() == "(x)"

    def test_loewy_nu(self, capsys):
        assert run_cli(capsys, "loewy", RING_A, "--ideal", "(x,y)")[1].strip() == "1"
        assert run_cli(capsys, "nu", RING_A, "--ideal", "(x,y)")[1].strip() == "2"

    def test_equidim(self, capsys):
        assert run_cli(capsys, "equidim", RING_A)[1].strip() == "true"
        assert run_cli(capsys, "equidim", RING_B)[1].strip() == "false"

    def test_minimal_primes(self, capsys):
        _, out, _ = run_cli(capsys, "minimal-primes", RING_B)
        assert "(x, y)  dim 2" in out
        assert "(x, z, w)  dim 1" in out

    def test_isolated(self, capsys):
        assert run_cli(capsys, "isolated", RING_A)[1].strip() == "true"
        _, out, _ = run_cli(capsys, "isolated", RING_B)
        assert out.splitlines()[0] == "unknown"
        assert "witness prime: (x, z, w)" in out

    def test_resolve_ranks(self, capsys):
        _, out, _ = run_cli(capsys, "resolve", RING_A, "R/(x,y)",
                            "--length", "3")
        assert "ranks: 1 2 3 5" in out
        assert "minimal: true" in out

    def test_ext_dimension(self, capsys):
        _, out, _ = run_cli(capsys, "ext", RING_A, "k", "k", "--degree", "2")
        assert "k-dimension 3" in out

    def test_resolve_of_two_socle_relations(self, capsys):
        # over (x^2, y^2) the relations of coker [[x],[y]] are
        # ann(x) cap ann(y) = (x) cap (y) = (xy), the socle; ann(xy) = m
        _, out, _ = run_cli(capsys, "resolve", "Q[x,y]/(x^2,y^2)", "[[x],[y]]",
                            "--length", "3")
        assert "ranks: 2 1 1 2" in out
        assert "d_2:\n  [x*y]\nd_3:\n  [x, y]" in out

    def test_resolve_modulo_a_zero_divisor(self, capsys):
        # x is a zero-divisor: x(xy - z^2) = y(x^2 - yz) + z(y^2 - xz) lies in
        # the defining ideal while xy - z^2 does not, so pd R/(x) is not 1
        _, out, _ = run_cli(capsys, "resolve", "Q[x,y,z]/(x^2-y*z, y^2-x*z)",
                            "R/(x)", "--length", "2")
        assert "ranks: 1 1 1" in out
        assert "d_2:\n  [x*y - z^2]" in out
        assert "projective dimension: 1" not in out

    def test_ext_of_two_socle_relations(self, capsys):
        _, out, _ = run_cli(capsys, "ext", "Q[x,y]/(x^2,y^2)", "[[x],[y]]", "k",
                            "--degree", "2")
        assert "k-dimension 1" in out

    def test_ext_ann(self, capsys):
        _, out, _ = run_cli(capsys, "ext-ann", RING_A, "R/(x,y)", "k",
                            "--element", "y", "--degree", "2")
        assert out.strip() == "true"

    def test_koszul(self, capsys):
        _, out, _ = run_cli(capsys, "koszul", RING_A, "R",
                            "--sequence", "(x)", "--degree", "1")
        assert "rank 1" in out

    @pytest.mark.parametrize("sequence, degree", [("(0)", 1), ("(0, x)", 2)])
    def test_koszul_keeps_zeros_in_the_sequence(self, capsys, sequence, degree):
        # H^1(0; R) = R, and H^2(0, x; R) = H^1(x; R) = R/(x)
        code, out, err = run_cli(capsys, "koszul", "Q[x,y]", "R", "--sequence", sequence,
                                 "--degree", str(degree), "--json")
        assert code == 0, err
        result = json.loads(out)["result"]
        assert (result["rank"], result["relations"]) == (1, degree - 1)

    def test_stable_ann(self, capsys):
        _, out, _ = run_cli(capsys, "stable-ann", RING_A, "k",
                            "--element", "x")
        assert out.strip() == "true"

    # over the zero ring Q[x]/(x, 1) every module is zero
    def test_depth_over_the_zero_ring_is_undefined(self, capsys):
        code, out, err = run_cli(capsys, "depth", "Q[x]/(x,1)")
        assert code == 1 and out == ""
        assert "depth of the zero module is undefined" in err

    def test_ext_over_the_zero_ring_is_zero(self, capsys):
        _, out, _ = run_cli(capsys, "ext", "Q[x]/(x,1)", "k", "k", "--degree", "0")
        assert out.strip() == "Ext^0: presentation rank 0, 0 relations, k-dimension 0"

    def test_koszul_over_the_zero_ring_is_zero(self, capsys):
        _, out, _ = run_cli(capsys, "koszul", "Q[x]/(x,1)", "R", "--sequence", "(x)")
        assert out.strip() == "H^0: zero"

    def test_stable_ann_over_the_zero_ring_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "stable-ann", "Q[x]/(x,1)", "k", "--element", "x")
        assert code == 1 and out == ""
        assert "the zero module has no stable identity" in err

    def test_resolve_over_the_zero_ring_has_rank_zero(self, capsys):
        _, out, _ = run_cli(capsys, "resolve", "Q[x]/(x,1)", "k")
        assert "ranks: 0\n" in out

    def test_bound_golden(self, capsys):
        code, out, _ = run_cli(capsys, "bound", RING_A, "--ideal", "(x,y)")
        assert code == 0
        assert "generation_time = 3" in out
        assert "dim_sg_bound = 2" in out

    def test_report_echoes_seed(self, capsys, monkeypatch):
        _, out, _ = run_cli(capsys, "report", RING_A, "--seed", "7")
        assert json.loads(out)["ann_bounds"]["seed"] == 7
        monkeypatch.setenv("SINGULANT_SEED", "5")
        _, out, _ = run_cli(capsys, "report", RING_A)
        assert json.loads(out)["ann_bounds"]["seed"] == 5

    def test_report_byte_identical(self, capsys):
        first = run_cli(capsys, "report", RING_A)[1]
        second = run_cli(capsys, "report", RING_A)[1]
        assert first == second

    def test_verify_paper_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 0
        assert "[PASS" in out and "[FAIL" not in out


# -- JSON conformance -------------------------------------------------------------


class TestJsonOutput:
    CASES = [
        ("jac", RING_A, "--json"),
        ("dim", RING_A, "--json"),
        ("height", RING_B, "--json"),
        ("depth", RING_A, "--json"),
        ("socle", RING_A, "--json"),
        ("loewy", RING_A, "--ideal", "(x,y)", "--json"),
        ("nu", RING_A, "--ideal", "(x,y)", "--json"),
        ("equidim", RING_B, "--json"),
        ("minimal-primes", RING_B, "--json"),
        ("isolated", RING_B, "--json"),
        ("resolve", RING_A, "R/(x,y)", "--length", "3", "--json"),
        ("ext", RING_A, "k", "k", "--degree", "2", "--json"),
        ("ext-ann", RING_A, "R/(x,y)", "k", "--element", "y",
         "--degree", "2", "--json"),
        ("koszul", RING_A, "R", "--sequence", "(x)", "--degree", "0",
         "--json"),
        ("stable-ann", RING_A, "k", "--element", "x", "--json"),
        ("bound", RING_A, "--ideal", "(x,y)", "--json"),
        ("report", RING_A),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[0])
    def test_output_validates_against_schema(self, capsys, schema, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        jsonschema.validate(json.loads(out), schema)

    def test_resolve_serializes_matrices(self, capsys):
        _, out, _ = run_cli(capsys, "resolve", RING_A, "R/(x,y)",
                            "--length", "2", "--json")
        doc = json.loads(out)
        result = doc["result"]
        assert result["ranks"] == [1, 2, 3]
        assert result["minimal"] is True
        d1 = result["differentials"][0]
        # d_1 = [x  y]: one row, entries as coefficient/exponent-list pairs
        assert d1 == [[[["1", [1, 0]]], [["1", [0, 1]]]]]

    def test_module_entrypoint_runs(self):
        out = subprocess.run(
            [sys.executable, "-m", "singulant.cli", "jac", RING_A],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "(x, y)"

    def test_package_entrypoint_runs_without_warning(self):
        out = subprocess.run(
            [sys.executable, "-m", "singulant", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "report" in out.stdout
        assert "RuntimeWarning" not in out.stderr

    def test_calls_in_one_process_match_fresh_interpreters(self, capsys, monkeypatch):
        """main builds its parser once per process: successive calls with
        other subcommands, --help and argument errors print what a fresh
        interpreter prints for each."""
        monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal
        runs = [("dim", RING_A), ("resolve", RING_A, "k", "--length", "2", "--json"),
                ("--help",), ("ext", "--help"), ("dim",), ("jac", "Q[x"),
                ("jac", RING_B)]
        for argv in runs:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "singulant", *argv],
                                   capture_output=True, text=True)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# -- declarations ------------------------------------------------------------------

# every subcommand, in --help order: its positional arguments and its own
# option flags with their defaults; the flags shared by all come first
COMMON_FLAGS = {"--json": False, "--max-degree": None, "--max-steps": None,
                "--seed": None, "--order": "grevlex"}
DECLARATIONS = {
    "jac": (["ring"], {}),
    "dim": (["ring"], {}),
    "height": (["ring"], {"--ideal": None}),
    "depth": (["ring"], {}),
    "socle": (["ring"], {}),
    "loewy": (["ring"], {"--ideal": None}),
    "nu": (["ring"], {"--ideal": None}),
    "equidim": (["ring"], {}),
    "minimal-primes": (["ring"], {}),
    "isolated": (["ring"], {}),
    "resolve": (["ring", "module"], {"--length": 4}),
    "ext": (["ring", "module", "target"], {"--degree": 1}),
    "ext-ann": (["ring", "module", "target"], {"--element": None, "--degree": 2}),
    "koszul": (["ring", "module"], {"--sequence": None, "--degree": 0}),
    "stable-ann": (["ring", "module"], {"--element": None}),
    "bound": (["ring"], {"--ideal": None, "--assume-annihilates": False}),
    "report": (["ring"], {"--ideal": None, "--assume-annihilates": False}),
    "verify-paper": ([], {"--field": "Q"}),
}


def test_subcommands_match_the_declaration_table():
    top = _build_argparser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(DECLARATIONS)
    for name, (positionals, flags) in DECLARATIONS.items():
        actions = [a for a in sub.choices[name]._actions if a.dest != "help"]
        assert [a.dest for a in actions if not a.option_strings] == positionals, name
        got = [(a.option_strings[-1], a.default) for a in actions if a.option_strings]
        assert got == list({**COMMON_FLAGS, **flags}.items()), name


# -- byte-identical resolve snapshots -------------------------------------------

# Each file in tests/data is `singulant resolve RING MODULE --length 4 --json`,
# written by the code it guards.  A resolution stores its differentials as
# columns; the row-major matrices printed here are a view of them, so a
# change meant to keep behaviour must keep these bytes.
RESOLVE_SNAPSHOT_RINGS = {
    "A": "Q[x,y]/(x^2, x*y)",
    "x2y2": "Q[x,y]/(x^2, y^2)",
    "cubic": "Q[x,y,z]/(x^3 + y^3 + z^3)",
    "cusp": "Q[x,y]/(x^3 - y^2)",
}
RESOLVE_SNAPSHOT_MODULES = {"k": "k", "matrix": "[[2*x,3*y,0],[0,5*x,7*y]]"}


@pytest.mark.parametrize("module", sorted(RESOLVE_SNAPSHOT_MODULES))
@pytest.mark.parametrize("ring", sorted(RESOLVE_SNAPSHOT_RINGS))
def test_resolve_matches_snapshot(capsys, ring, module):
    path = Path(__file__).parent / "data" / f"resolve_{ring}_{module}.json"
    code, out, _ = run_cli(capsys, "resolve", RESOLVE_SNAPSHOT_RINGS[ring],
                           RESOLVE_SNAPSHOT_MODULES[module], "--length", "4", "--json")
    assert code == 0
    assert out.encode("utf-8") == path.read_bytes()


# x + 1 is a unit wherever x is nilpotent, so R/(x+1) is the zero module
@pytest.mark.parametrize("ring", ["Q[x,y]/(x^2)", RING_A, RING_B, "Q[x,y]/(x^2, y^2)"])
def test_a_module_killed_by_a_unit_that_is_not_constant_is_zero(capsys, ring):
    assert run_cli(capsys, "resolve", ring, "R/(x+1)") == (
        0, "ranks: 0\nminimal: true\nprojective dimension: 0\n", "")
    assert run_cli(capsys, "stable-ann", ring, "R/(x+1)", "--element", "x") == (
        1, "", "error: the zero module has no stable identity\n")


def test_a_unit_of_the_ring_kills_only_where_it_is_a_unit(capsys):
    """Over Q[x,y]/(x*y - 1), x is a unit but x - 1 is not."""
    ring = "Q[x,y]/(x*y - 1)"
    assert run_cli(capsys, "resolve", ring, "R/(x)")[1].startswith("ranks: 0\n")
    assert run_cli(capsys, "resolve", ring, "R/(x-1)")[1].startswith("ranks: 1 1\n")
