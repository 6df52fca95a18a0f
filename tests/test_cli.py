"""End-to-end command-line behavior, including exit codes and JSON output."""
import ast
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fischerlab import cli, fischer, groups, matsuo
from fischerlab.fischer import IrregularComponentError, UnexpectedSubgroupError
from fischerlab.groups import GroupError, StructuralError
from fischerlab.matsuo import DegenerateAlphaError, VerificationError


FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "analyze_golden.json").read_text())
COMMANDS = json.loads((FIXTURES / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCatalog:
    def test_list_text(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "symmetric" in out and "weyl" in out

    def test_list_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--json")
        rows = json.loads(out)
        assert code == 0
        assert {"family", "params", "example"} <= set(rows[0])
        assert len(rows) == 5


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "symmetric:n=4")
        assert code == 0
        assert "group order       24" in out
        assert "symplectic type" in out
        assert "axioms          pass" in out
        assert re.search(
            r"timing +graph [0-9.]+s, group [0-9.]+s, algebra [0-9.]+s, total [0-9.]+s",
            out,
        )

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "symmetric:n=4", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["group_order"] == 24
        assert payload["class_size"] == 6
        assert payload["components"] == [{"size": 6, "valency": 4}]
        assert payload["matsuo"]["alpha"] == "1/2"
        assert payload["matsuo"]["radical_dimension"] == 0
        assert payload["matsuo"]["spectra"]["verdict"] == "pass"
        assert "timing" not in out

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "symmetric:n=3", "--json", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["group_order"] == 6

    def test_custom_parameters(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "symmetric:n=4",
            "--alpha", "2/5", "--beta", "4/5", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["matsuo"]["alpha"] == "2/5"
        assert payload["matsuo"]["beta"] == "4/5"

    def test_degenerate_alpha_spectra_not_run(self, capsys):
        code, out, _ = run(capsys, "analyze", "symmetric:n=3", "--alpha", "2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["matsuo"]["spectra"]["verdict"] == "not-run"
        assert payload["matsuo"]["spectra"]["reason"] == "degenerate-alpha"

    def test_unity_not_run_when_k_alpha_plus_4_vanishes(self, capsys):
        # S4 has valency k = 4, so alpha = -1 leaves no unity to solve for.
        code, out, _ = run(capsys, "analyze", "symmetric:n=4", "--alpha=-1", "--json")
        assert code == 0
        assert json.loads(out)["matsuo"]["unity"][0] == {
            "coefficient": None, "component": 0, "exists": False,
            "reason": "k*alpha+4 = 0", "verdict": "not-run",
        }
        code, out, _ = run(capsys, "analyze", "symmetric:n=4", "--alpha=-1")
        assert code == 0
        assert "  unity[0]        none (k*alpha+4=0) [not-run]\n" in out

    def test_exports(self, capsys, tmp_path):
        dot = tmp_path / "graph.dot"
        gram = tmp_path / "gram.csv"
        code, _, _ = run(
            capsys, "analyze", "symmetric:n=3",
            "--dot", str(dot), "--gram", str(gram),
        )
        assert code == 0
        assert dot.read_text().startswith("graph fischer {")
        assert gram.read_text().splitlines()[0].count(",") == 2

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "unitary:n=4")
        assert code == 2
        assert "unknown family" in err

    def test_axis_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "symmetric:n=6", "--max-axes", "10")
        assert code == 3
        assert re.fullmatch(
            r"error: closure exceeded cap 10 \(reached \d+ elements\)\n", err
        )

    def test_no_order_cap_by_default(self, capsys):
        code, out, _ = run(capsys, "analyze", "weyl:type=E,rank=7", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["group_order"] == 2_903_040
        assert payload["center_order"] == 2

    def test_order_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "symmetric:n=6", "--max-order", "100")
        assert code == 3
        assert "group order 720 exceeds the order cap 100" in err

    def test_order_cap_checked_before_graph(self, capsys, monkeypatch):
        def no_graph(*args, **kwargs):
            raise AssertionError("build_system ran before the order cap")

        monkeypatch.setattr(fischer, "build_system", no_graph)
        code, _, err = run(capsys, "analyze", "symmetric:n=6", "--max-order", "100")
        assert code == 3
        assert "group order 720 exceeds the order cap 100" in err

    @pytest.mark.parametrize("flag", ["--max-order", "--max-axes"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_cap_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "analyze", "symmetric:n=4", f"{flag}={value}")
        assert (code, out, err) == (2, "", f"error: {flag} must be >= 1\n")

    def test_duplicate_parameter_is_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", "symmetric:n=4,n=5", "--json")
        assert (code, out) == (2, "")
        assert err == "error: duplicate parameter 'n' in 'symmetric:n=4,n=5'\n"

    def test_bad_sign_names_the_sign_parameter(self, capsys):
        code, out, err = run(capsys, "analyze", "orthogonal-f3:dim=3,sign=x")
        assert (code, out) == (2, "")
        assert err == (
            "error: bad parameter 'sign' in 'orthogonal-f3:dim=3,sign=x': "
            "must be '+', '-', '1' or '2', got 'x'\n"
        )

    def test_symplectic_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "symmetric:n=5", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["group_order"] == 120
        assert payload["center_order"] == 1
        assert payload["class_size"] == 10
        assert payload["connected"] is True
        assert payload["components"] == [{"size": 10, "valency": 6}]
        assert payload["h_triple"]["witness"] is None
        assert payload["h_triple"]["type_verdict"] == "symplectic"

    def test_h_witness_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "orthogonal-f3:dim=5", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["h_triple"]["subgroup_order"] == 54
        assert "non-symplectic" in payload["h_triple"]["type_verdict"]

    @pytest.mark.parametrize("flag", ["--json", "--dot", "--gram"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, flag):
        target = tmp_path / "missing" / "out.txt"
        code, _, err = run(capsys, "analyze", "symmetric:n=3", flag, str(target))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_huge_alpha_denominator(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "symmetric:n=4", "--alpha", "3/1000000000000000000000",
            "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["matsuo"]["alpha"] == "3/1000000000000000000000"
        assert payload["matsuo"]["axioms"]["verdict"] == "pass"

    def test_threads_flag_accepted(self, capsys):
        baseline = run(capsys, "analyze", "symmetric:n=4", "--json")
        threaded = run(capsys, "analyze", "symmetric:n=4", "--threads", "4", "--json")
        assert baseline == threaded

    def test_repeat_runs_identical(self, capsys):
        first = run(capsys, "analyze", "symmetric:n=5", "--json")
        second = run(capsys, "analyze", "symmetric:n=5", "--json")
        assert first == second


    def test_failed_spectra_and_unity_still_emit_json(self, capsys, monkeypatch):
        # ad(x^0) gains a unit at x^3 in every column, so the unity identity,
        # the eigen-equations of axis 0 and hence its Miyamoto map all fail.
        _, passing, _ = run(capsys, "analyze", "symmetric:n=4", "--json")
        real = matsuo.MatsuoAlgebra._ad

        def corrupt(self, j, vectors):
            out = real(self, j, vectors)
            if j == 0:
                out[3] += 1
            return out

        monkeypatch.setattr(matsuo.MatsuoAlgebra, "_ad", corrupt)
        code, out, err = run(capsys, "analyze", "symmetric:n=4", "--json")
        assert code == 1
        assert err == ""
        eigen = "eigen-equation failed for eigenvalue 2 at axis 0, column 0 (coordinate x^3)"
        expected = json.loads(passing)
        expected["matsuo"]["unity"] = [{
            "component": 0, "exists": True, "coefficient": None, "verdict": "fail",
            "reason": "omega x^0 != 2 x^0 on the component of axis 0 "
                      "(coordinate x^3)",
        }]
        expected["matsuo"]["spectra"] = {
            "per_component": [], "verdict": "fail", "reason": eigen,
        }
        expected["matsuo"]["miyamoto"] = {"verdict": "fail", "reason": eigen}
        assert json.loads(out) == expected

    @pytest.mark.parametrize("check, error, alpha, section", [
        ("verify_axioms", VerificationError("witness"), "1/2", "axioms"),
        ("quotient", VerificationError("witness"), "1/2", "quotient"),
        ("miyamoto", VerificationError("witness"), "1/2", "miyamoto"),
        ("unity", VerificationError("witness"), "1/2", "unity"),
        ("verify_spectra", VerificationError("witness"), "1/2", "spectra"),
        ("verify_spectra", DegenerateAlphaError(Fraction(2)), "2", "spectra"),
    ], ids=["axioms", "quotient", "miyamoto", "unity", "spectra", "spectra-degenerate"])
    def test_failed_check_sets_its_section_alone(self, capsys, monkeypatch, check, error,
                                                 alpha, section):
        # A MatsuoError from one check is that section's verdict, with the
        # witness as its reason; a DegenerateAlphaError, which verify_spectra
        # raises at alpha = 2, leaves the section not run.
        argv = ("analyze", "symmetric:n=4", f"--alpha={alpha}", "--json")
        _, passing, _ = run(capsys, *argv)

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(matsuo.MatsuoAlgebra, check, fail)
        code, out, err = run(capsys, *argv)
        expected = json.loads(passing)
        m = expected["matsuo"]
        if isinstance(error, DegenerateAlphaError):
            verdict = {"verdict": "not-run", "reason": "degenerate-alpha"}
        else:
            verdict = {"verdict": "fail", "reason": "witness"}
        if section == "unity":
            m["unity"] = [{**u, "coefficient": None, **verdict} for u in m["unity"]]
        elif section == "spectra":
            m["spectra"] = {"per_component": [], **verdict}
        else:
            m[section] = verdict
        if section == "quotient":
            m["quotient_dimension"] = None
        assert (code, err) == (1 if verdict["verdict"] == "fail" else 0, "")
        assert json.loads(out) == expected

    def test_quotient_fails_with_the_axioms(self, capsys, monkeypatch, with_conj_entry):
        # The S4 table of test_matsuo's TestWitnesses::test_axioms, handed to
        # the algebra phase alone: conj[3][4] = 2 breaks commutativity, so
        # nothing shows that the radical (0 on the intact table) is an ideal.
        real = matsuo.MatsuoAlgebra

        def corrupt(system, alpha, beta):
            return real(with_conj_entry(system, 3, 4, 2), alpha, beta)

        monkeypatch.setattr(matsuo, "MatsuoAlgebra", corrupt)
        code, out, err = run(capsys, "analyze", "symmetric:n=4", "--json")
        assert (code, err) == (1, "")
        m = json.loads(out)["matsuo"]
        witness = "product is not commutative at pair (3,4)"
        assert m["axioms"] == {"verdict": "fail", "reason": witness}
        assert m["quotient_dimension"] is None
        assert m["quotient"] == {
            "verdict": "fail",
            "reason": f"radical is not known to be an ideal: {witness}",
        }

    @pytest.mark.parametrize("owner, name, error, descriptor, message", [
        pytest.param(
            groups, "group_order", StructuralError("degree mismatch: 4 vs 5"),
            "symmetric:n=4", "degree mismatch: 4 vs 5", id="StructuralError"),
        pytest.param(
            fischer, "valency", IrregularComponentError(
                "non-constant valency in the component of #0: #0 has 4 neighbors, "
                "#1 has 3"), "symmetric:n=4",
            "non-constant valency in the component of #0: #0 has 4 neighbors, #1 has 3",
            id="IrregularComponentError"),
        pytest.param(
            fischer, "extract_H", UnexpectedSubgroupError((0, 1, 3), 18, None),
            "orthogonal-f3:dim=5",
            "triple (0, 1, 3) generates a group of order 18, expected 54",
            id="UnexpectedSubgroupError"),
        pytest.param(
            fischer, "components", GroupError(
                "component of #0 does not match its conjugacy class"), "symmetric:n=4",
            "component of #0 does not match its conjugacy class", id="GroupError"),
    ])
    def test_internal_error_exit_code(self, capsys, monkeypatch, owner, name, error,
                                      descriptor, message):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(owner, name, fail)
        code, out, err = run(capsys, "analyze", descriptor, "--json")
        assert code == 4
        assert out == ""
        assert err == f"error: {message}\n"

    def test_class_action_order_must_divide_the_group_order(self, capsys, monkeypatch):
        # |Z(G)| = |G| / |G acting on D| is taken only when the division is
        # exact: S4 has |G| = 24, and an action order of 5 is rejected.
        monkeypatch.setattr(fischer.TranspositionSystem, "class_action_order", lambda self: 5)
        code, out, err = run(capsys, "analyze", "symmetric:n=4", "--json")
        assert (code, out) == (4, "")
        assert err == "error: |G acting on D| = 5 does not divide |G| = 24\n"


class TestGoldenReports:
    """Frozen ``analyze --json`` reports of the largest catalog classes (E6 to
    E8, Sp6(2), and O8-(2) with its radical of dimension 51), also at
    alpha = beta = 1 where E6 and E8 have radicals; stdout and exit code
    must match byte for byte."""

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_analyze_matches_golden(self, capsys, command):
        code, out, _ = run(capsys, *command.split())
        assert (code, out) == (GOLDEN[command]["exit_code"], GOLDEN[command]["stdout"])


class TestGoldenCommands:
    """Frozen stdout, stderr and exit code of the text and JSON outputs of
    ``catalog list``, ``fusion`` and ``sakuma``, and of every descriptor error
    of ``analyze``: missing, non-integer, duplicate, leftover and
    out-of-range parameters, an unknown family and bad F3 forms and signs."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_matches_golden(self, capsys, command):
        expected = COMMANDS[command]
        assert run(capsys, *command.split()) == (
            expected["exit_code"], expected["stdout"], expected["stderr"]
        )


class TestFusion:
    def test_pair_query(self, capsys):
        code, out, _ = run(
            capsys, "fusion", "--m", "1", "--left", "1,2", "--right", "1,2", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        labels = [(row["r"], row["s"]) for row in payload["product"]]
        assert labels == [(1, 1), (1, 3)]

    def test_grid_with_membership(self, capsys):
        code, out, _ = run(
            capsys, "fusion", "--m", "2", "--grid", "--contains", "7/10", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["central_charge"] == "7/10"
        assert payload["contains"]["present"] is False
        assert len(payload["labels"]) == 6

    def test_sector(self, capsys):
        code, out, _ = run(capsys, "fusion", "--m", "1", "--sector", "--json")
        payload = json.loads(out)
        assert code == 0
        assert [(row["r"], row["s"]) for row in payload["sector"]] == [(1, 1), (1, 3)]
        assert [row["sigma_sign"] for row in payload["sector"]] == [1, -1]

    def test_out_of_range_label(self, capsys):
        code, _, err = run(
            capsys, "fusion", "--m", "1", "--left", "9,9", "--right", "1,1"
        )
        assert code == 2
        assert "out of range" in err

    def test_missing_operand(self, capsys):
        code, _, _ = run(capsys, "fusion", "--m", "2", "--left", "1,1")
        assert code == 2

    def test_malformed_label(self, capsys):
        code, _, _ = run(capsys, "fusion", "--m", "2", "--left", "11", "--right", "1,1")
        assert code == 2

    def test_non_integer_label(self, capsys):
        code, out, err = run(capsys, "fusion", "--m", "3", "--left", "a,b", "--right", "1,1")
        assert (code, out) == (2, "")
        assert err.endswith("label must be integers 'r,s', got 'a,b'\n")

    @pytest.mark.parametrize("argv, message", [
        (("--sector", "--contains", "1/2"), "--contains needs --grid"),
        (("--grid", "--left", "1,1", "--right", "1,2"), "--left cannot be combined with --grid"),
        (("--grid", "--sector"), "--sector cannot be combined with --grid"),
    ], ids=["sector-contains", "grid-left", "grid-sector"])
    def test_dropped_flag_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "fusion", "--m", "2", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSakuma:
    def test_tag_lookup(self, capsys):
        code, out, _ = run(capsys, "sakuma", "3A", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload == [
            {
                "type": "3A",
                "max_tau_order": 3,
                "inner_product": "13/1024",
                "inner_product_times_1024": 13,
                "griess_dim": 4,
                "ising_count": 3,
                "miyamoto_kind": "tau",
            }
        ]

    def test_inner_lookup_ambiguous(self, capsys):
        code, out, _ = run(capsys, "sakuma", "--inner", "1/256", "--json")
        payload = json.loads(out)
        assert code == 0
        assert [row["type"] for row in payload] == ["4B", "3C"]
        assert all(row["ambiguous"] for row in payload)

    def test_unknown_tag(self, capsys):
        code, _, err = run(capsys, "sakuma", "9Z")
        assert code == 2
        assert "unknown" in err

    def test_requires_one_mode(self, capsys):
        assert run(capsys, "sakuma")[0] == 2
        assert run(capsys, "sakuma", "2A", "--inner", "1/32")[0] == 2


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "list", "--json"],
            ["analyze", "symmetric:n=4", "--json"],
            ["fusion", "--m", "2", "--grid", "--json"],
            ["sakuma", "--inner", "1/256", "--json"],
        ],
    )
    def test_reserialization_is_byte_identical(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


class TestReportSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "symmetric:n=5", "--json"],
            ["analyze", "orthogonal-f3:dim=3", "--json"],
            ["analyze", "symmetric:n=4", "--alpha", "0", "--json"],
        ],
    )
    def test_report_validates(self, capsys, argv):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        schema = json.loads(
            (Path(__file__).parent.parent / "docs" / "report.schema.json").read_text()
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unreported_error_is_raised(self, capsys, monkeypatch):
        # An error no layer reports is a bug, not an exit code: main lets it
        # through and prints no error line.
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_sakuma", fail)
        with pytest.raises(RuntimeError, match=r"^boom$"):
            cli.main(["sakuma", "3A"])
        assert capsys.readouterr() == ("", "")

    def test_negative_rationals_with_equals(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "symmetric:n=4", "--alpha=-2/3", "--beta=-1/5",
            "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["matsuo"]["alpha"] == "-2/3"
        assert payload["matsuo"]["beta"] == "-1/5"

    @pytest.mark.parametrize("argv, option", [
        (("analyze", "symmetric:n=4", "--alpha", "-2/3"), "--alpha"),
        (("fusion", "--m", "3", "--grid", "--contains", "-1/5"), "--contains"),
    ])
    def test_negative_rational_without_equals_says_how(self, capsys, argv, option):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"argument {option}: expected one argument" in err
        assert f"{option}=-p/q" in err

    def test_bad_rational(self, capsys):
        code, _, _ = run(capsys, "analyze", "symmetric:n=3", "--alpha", "x/y")
        assert code == 2

    @pytest.mark.parametrize("argv, code", [
        ("catalog list --json", 0),
        ("analyze unitary:n=4", 2),
        ("analyze symmetric:n=10 --max-order 100000", 3),
        ("no-such-command", 2),
    ])
    def test_console_entry_point_exits_with_main_code(
        self, capsys, monkeypatch, argv, code
    ):
        # The installed ``fischerlab`` script calls cli.run, which hands
        # main's return code to SystemExit.
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert 'fischerlab = "fischerlab.cli:run"' in pyproject
        expected = run(capsys, *argv.split())
        monkeypatch.setattr(sys, "argv", ["fischerlab", *argv.split()])
        with pytest.raises(SystemExit) as info:
            cli.run()
        assert info.value.code == code
        assert (info.value.code, *capsys.readouterr()) == expected

    def test_source_imports_only_the_standard_library(self):
        # The README promises no runtime dependency beyond the standard
        # library: every absolute import of the package names a standard
        # module or the package itself.
        src = Path(__file__).parents[1] / "src" / "fischerlab"
        allowed = sys.stdlib_module_names | {"fischerlab"}
        outside = set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                outside.update(
                    (path.name, name) for name in names
                    if name.partition(".")[0] not in allowed
                )
        assert len(list(src.glob("*.py"))) >= 7
        assert outside == set()
