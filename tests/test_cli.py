"""Command-line interface tests: pinned output, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from heckeseries import cli
from heckeseries.algebra import XPoly
from heckeseries.cli import LAMBDA_PART_BOUND, run
from heckeseries.errors import NonVanishingTail
from heckeseries.series import SERIES_ORDER_BOUND
from heckeseries.spherical import omega_hl


ROOT = Path(__file__).resolve().parent.parent
#: text and JSON references of the benchmark's genus-3 job (read only here)
REFERENCE_DIR = ROOT / "perfbench" / "reference" / "genus3-cli"
#: LaTeX references of the genus-3 commands, captured before HeckeExpr ran on
#: the XPoly kernel, and all references of the GOLDEN_COMMANDS, captured while
#: Laurent coefficients were still dicts of Fraction
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GENUS3_COMMANDS = (["numerator", "--genus", "3"], ["theorem1"], ["theorem2"], ["special"])
#: reference name -> argv of commands whose output has rational coefficients
GOLDEN_COMMANDS = {
    "table": ["table"],
    "images": ["images"],
    "omega-421-p3": ["omega", "--lambda", "4,2,1", "--prime", "3"],
    "omega-310-p2-oracle": ["omega", "--lambda", "3,1,0", "--prime", "2", "--oracle"],
}


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestOmegaCommand:
    def test_pinned_example(self, capsys):
        code, out = invoke(capsys, ["omega", "--lambda", "2,1,0"])
        assert code == 0
        assert out == "(2*p^2-p-1)/p^6 * sym[1,1,1] + 1/p^4 * sym[2,1,0]\n"

    def test_trivial_signature(self, capsys):
        code, out = invoke(capsys, ["omega", "--lambda", "0,0,0"])
        assert code == 0
        assert out == "1\n"

    def test_lambda_order_is_irrelevant(self, capsys):
        _, a = invoke(capsys, ["omega", "--lambda", "2,1,0"])
        _, b = invoke(capsys, ["omega", "--lambda", "0,1,2"])
        assert a == b

    def test_determinism(self, capsys):
        runs = [invoke(capsys, ["omega", "--lambda", "3,2,0"])[1] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_json_round_trip(self, capsys):
        code, out = invoke(
            capsys, ["--format", "json", "omega", "--lambda", "2,1,0"]
        )
        assert code == 0
        assert XPoly.from_json(json.loads(out)) == omega_hl((2, 1, 0), 3)

    def test_oracle_matches_specialization(self, capsys):
        _, oracle = invoke(
            capsys,
            ["--format", "json", "omega", "--lambda", "2,1,0", "--prime", "3", "--oracle"],
        )
        _, closed = invoke(
            capsys, ["--format", "json", "omega", "--lambda", "2,1,0", "--prime", "3"]
        )
        assert XPoly.from_json(json.loads(oracle)) == XPoly.from_json(json.loads(closed))

    def test_oracle_requires_prime(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["omega", "--lambda", "1,0,0", "--oracle"])
        assert exc.value.code == 2

    def test_bad_lambda_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["omega", "--lambda", "1,0"])
        assert exc.value.code == 2

    def test_lambda_part_bound(self, capsys):
        assert LAMBDA_PART_BOUND >= SERIES_ORDER_BOUND
        top = LAMBDA_PART_BOUND
        code, out = invoke(capsys, ["omega", "--lambda", f"{top},{top},{top}"])
        assert code == 0
        assert out == f"1/p^{6 * top} * sym[{top},{top},{top}]\n"
        with pytest.raises(SystemExit) as exc:
            run(["omega", "--lambda", f"{LAMBDA_PART_BOUND + 1},0,0"])
        assert exc.value.code == 2
        assert "lambda" in capsys.readouterr().err

    def test_prime_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["omega", "--lambda", "2,1,0", "--prime", "0"])
        assert exc.value.code == 2
        assert "--prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--prime", "4", "--oracle"], ["--prime", "1", "--oracle"], ["--prime", "-3"]]
    )
    def test_non_prime_rejected(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["omega", "--lambda", "1,0,0", *extra])
        assert exc.value.code == 2
        assert "--prime" in capsys.readouterr().err

    def test_largest_prime_accepted(self, capsys):
        code, out = invoke(capsys, ["omega", "--lambda", "0,0,0", "--prime", "999983"])
        assert code == 0
        assert out == "1\n"

    def test_enumeration_too_large_is_usage_error(self, capsys):
        code = run(["omega", "--lambda", "9,0,0", "--prime", "7", "--oracle"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("heckeseries: error: ")
        assert captured.err.count("\n") == 1


class TestGoldenOutput:
    """The genus-3 results, byte for byte, in every output format."""

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    @pytest.mark.parametrize(
        "name, argv",
        [pytest.param(argv[0], argv, id=argv[0]) for argv in GENUS3_COMMANDS]
        + [pytest.param(name, argv, id=name) for name, argv in GOLDEN_COMMANDS.items()],
    )
    def test_matches_reference(self, name, argv, fmt, tmp_path):
        path = tmp_path / f"{name}.{fmt}"
        assert run(["--format", fmt, "--out", str(path)] + argv) == 0
        genus3_text = name not in GOLDEN_COMMANDS and fmt != "latex"
        reference = (REFERENCE_DIR if genus3_text else GOLDEN_DIR) / path.name
        assert path.read_bytes() == reference.read_bytes()


class TestOtherCommands:
    def test_table_has_28_rows(self, capsys):
        code, out = invoke(capsys, ["table"])
        assert code == 0
        assert len(out.rstrip("\n").split("\n")) == 28

    def test_images(self, capsys):
        code, out = invoke(capsys, ["images"])
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 5
        assert lines[0] == "Omega(T(p)) = x0 * (1 + sym[1,0,0] + sym[1,1,0] + sym[1,1,1])"

    def test_series_genus1(self, capsys):
        code, out = invoke(capsys, ["series", "--genus", "1", "--order", "2"])
        assert code == 0
        assert out.startswith("v^0: 1\n")

    @pytest.mark.parametrize("order", ["-1", str(SERIES_ORDER_BOUND + 1), "many"])
    def test_series_order_out_of_range_rejected(self, order, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["series", "--order", order])
        assert exc.value.code == 2
        assert "order" in capsys.readouterr().err

    def test_series_order_zero(self, capsys):
        code, out = invoke(capsys, ["series", "--genus", "2", "--order", "0"])
        assert code == 0
        assert out == "v^0: 1\n"

    def test_numerator_genus2(self, capsys):
        code, out = invoke(capsys, ["numerator", "--genus", "2"])
        assert code == 0
        assert "v^2:" in out

    def test_latex_format(self, capsys):
        code, out = invoke(capsys, ["--format", "latex", "omega", "--lambda", "1,1,0"])
        assert code == 0
        assert "\\mathit{sym}_{1,1,0}" in out


class TestPlumbing:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["omega", "--lambda", "1,0,0", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["transmogrify"])
        assert exc.value.code == 2

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code = run(["--out", str(tmp_path / "missing" / "x"), "images"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("heckeseries: error: ")
        assert captured.err.count("\n") == 1

    def test_internal_failure_is_verification_failure(self, capsys, monkeypatch):
        def fail():
            raise NonVanishingTail("coefficient of v^7 is nonzero")

        monkeypatch.setattr(cli, "p3_in_generators", fail)
        code = run(["theorem1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "heckeseries: error: coefficient of v^7 is nonzero\n"

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "omega.txt"
        code = run(["--out", str(path), "omega", "--lambda", "0,0,0"])
        assert code == 0
        assert path.read_text() == "1\n"
        assert capsys.readouterr().out == ""
