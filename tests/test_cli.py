"""Command-line interface tests: pinned output, determinism, exit codes."""

import json

import pytest

from heckeseries.algebra import XPoly
from heckeseries.cli import run
from heckeseries.series import SERIES_ORDER_BOUND
from heckeseries.spherical import omega_hl


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

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "omega.txt"
        code = run(["--out", str(path), "omega", "--lambda", "0,0,0"])
        assert code == 0
        assert path.read_text() == "1\n"
        assert capsys.readouterr().out == ""
