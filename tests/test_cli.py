"""Command-line interface tests: pinned output, determinism, exit codes."""

import hashlib
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from heckeseries import cli, series, verify
from heckeseries.algebra import VSeries, XPoly
from heckeseries.cli import LAMBDA_PART_BOUND, OMEGA_OUTPUT_BOUND, _specialized_size, run
from heckeseries.errors import NonVanishingTail
from heckeseries.series import SERIES_ORDER_BOUND, p_numerator
from heckeseries.spherical import omega_hl, sp_image_Tp


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


def raise_tail():
    raise NonVanishingTail("coefficient of v^7 is nonzero")


def p3_with_v1_term(n, N):
    """p_numerator, with the image of T(p) added to P_3's v^1 coefficient."""
    return p_numerator(n, N) + VSeries.from_dict(6, 4, {1: sp_image_Tp(3)})


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
        "extra", [["--prime", "4", "--oracle"], ["--prime", "1", "--oracle"], ["--prime", "-3"], ["--prime", "three"]]
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


class TestOutputGuard:
    """omega --prime bounds the size of its output before computing it."""

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["closed", "oracle"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("lam", ["120,120,120", "120,80,0"])
    def test_oversized_output_is_usage_error(self, lam, fmt, oracle, capsys):
        code = run(["--format", fmt, "omega", "--lambda", lam, "--prime", "999983", *oracle])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("heckeseries: error: omega at prime 999983 ")
        assert captured.err.count("\n") == 1

    def test_largest_accepted_output_stays_under_the_bound(self, capsys):
        prime = 999983
        assert _specialized_size((47, 6, 0), prime, "json")[1] <= OMEGA_OUTPUT_BOUND
        assert _specialized_size((48, 6, 0), prime, "json")[1] > OMEGA_OUTPUT_BOUND
        code, out = invoke(capsys, ["--format", "json", "omega", "--lambda", "47,6,0", "--prime", str(prime)])
        assert code == 0
        assert len(out.encode()) <= OMEGA_OUTPUT_BOUND

    def test_longest_accepted_integers_print(self, capsys):
        # at 120,120,119 a denominator can be 999983^717, of 4302 digits
        code, out = invoke(capsys, ["omega", "--lambda", "120,120,118", "--prime", "999983"])
        assert code == 0
        longest = max(len(digits) for digits in re.findall(r"\d+", out))
        assert 4200 < longest <= sys.get_int_max_str_digits()

    def test_estimate_overshoots(self, capsys):
        for fmt in ("text", "json", "latex"):
            for lam, prime in (((4, 2, 1), 3), ((30, 15, 2), 7919), ((22, 14, 14), 999983)):
                argv = ["--format", fmt, "omega", "--lambda", ",".join(map(str, lam)), "--prime", str(prime)]
                code, out = invoke(capsys, argv)
                longest, size = _specialized_size(lam, prime, fmt)
                assert code == 0
                assert len(out.encode()) <= size
                assert max(len(digits) for digits in re.findall(r"\d+", out)) <= longest


class TestSeriesOutputGuard:
    """series refuses, before computing, any request whose output passes OMEGA_OUTPUT_BOUND."""

    #: SHA-256 of series --genus 3 --order 20 before the guard, per format
    ORDER_20_SHA256 = {
        "text": "7fef2b301abef9bb1ade4767a9c383930e8e502646ec815f7a889721eeabcd53",
        "latex": "2a229b50ec8bce47edb90524894ca4329d928937bf60f5712af756f514b596e0",
    }

    def test_largest_accepted_json_order_stays_under_the_bound(self, capsys):
        code, out = invoke(capsys, ["--format", "json", "series", "--genus", "3", "--order", "14"])
        assert code == 0
        assert len(out.encode()) <= OMEGA_OUTPUT_BOUND

    @pytest.mark.parametrize("order", ["15", "20"])
    def test_oversized_json_is_usage_error(self, order, capsys, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("computed a refused series")

        monkeypatch.setattr(cli, "r_series", refuse)
        path = tmp_path / "series.json"
        code = run(["--format", "json", "--out", str(path), "series", "--genus", "3", "--order", order])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not path.exists()
        assert captured.err.startswith("heckeseries: error: series of genus 3 ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "latex"])
    def test_text_and_latex_unchanged_at_the_order_bound(self, fmt, capsys):
        argv = ["--format", fmt, "series", "--genus", "3", "--order", str(SERIES_ORDER_BOUND)]
        code, out = invoke(capsys, argv)
        assert code == 0
        assert len(out.encode()) <= OMEGA_OUTPUT_BOUND
        assert hashlib.sha256(out.encode()).hexdigest() == self.ORDER_20_SHA256[fmt]

    @pytest.mark.parametrize("genus", ["1", "2"])
    def test_low_genus_json_accepted_at_the_order_bound(self, genus, capsys):
        argv = ["--format", "json", "series", "--genus", genus, "--order", str(SERIES_ORDER_BOUND)]
        code, out = invoke(capsys, argv)
        assert code == 0
        assert len(out.encode()) <= OMEGA_OUTPUT_BOUND


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

    @pytest.mark.usefixtures("fresh_theorem_caches")
    def test_cached_numerator_cannot_be_changed(self, capsys):
        num = p_numerator(3, series.DEFAULT_ORDER)
        with pytest.raises(TypeError):
            num.coeffs[2] = num.coeffs[2] * 2
        with pytest.raises(AttributeError):
            num.coeffs = num.coeffs[:2] + (num.coeffs[2] * 2,) + num.coeffs[3:]
        assert run(["theorem1"]) == 0
        assert capsys.readouterr().out == (REFERENCE_DIR / "theorem1.text").read_text()


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

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["series", "--order", "many"], "heckeseries series: error: argument --order: bad order 'many'; expected an integer"),
            (["series", "--order", "-1"], "heckeseries series: error: argument --order: order must be between 0 and 20"),
            (["series", "--order", "21"], "heckeseries series: error: argument --order: order must be between 0 and 20"),
            (["omega", "--lambda", "1,0,0", "--prime", "two"], "heckeseries omega: error: argument --prime: bad prime 'two'; expected an integer"),
            (["omega", "--lambda", "1,0,0", "--prime", "1"], "heckeseries omega: error: argument --prime: prime must be between 2 and 1000000"),
            (["omega", "--lambda", "1,0,0", "--prime", "1000001"], "heckeseries omega: error: argument --prime: prime must be between 2 and 1000000"),
            (["omega", "--lambda", "1,0,0", "--prime", "4"], "heckeseries omega: error: argument --prime: 4 is not prime"),
            (["omega", "--lambda", "2;1;0"], "heckeseries omega: error: argument --lambda: bad lambda '2;1;0'; expected e.g. 2,1,0"),
            (["omega", "--lambda", "2,1"], "heckeseries omega: error: argument --lambda: lambda needs 3 non-negative parts"),
            (["omega", "--lambda", "2,-1,0"], "heckeseries omega: error: argument --lambda: lambda needs 3 non-negative parts"),
            (["omega", "--lambda", "121,0,0"], "heckeseries omega: error: argument --lambda: lambda parts must be at most 120"),
        ],
    )
    def test_argument_refused(self, argv, line, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: heckeseries ")
        assert err.splitlines()[-1] == line

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code = run(["--out", str(tmp_path / "missing" / "x"), "images"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("heckeseries: error: ")
        assert captured.err.count("\n") == 1

    def test_internal_failure_is_verification_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "p3_in_generators", raise_tail)
        code = run(["theorem1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "heckeseries: error: coefficient of v^7 is nonzero\n"

    @pytest.mark.parametrize(
        "argv, name, corrupted, out, err",
        [
            # a P_3 with a v^1 term fails p3_in_generators' guard
            (["theorem1"], "p_numerator", p3_with_v1_term, "",
             "heckeseries: error: numerator has unexpected v^1 or v^5 terms\n"),
            # a wrong scale in the functional equation fails q3_in_generators' image check at t_5
            (["theorem2"], "P_BRACKET", series.P_BRACKET * 2, "",
             "heckeseries: error: t_5 does not reproduce the v^5 coefficient of the denominator\n"),
            (["verify-all"], None, None, "[FAIL] stub check\n", ""),
        ],
        ids=["theorem1", "theorem2", "argv2-[FAIL] stub check"],
    )
    @pytest.mark.usefixtures("fresh_theorem_caches")
    def test_failed_verification_prints_then_exits_1(self, argv, name, corrupted, out, err, capsys, monkeypatch):
        if name is not None:
            monkeypatch.setattr(series, name, corrupted)
        # cli imports run_all from verify when verify-all runs
        monkeypatch.setattr(verify, "run_all", lambda report: report("[FAIL] stub check") or False)
        assert run(argv) == 1
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize(
        "second, status, detail",
        [
            (lambda: (True, "also"), "PASS", "also"),
            (raise_tail, "FAIL", "NonVanishingTail: coefficient of v^7 is nonzero"),
        ],
        ids=["pass", "raise"],
    )
    def test_verify_all_formats(self, second, status, detail, capsys, monkeypatch):
        monkeypatch.setattr(verify, "ALL_CHECKS", [("first", lambda: (True, "holds")), ("second", second)])
        code = int(status == "FAIL")
        assert invoke(capsys, ["verify-all"]) == (code, f"[PASS] first: holds\n[{status}] second: {detail}\n")
        out_code, out = invoke(capsys, ["--format", "json", "verify-all"])
        assert out_code == code
        assert json.loads(out) == [
            {"name": "first", "ok": True, "detail": "holds"},
            {"name": "second", "ok": status == "PASS", "detail": detail},
        ]
        # latex keeps the text lines
        assert invoke(capsys, ["--format", "latex", "verify-all"]) == invoke(capsys, ["verify-all"])

    def test_python_m_runs_the_cli(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["heckeseries", "--help"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("heckeseries", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: heckeseries")

    def test_python_m_runs_the_cli_module(self, capsys, monkeypatch):
        # runpy warns when the module it runs as __main__ is imported already
        monkeypatch.delitem(sys.modules, "heckeseries.cli")
        monkeypatch.setattr(sys, "argv", ["heckeseries.cli", "--help"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("heckeseries.cli", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: heckeseries")

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "omega.txt"
        code = run(["--out", str(path), "omega", "--lambda", "0,0,0"])
        assert code == 0
        assert path.read_text() == "1\n"
        assert capsys.readouterr().out == ""
