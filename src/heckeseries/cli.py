"""Command-line front end: compute, verify and export every table and identity."""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import log10

from .algebra import VSeries, XPoly
from .errors import EnumerationTooLarge, HeckeError
from .render import (
    hecke_series_text,
    series_text,
    symmetric_text,
)
from .series import (
    DEFAULT_ORDER,
    SERIES_ORDER_BOUND,
    p3_in_generators,
    p_numerator,
    q3_in_generators,
    r_series,
    specialize_nu,
)
from .spherical import (
    PRIME_BOUND,
    _is_prime,
    omega_cosets,
    omega_hl,
    sp_image_pbracket,
    sp_image_Ti,
    sp_image_Tp,
)
from .symmetric import _orbit_size, signatures_of_degree

#: largest part accepted by --lambda; it covers every signature the series
#: use up to SERIES_ORDER_BOUND.  At this bound one omega, computed and
#: rendered, takes under 0.5 s and up to 1 MB of JSON without --prime
#: (`--format json omega --lambda 120,60,0`: 0.17-0.28 s cold, 960 325 bytes;
#: 2-vCPU Xeon); at 200,100,0 the value takes 0.07 s and its 2.7 MB of JSON
#: 0.2 s more.  With --prime, OMEGA_OUTPUT_BOUND applies
LAMBDA_PART_BOUND = 120
#: largest output, in bytes, of omega --prime (with or without --oracle), as
#: overestimated by _specialized_size before anything is computed, and of series
OMEGA_OUTPUT_BOUND = 10**6
#: largest series order per genus whose JSON stays under OMEGA_OUTPUT_BOUND:
#: genus 3 writes 887 126 bytes at order 14 and 1 157 631 at 15.  Text and
#: LaTeX (at most 534 061 bytes) and genus 1 and 2 (at most 151 349) stay
#: under it up to SERIES_ORDER_BOUND
SERIES_JSON_ORDER_BOUND = {1: SERIES_ORDER_BOUND, 2: SERIES_ORDER_BOUND, 3: 14}


def _parse_lambda(text: str):
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda {text!r}; expected e.g. 2,1,0")
    if len(parts) != 3 or any(v < 0 for v in parts):
        raise argparse.ArgumentTypeError("lambda needs 3 non-negative parts")
    if max(parts) > LAMBDA_PART_BOUND:
        raise argparse.ArgumentTypeError(f"lambda parts must be at most {LAMBDA_PART_BOUND}")
    # omega depends only on the multiset; accept any order
    return tuple(sorted(parts, reverse=True))


def _parse_bounded(what: str, text: str, lo: int, hi: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}; expected an integer")
    if not lo <= value <= hi:
        raise argparse.ArgumentTypeError(f"{what} must be between {lo} and {hi}")
    return value


def _parse_order(text: str) -> int:
    return _parse_bounded("order", text, 0, SERIES_ORDER_BOUND)


def _parse_prime(text: str) -> int:
    prime = _parse_bounded("prime", text, 2, PRIME_BOUND)
    if not _is_prime(prime):
        raise argparse.ArgumentTypeError(f"{prime} is not prime")
    return prime


def _specialized_size(lam: tuple, prime: int, fmt: str) -> tuple[int, int]:
    """Overestimates of the longest integer, in digits, and of the bytes that
    omega --prime writes for the signature lam at the prime in format fmt.

    At the prime, the coefficient of x^e in omega(t(p^lam)) is the number of
    Hermite-form cosets with diagonal prime^e, at most prime^(e_2 + 2 e_3),
    over prime^(e_1 + 2 e_2 + 3 e_3) (see omega_cosets); omega is symmetric,
    so e may be taken descending.  Each e is a permutation of a signature
    that lam dominates, so its parts lie between the least and the largest
    part of lam.  JSON writes a term per e, text and LaTeX one per
    descending e, each in at most 64 bytes besides its two integers.
    """
    log = log10(prime)

    def digits(k: int) -> int:
        # decimal digits of prime^k, rounded up past any float error
        return int(k * log + 1e-9) + 1

    lo, hi, total = lam[-1], lam[0], sum(lam)
    longest, size = 1, 64
    for desc in signatures_of_degree(total, hi, len(lam)):
        if desc[-1] >= lo:
            den = sum(i * part for i, part in enumerate(desc, start=1))
            longest = max(longest, digits(den))
            terms = _orbit_size(desc) if fmt == "json" else 1
            size += terms * (digits(den - total) + digits(den) + 64)
    return longest, size


def _check_specialized_size(lam: tuple, prime: int, fmt: str) -> None:
    longest, size = _specialized_size(lam, prime, fmt)
    # the interpreter refuses to print longer integers (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and longest > limit:
        raise EnumerationTooLarge(
            f"omega at prime {prime} has integers of up to {longest} digits, "
            f"over the interpreter's limit of {limit}"
        )
    if size > OMEGA_OUTPUT_BOUND:
        raise EnumerationTooLarge(
            f"omega at prime {prime} may write up to {size} bytes, "
            f"over the bound {OMEGA_OUTPUT_BOUND}"
        )


def _render_xpoly(a: XPoly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(a.to_json())
    return symmetric_text(a, tex=(fmt == "latex"))


def _render_series(s: VSeries, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(s.to_json())
    return series_text(s, tex=(fmt == "latex"))


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeseries",
        description="Exact computation of the genus <= 3 symplectic Hecke series.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default="text",
        help="output rendering",
    )
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("omega", help="spherical-map value of t(p^lambda)")
    s.add_argument("--lambda", dest="lam", required=True, type=_parse_lambda)
    s.add_argument("--prime", type=_parse_prime, help="concrete prime for the coset oracle")
    s.add_argument(
        "--oracle",
        action="store_true",
        help="use coset enumeration (requires --prime)",
    )

    sub.add_parser("table", help="all 28 tabulated omega values")
    sub.add_parser("images", help="images of the symplectic generators")

    s = sub.add_parser("series", help="truncated generating series R_n")
    s.add_argument("--genus", type=int, default=3, choices=(1, 2, 3))
    s.add_argument("--order", type=_parse_order, default=DEFAULT_ORDER)

    s = sub.add_parser("numerator", help="numerator polynomial P_n")
    s.add_argument("--genus", type=int, default=3, choices=(1, 2, 3))

    sub.add_parser("theorem1", help="numerator over the Hecke ring, verified")
    sub.add_parser("theorem2", help="denominator over the Hecke ring, verified")
    sub.add_parser("special", help="degree specialization and its factorization")
    sub.add_parser("verify-all", help="run every acceptance check")
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(parser, args)
    except (EnumerationTooLarge, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except HeckeError as exc:  # a failed certification inside a command
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


def _run_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    fmt = args.format
    lines: list[str] = []
    ok = True

    if args.command == "omega":
        if args.prime is not None:
            _check_specialized_size(args.lam, args.prime, fmt)
        if args.oracle:
            if args.prime is None:
                parser.error("--oracle requires --prime")
            value = omega_cosets(args.lam, 3, args.prime)
        else:
            value = omega_hl(args.lam, 3)
            if args.prime is not None:
                value = value.specialize_prime(args.prime)
        lines.append(_render_xpoly(value, fmt))

    elif args.command == "table":
        from .golden import golden_order

        if fmt == "json":
            lines.append(
                json.dumps(
                    [
                        {"lambda": list(lam), "omega": omega_hl(lam, 3).to_json()}
                        for lam in golden_order()
                    ]
                )
            )
        else:
            for i, lam in enumerate(golden_order(), start=1):
                body = _render_xpoly(omega_hl(lam, 3), fmt)
                lines.append(f"{i:2d}) omega(t(1,p^{lam[1]},p^{lam[0]})) = {body}")

    elif args.command == "images":
        images = [
            ("Omega(T(p))", sp_image_Tp(3)),
            ("Omega(T_1(p^2))", sp_image_Ti(1, 3)),
            ("Omega(T_2(p^2))", sp_image_Ti(2, 3)),
            ("Omega(T_3(p^2))", sp_image_Ti(3, 3)),
            ("Omega([p]_3)", sp_image_pbracket(3)),
        ]
        if fmt == "json":
            lines.append(json.dumps({name: v.to_json() for name, v in images}))
        else:
            for name, v in images:
                lines.append(f"{name} = {_render_xpoly(v, fmt)}")

    elif args.command == "series":
        bound = SERIES_JSON_ORDER_BOUND[args.genus]
        if fmt == "json" and args.order > bound:
            raise EnumerationTooLarge(
                f"series of genus {args.genus} in JSON is over {OMEGA_OUTPUT_BOUND} bytes "
                f"past order {bound}"
            )
        lines.append(_render_series(r_series(args.genus, args.order), fmt))

    elif args.command == "numerator":
        lines.append(_render_series(p_numerator(args.genus, DEFAULT_ORDER), fmt))

    elif args.command == "theorem1":
        # p3_in_generators and q3_in_generators certify what they return and
        # raise a HeckeError otherwise: "verified" reports the certificate that ran
        coeffs = p3_in_generators()
        if fmt == "json":
            lines.append(json.dumps({"P3": [e.to_json() for e in coeffs], "verified": True}))
        else:
            lines.append(hecke_series_text(coeffs, tex=(fmt == "latex")))
            lines.append("verified against the expanded numerator: yes")

    elif args.command == "theorem2":
        qc = q3_in_generators()
        if fmt == "json":
            lines.append(json.dumps({"Q3": qc.to_json(), "functional_equation": True, "verified": True}))
        else:
            lines.append(hecke_series_text(qc.t, tex=(fmt == "latex")))
            lines.append("functional equation: holds")
            lines.append("verified against the expanded denominator: yes")

    elif args.command == "special":
        spec = specialize_nu(p_numerator(3, DEFAULT_ORDER))
        if fmt == "json":
            lines.append(json.dumps(spec.to_json()))
        else:
            lines.append(_render_series(spec, fmt))
            lines.append(
                "factorization: (1-p*v)(1-p^2*v)(1-p^3*v)(1-p^4*v)"
                "(1+p*v+p^2*v+p^3*v+p^4*v+p^5*v^2)"
            )

    elif args.command == "verify-all":
        from .verify import check_results, run_all

        if fmt == "json":
            records = [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in check_results()]
            lines.append(json.dumps(records))
            ok = all(r["ok"] for r in records)
        else:
            ok = run_all(report=lines.append)

    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
