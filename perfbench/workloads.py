"""The benchmark's workloads: seeded input generation and the job a child runs.

``generate`` runs in the parent and needs no library: it turns a seed into
plain JSON data, so the library receives only generated inputs.  In a child,
each workload's ``prepare`` turns one request into library objects before
the clock starts, ``serve`` runs the timed work on them, and ``check``
decides afterwards whether the output is exact.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference" / "genus3-cli"

#: the published genus-3 commands; one request renders one of them as text and as json
GENUS3_COMMANDS = (["numerator", "--genus", "3"], ["theorem1"], ["theorem2"], ["special"])
GENUS3_FORMATS = ("text", "json")

#: coset-oracle strata: (n, prime, largest delta); every (n, prime, delta) bucket is queried
COSET_STRATA = ((1, 2, 0), (1, 3, 0), (1, 5, 0), (1, 7, 0),
                (2, 2, 8), (2, 3, 7), (2, 5, 6),
                (3, 2, 7), (3, 3, 6))
COSET_LAMBDAS_PER_DELTA = 4

#: hecke-solve: every request is one of the systems the library itself solves,
#: rescaled by the seed; one round is the ten systems once
HECKE_ROUNDS = 2
HECKE_SCALES = (-3, -2, -1, 1, 2, 3)

#: the 28 tabulated signatures (a, b, 0), 6 >= a >= b >= 0, in the order of
#: heckeseries.golden.golden_order
GOLDEN = [(a, b, 0) for a in range(7) for b in range(a + 1)]
#: the primes at which verify-all checks the genus-3 coset oracle
ORACLE_PRIMES = (2, 3)
#: ring-rational partners and series coefficients are the tabulated
#: signatures with largest part <= 1; every signature meets every partner,
#: so the seed does not change the amount of work
RING_PARTNER_MAX = 1
RING_SERIES_ORDER = 3
RING_NVARS = 4


# -- input generation (parent side) --------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def generator_monomials(weight: int) -> list:
    """Exponents (a, b, c, d) of T(p)^a T1^b T2^c [p]^d with x0-weight a + 2(b + c + d).

    The same set as series.generator_monomials, rebuilt here so that input
    generation never imports the library.
    """
    out = []
    for m in range(weight // 2 + 1):
        for b in range(m + 1):
            for c in range(m - b + 1):
                out.append([weight - 2 * m, b, c, m - b - c])
    return out


def gen_genus3_cli(rng):
    return [{"argv": cmd} for cmd in GENUS3_COMMANDS]


def gen_coset_oracle(rng):
    queries = []
    for n, prime, top in COSET_STRATA:
        for delta in range(top + 1):
            for _ in range(COSET_LAMBDAS_PER_DELTA):
                # mu is a partition of delta with last part 0; lambda = mu + base
                second = rng.randint(0, delta // 2) if n == 3 else 0
                mu = [delta - second, second, 0][:n] if n > 1 else [0]
                base = rng.randint(0, 1)
                queries.append({"lambda": [m + base for m in mu], "n": n, "prime": prime})
    rng.shuffle(queries)
    return queries


def solved_systems() -> list:
    """(x0-weight, HeckeExpr JSON) of every system the genus-3 theorems solve.

    p3_in_generators solves the v^0..v^6 coefficients of P_3 and
    q3_in_generators the v^2..v^4 coefficients of Q_3.  The expressions are
    read from the theorem1 and theorem2 references, so no library is needed.
    """
    p3 = json.loads((REFERENCE_DIR / "theorem1.json").read_text())["P3"]
    q3 = json.loads((REFERENCE_DIR / "theorem2.json").read_text())["Q3"]
    return list(enumerate(p3)) + [(k, q3[k]) for k in (2, 3, 4)]


def gen_hecke_solve(rng):
    """Each solved system with every term rescaled and one generator monomial added."""
    exprs = []
    for _ in range(HECKE_ROUNDS):
        for weight, expr in solved_systems():
            terms = [
                {"g": t["g"], "c": {e: str(Fraction(c) * rng.choice(HECKE_SCALES)) for e, c in t["c"].items()}}
                for t in expr["terms"]
            ]
            unused = [g for g in generator_monomials(weight) if g not in [t["g"] for t in terms]]
            if unused:
                terms.append({"g": rng.choice(unused), "c": {str(rng.randint(0, 6)): str(rng.choice(HECKE_SCALES))}})
            exprs.append({"weight": weight, "expr": {"terms": terms}})
    rng.shuffle(exprs)
    return exprs


def gen_ring_rational(rng):
    """Every tabulated signature with every partner, at a seeded oracle prime.

    A request names specialized spherical values omega(lambda, 3) at p = prime:
    the operand a, its partner b, the series coefficients, and which variable
    the substitution sends to omega((1, 0, 0)); the other variables go to
    omega((0, 0, 0)) = 1.
    """
    partners = [lam for lam in GOLDEN if lam[0] <= RING_PARTNER_MAX]
    cases = []
    for lam in GOLDEN:
        for partner in partners:
            cases.append({
                "prime": rng.choice(ORACLE_PRIMES),
                "a": list(lam),
                "b": list(partner),
                "linear": rng.randint(1, RING_NVARS - 1),
                "series": [list(rng.choice(partners)) for _ in range(RING_SERIES_ORDER)],
            })
    rng.shuffle(cases)
    return cases


GENERATORS = {
    "genus3-cli": gen_genus3_cli,
    "coset-oracle": gen_coset_oracle,
    "hecke-solve": gen_hecke_solve,
    "ring-rational": gen_ring_rational,
}


def generate(workload: str, seed: int) -> list:
    """The requests of one workload for one seed; the same seed gives the same list."""
    return GENERATORS[workload](_rng(workload, seed))


# -- serving and checking (child side) -----------------------------------


class Genus3Cli:
    """cli.run with --out into a scratch directory; the gate is the reference bytes."""

    def __init__(self, scratch: str):
        self.scratch = scratch

    @staticmethod
    def prepare(req):
        return req["argv"]

    def serve(self, argv):
        from heckeseries import cli

        outputs = []
        for fmt in GENUS3_FORMATS:
            path = os.path.join(self.scratch, f"{argv[0]}.{fmt}")
            rc = cli.run(["--format", fmt, "--out", path] + argv)
            with open(path, "rb") as fh:
                outputs.append((rc, fh.read()))
        return outputs

    @staticmethod
    def check(argv, output):
        return all(
            rc == 0 and data == (REFERENCE_DIR / f"{argv[0]}.{fmt}").read_bytes()
            for fmt, (rc, data) in zip(GENUS3_FORMATS, output)
        )


class CosetOracle:
    """omega_cosets at a prime against the closed form specialized to it."""

    @staticmethod
    def prepare(req):
        return tuple(req["lambda"]), req["n"], req["prime"]

    @staticmethod
    def serve(query):
        from heckeseries import spherical

        lam, n, prime = query
        return spherical.omega_cosets(lam, n, prime), spherical.omega_hl(lam, n).specialize_prime(prime)

    @staticmethod
    def check(query, output):
        cosets, closed = output
        return cosets == closed


class HeckeSolve:
    """hecke_image of a generator polynomial, solved back by express_in_generators."""

    @staticmethod
    def prepare(req):
        from heckeseries import series

        return series.HeckeExpr.from_json(req["expr"]), req["weight"]

    @staticmethod
    def serve(item):
        from heckeseries import series

        expr, weight = item
        return series.express_in_generators(series.hecke_image(expr), weight)

    @staticmethod
    def check(item, output):
        return output == item[0]


class RingRational:
    """Rational-coefficient identities on specialized spherical values: substitute
    is a homomorphism, s * s.recip() = 1, and (a*b).div_exact(b) = a."""

    @staticmethod
    def prepare(req):
        from heckeseries.algebra import VSeries, XPoly
        from heckeseries.spherical import omega_hl

        def value(lam):
            return omega_hl(tuple(lam), 3).specialize_prime(req["prime"])

        sub = {i: value((1, 0, 0) if i == req["linear"] else (0, 0, 0)) for i in range(1, RING_NVARS)}
        coeffs = [XPoly.constant(RING_NVARS, 1)] + [value(lam) for lam in req["series"]]
        return value(req["a"]), value(req["b"]), sub, VSeries(RING_SERIES_ORDER, coeffs)

    @staticmethod
    def serve(item):
        a, b, sub, s = item
        ab = a * b
        return (
            ab.substitute(sub),
            a.substitute(sub) * b.substitute(sub),
            s * s.recip(),
            ab.div_exact(b),
        )

    @staticmethod
    def check(item, output):
        from heckeseries.algebra import VSeries

        hom_lhs, hom_rhs, unit, quotient = output
        return hom_lhs == hom_rhs and unit == VSeries.one(RING_SERIES_ORDER, RING_NVARS) and quotient == item[0]


def job(workload: str, scratch: str):
    """The prepare/serve/check triple of a workload; scratch is a directory the job may write."""
    if workload == "genus3-cli":
        return Genus3Cli(scratch)
    return {"coset-oracle": CosetOracle, "hecke-solve": HeckeSolve, "ring-rational": RingRational}[workload]
