"""The CLI exit-code contract on generated argument lists.

Every argv drawn from the CLI's grammar, well-formed or not, must end with
exit code 0, 1 or 2 and no escaping exception, and ``omega --prime`` must
stay within OMEGA_OUTPUT_BOUND.  ``cli.run`` runs in-process; usage errors
leave it as SystemExit(2) from argparse.

Three inputs are drawn only where they run in milliseconds, to keep the
test at a few seconds: ``verify-all`` (about 20 s) is left out, series
orders 13..20 (up to 1.5 s each, cold) are left out, and ``--oracle`` draws
parts of at most 2 at the prime 2, because the coset enumeration's guard
bounds a count rather than a time.  ``--out`` is left out so that nothing
is written to disk.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from heckeseries.cli import LAMBDA_PART_BOUND, OMEGA_OUTPUT_BOUND, PRIME_BOUND, run

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

junk = st.text(max_size=6)
formats = st.sampled_from([[], ["--format", "text"], ["--format", "json"], ["--format", "latex"], ["--format", "yaml"]])
commands = st.sampled_from(
    ["omega", "table", "images", "series", "numerator", "theorem1", "theorem2", "special", "bogus"]
)


def parts(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=4).map(lambda ps: ",".join(map(str, ps)))


lambdas = st.one_of(
    parts(-1, 40),
    # either side of OMEGA_OUTPUT_BOUND at 999983, and the largest parts
    st.sampled_from(["47,6,0", "48,6,0", "120,120,118", "120,120,120"]),
    st.integers(LAMBDA_PART_BOUND + 1, 10**6).map(lambda k: f"{k},0,0"),
    junk,
)
primes = st.one_of(
    st.sampled_from(["2", "3", "7919", "999979", "999983", "1000000", "1000003"]),
    st.integers(-3, 2 * PRIME_BOUND).map(str),
    junk,
)
genera = st.one_of(st.integers(0, 4).map(str), junk)
orders = st.one_of(st.integers(-2, 12).map(str), st.integers(21, 40).map(str), junk)
strays = st.sampled_from(["-h", "--frobnicate", "--lambda"])


@st.composite
def argvs(draw):
    argv = list(draw(formats))
    command = draw(commands)
    argv.append(command)
    if command == "omega":
        oracle = draw(st.booleans())
        if draw(st.booleans()):
            argv += ["--lambda", draw(parts(0, 2) | junk if oracle else lambdas)]
        if draw(st.booleans()):
            argv += ["--prime", draw(st.just("2") | junk if oracle else primes)]
        if oracle:
            argv.append("--oracle")
    elif command in ("series", "numerator"):
        if draw(st.booleans()):
            argv += ["--genus", draw(genera)]
        if command == "series" and draw(st.booleans()):
            argv += ["--order", draw(orders)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(strays))
    return argv


@settings(max_examples=120, deadline=None)
@given(argvs())
def test_exit_codes_on_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "omega" in argv and "--prime" in argv:
        assert len(out.getvalue().encode()) <= OMEGA_OUTPUT_BOUND
