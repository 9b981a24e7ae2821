"""Line trace of the test suite: the lines of ``src/heckeseries/`` no test runs.

Runs pytest on ``tests/`` in this process under a ``sys.settrace`` tracer
that records the lines run in the package's files, then lists the
executable lines that never ran.  Any unrun line fails the gate: a line
that no test can reach is dead code, and a line that only a subprocess
reaches needs an in-process test.

It gates on unrun lines only.  Pass and fail stay the test suite's job: the
tracer slows the tests 4-5x, so a test with a time budget can fail under it
(``tests/test_acceptance.py::test_criterion[10]``, "property suites", whose
budget is 5 s), and its failure is reported, not gated on.  Lines run only
in a subprocess count as unrun.

    python tools/linetrace.py [pytest arguments]    # default: tests -q

Exit status: 0 when every executable line ran; 1 otherwise; 2 when pytest
could not run the tests (an internal or usage error, or no tests collected).
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heckeseries"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that hold an instruction, in the module and every function of it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0, which holds no source
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_tests(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per file of the package, the lines run."""
    if any(name == "heckeseries" or name.startswith("heckeseries.") for name in sys.modules):
        raise RuntimeError("heckeseries was imported before tracing began")
    files = {str(p): set() for p in PACKAGE.glob("*.py")}
    ours: dict[str, set | None] = {}  # co_filename -> its line set, or None if not ours

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        hits = ours.get(filename, False)
        if hits is False:
            hits = ours[filename] = files.get(os.path.realpath(filename))
        if hits is None:
            return None
        hits.add(frame.f_lineno)
        add = hits.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), files


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    status, hits = trace_tests(argv or ["tests", "-q"])
    if status not in (0, 1):
        print(f"linetrace: pytest exited {status}; the tests did not run", file=sys.stderr)
        return 2
    unrun = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        unrun += [f"{path.name}:{line}: {source[line - 1].strip()}" for line in sorted(lines - hits[str(path)])]
    print(f"linetrace: {len(unrun)} of {total} executable lines never ran")
    print(f"linetrace: pytest exited {status} (not gated on)")
    for line in unrun:
        print(f"unrun: {line}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
