"""List the lines of ``src/trotterlab`` that the test suite never executes.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``,
records the lines executed in the package's files, and prints, per module,
each executable line that never ran.  A line is executable when a code object
of the compiled module names it in ``co_lines()``.  Nothing is written to the
repository: no bytecode, no pytest cache, and Hypothesis's database lives in
a temporary directory.

Code run in subprocesses (the ``python -m trotterlab`` and console-script
tests) is not seen, so the lines only such runs reach are listed too.  On two
cores the traced suite took 152-218 s against 87-105 s untraced.

Usage, from the repository root; extra arguments go to pytest:

    python tools/untested_lines.py [pytest args]
"""

import os
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trotterlab"


def executable_lines(path: Path) -> set[int]:
    """Line numbers named by any code object compiled from ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # Line 0 is the module's own entry instruction, not a source line.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # for the subprocess runs too
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        # Frames torn down at interpreter shutdown can carry no file name.
        if filename is None or not filename.startswith(prefix):
            return None
        ran[filename].add(frame.f_lineno)
        return on_line

    import pytest

    with tempfile.TemporaryDirectory() as home:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home
        threading.settrace(on_call)
        sys.settrace(on_call)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        if missed:
            source = path.read_text().splitlines()
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} lines never ran")
            for line in missed:
                print(f"{line:5d}  {source[line - 1].strip()}")
    print(f"\n{total} executable lines of {PACKAGE.relative_to(ROOT)} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
