"""Line coverage of the library under the tier-1 suite, stdlib only.

Runs the test suite in this process with a ``sys.settrace`` collector
installed as a pytest plugin, then prints, for each ``src/jointmotion``
module, its executable lines and the ones no test ran, each with its
source text. Tests that start a subprocess (the CLI's ``__main__``
guard, for one) are not counted. Run it from the repository root with

    python tests/line_coverage.py [pytest arguments]

The pytest arguments default to the ``tests`` directory. On that default
run the exit code is 1 when a missed line is not in ``ALLOWED_MISSES``, or
when an entry there matches no missed line, and pytest's otherwise; with
arguments it is pytest's. The suite runs several times slower under the
tracer than without it.
"""

from __future__ import annotations

import dis
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jointmotion"

# Lines the full suite misses on purpose, keyed by module and stripped
# source text, with the reason.
ALLOWED_MISSES = {
    ("cli.py", "sys.exit(main())"): "the __main__ guard runs only in subprocesses, untraced",
    ("increments.py", "raise"): (
        "Marginals' fallback: when the one-block check fails, the field-by-field "
        "check raises first"
    ),
}


def executable_lines(path: Path) -> set:
    """Every line on which an instruction of ``path``'s code starts."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class LineCollector:
    """A pytest plugin that records each line of the package that runs,
    from session start to session finish, in every thread."""

    def __init__(self, package: Path = PACKAGE):
        self.package = str(package.resolve())
        self.hits = defaultdict(set)  # resolved file name -> line numbers
        self._ours = {}  # code file name -> resolved name, or None if not ours

    def _file(self, code_file: str):
        if code_file not in self._ours:
            resolved = str(Path(code_file).resolve())
            ours = Path(resolved).parent == Path(self.package)
            self._ours[code_file] = resolved if ours else None
        return self._ours[code_file]

    def _trace(self, frame, event, arg):
        name = self._file(frame.f_code.co_filename)
        if name is None:
            return None
        hits = self.hits[name]
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    def pytest_sessionstart(self, session):
        if "jointmotion" in sys.modules:
            raise RuntimeError("jointmotion was imported before tracing began")
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)

    def missed(self) -> dict:
        """Module path -> (executable lines, sorted missed lines)."""
        report = {}
        for path in sorted(Path(self.package).glob("*.py")):
            lines = executable_lines(path)
            report[path] = (lines, sorted(lines - self.hits[str(path)]))
        return report


def print_report(report: dict) -> None:
    total = missed_total = 0
    for path, (lines, missed) in report.items():
        total += len(lines)
        missed_total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(lines)} executable lines missed")
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"  {path.name}:{line}: {source[line - 1].strip()}")
    print(f"total: {missed_total} of {total} executable lines missed")


def unexplained(report: dict, allowed: dict = ALLOWED_MISSES) -> list:
    """One message for each missed line that ``allowed`` does not list,
    and for each ``allowed`` entry that matches no missed line."""
    missed = set()
    messages = []
    for path, (_, lines) in report.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            key = (path.name, source[line - 1].strip())
            missed.add(key)
            if key not in allowed:
                messages.append(f"unexplained miss: {path.name}:{line}: {key[1]}")
    for module, text in sorted(set(allowed) - missed):
        messages.append(f"allowed miss no longer missed: {module}: {text}")
    return messages


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    collector = LineCollector()
    status = pytest.main(
        ["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])], plugins=[collector]
    )
    report = collector.missed()
    print_report(report)
    if argv or status:
        return int(status)
    messages = unexplained(report)
    for message in messages:
        print(message)
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
