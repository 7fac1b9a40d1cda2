"""Delete one trust check at a time and see whether a test notices.

    python3 tools/guard_mutants.py            # every guard in guards.json
    python3 tools/guard_mutants.py chip nonce # guards whose name has a word

Each entry of tools/guards.json names a file under src/ccxtrust/ and the
exact text of one guard in it, which must occur there exactly once. A
guard in <module>.py is killed by a test in tests/test_<module>.py, and
the tool refuses a guard whose module has no such file. For each guard
it copies src/, tests/ and pyproject.toml into a temporary directory,
deletes the guard there (a whole statement becomes `pass`, an operand of
a condition is removed), and runs `python -m pytest -q -x
tests/test_<module>.py` in that copy, once. The working tree is never
written. A guard is "killed" when a test fails without it and
"survived" when its module's tests all pass; then no test there depends
on it, and it needs a test where it is the only defence, or it can go.
The exit code is 1 when any guard survived.

A mutant costs one run of one test file (a few seconds on a 2-core VM),
and the sweep takes minutes, so the tool is not part of the test suite;
tools/test_guards.py, which is, checks that every guard text still
occurs exactly once and that every guarded module has its test file.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARDS = Path(__file__).resolve().parent / "guards.json"
COPIED = ("src", "tests")
TIMEOUT_S = 900


def load_guards(words: list[str]) -> list[dict]:
    guards = json.loads(GUARDS.read_text())
    return [g for g in guards
            if not words or any(w in g["name"] for w in words)]


def mutate(source: str, guard: str) -> str:
    """source with the guard deleted. A guard of whole lines becomes a
    `pass` at its indentation, so the block around it stays valid."""
    if source.count(guard) != 1:
        raise SystemExit(f"guard text must occur exactly once: {guard!r}")
    start = source.index(guard)
    whole_lines = ((start == 0 or source[start - 1] == "\n")
                   and guard.endswith("\n"))
    if whole_lines:
        indent = guard[:len(guard) - len(guard.lstrip(" "))]
        return source.replace(guard, f"{indent}pass\n")
    return source.replace(guard, "")


def own_tests(guard: dict) -> str:
    """The test file, relative to the root, that must kill the guard."""
    return f"tests/test_{Path(guard['file']).stem}.py"


def run_mutant(guard: dict) -> tuple[str, str]:
    """(verdict, detail): killed with the first failing test, or survived."""
    own = own_tests(guard)
    if not (ROOT / own).is_file():
        raise SystemExit(f"no {own} for guard {guard['name']!r}")
    with tempfile.TemporaryDirectory(prefix="guard-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / "src" / "ccxtrust" / guard["file"]
        target.write_text(mutate(target.read_text(), guard["guard"]))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", own],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S} s"
    if done.returncode != 0:
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
        return "killed", failed[0] if failed else f"exit {done.returncode}"
    return "survived", done.stdout.strip().splitlines()[-1]


def main(argv: list[str]) -> int:
    guards = load_guards(argv)
    if not guards:
        print("no guard matches", file=sys.stderr)
        return 2
    survived = 0
    for guard in guards:
        verdict, detail = run_mutant(guard)
        survived += verdict == "survived"
        print(f"{guard['name']} -> {verdict} ({detail})", flush=True)
    print(f"{len(guards) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
