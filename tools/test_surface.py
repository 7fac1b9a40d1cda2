"""No public code in src/ is reached only from tests/.

    python3 tools/test_surface.py    # print what the check would refuse

Every public function, class, method and property that src/ccxtrust/
defines must be named by some code token in src/, demos/, perfbench/ or
tools/, other than the name its own def or class statement defines, or
be listed with its reason in tools/test_only.json. Code is tokenized, so
a name in a string or a comment is no caller. A list entry is itself
refused when its name is no longer defined or has gained such a caller,
so the list only ever holds code that tests alone reach.

A name is matched as a bare token, so a definition that shares its name
with a caller of something else counts as reached: the check can miss
test-only code. Code reached only through a string, as by getattr, is
refused and belongs on the list.
"""

from __future__ import annotations

import ast
import json
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ccxtrust"
SCANNED = ("src", "demos", "perfbench", "tools")
ALLOW_LIST = Path(__file__).resolve().parent / "test_only.json"


def callers(path: Path) -> Counter:
    """Every NAME token in the file, counted, except the name that a def
    or class statement defines: a definition is no caller."""
    names: Counter = Counter()
    previous = ""
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names[tok.string] += 1
            previous = tok.string
    return names


def definitions() -> dict[str, str]:
    """The bare name of every public function, class, method and property
    in src/ccxtrust/, by qualified name (module.Class.method)."""
    found = {}

    def walk(body, prefix: str) -> None:
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                found[f"{prefix}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}.{node.name}")

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()).body, path.stem)
    return found


def allow_list() -> list[dict]:
    return json.loads(ALLOW_LIST.read_text())


def surface() -> tuple[list[str], list[str]]:
    """(unlisted, stale): test-only names missing from the allow-list,
    and list entries that are not defined or are no longer test-only."""
    named: Counter = Counter()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            named.update(callers(path))
    test_only = {qualified for qualified, name in definitions().items()
                 if not named[name]}
    listed = {entry["name"] for entry in allow_list()}
    return sorted(test_only - listed), sorted(listed - test_only)


def test_every_test_only_name_is_listed_and_every_entry_is_test_only():
    unlisted, stale = surface()
    assert unlisted == [], f"reached only from tests/: {unlisted}"
    assert stale == [], f"allow-list entries no longer test-only: {stale}"


def test_every_entry_gives_its_reason():
    for entry in allow_list():
        assert set(entry) == {"name", "reason"}, entry
        assert entry["reason"].strip(), entry["name"]


if __name__ == "__main__":
    unlisted, stale = surface()
    for name in unlisted:
        print(f"test-only, not listed: {name}")
    for name in stale:
        print(f"listed, not defined or not test-only: {name}")
    sys.exit(1 if unlisted or stale else 0)
