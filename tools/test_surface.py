"""No public code in src/ is reached only from tests/.

    python3 tools/test_surface.py    # print what the check would refuse

Every public function, class, method and property that src/ccxtrust/
defines must be named by some code token in src/, demos/, perfbench/ or
tools/, other than the name its own def or class statement defines, or
be listed with its reason in tools/test_only.json. Code is tokenized, so
a name in a string or a comment is no caller. A list entry is itself
refused when its name is no longer defined or has gained such a caller,
so the list only ever holds code that tests alone reach.

A method or property counts as reached only where code accesses it as
an attribute, x.name: a bare token of the same name, as a keyword
argument or a local variable, is no caller. A classmethod or
staticmethod counts as reached only where code names it as Name.method,
with Name its class or a subclass defined in src/ccxtrust/ (bare or
module-qualified, as crypto.Certificate.signed), or cls inside the body
of such a class. A module-level function or class is matched as a bare
token. Code reached only through a string, as by getattr, is refused and
belongs on the list.
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


def callers(path: Path) -> tuple[Counter, set[str], set[tuple[str, str]]]:
    """(names, accessed, attributes): every NAME token in the file,
    counted, except the name that a def or class statement defines, since
    a definition is no caller; every attr that an x.attr expression
    accesses; and every (Name, attr) that a Name.attr or x.Name.attr
    expression names, with cls read as the class whose body holds it."""
    names: Counter = Counter()
    previous = ""
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names[tok.string] += 1
            previous = tok.string

    accessed: set[str] = set()
    attributes: set[tuple[str, str]] = set()

    def visit(node, klass: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            klass = node.name
        elif isinstance(node, ast.Attribute):
            accessed.add(node.attr)
            owner = node.value
            if isinstance(owner, ast.Attribute):
                attributes.add((owner.attr, node.attr))
            elif isinstance(owner, ast.Name):
                if owner.id != "cls":
                    attributes.add((owner.id, node.attr))
                elif klass is not None:
                    attributes.add((klass, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, klass)

    visit(ast.parse(path.read_bytes()), None)
    return names, accessed, attributes


def definitions() -> tuple[dict[str, str], dict[str, str],
                           dict[str, tuple[str, str]], dict[str, set[str]]]:
    """(bare, members, bound, bases) for the public functions, classes,
    methods and properties in src/ccxtrust/. bound maps the qualified name
    (module.Class.method) of each classmethod and staticmethod to its
    (Class, method), members maps each other method or property to its
    name, bare maps each module-level function and class to its name, and
    bases maps each class to the names of its base classes."""
    bare: dict[str, str] = {}
    members: dict[str, str] = {}
    bound: dict[str, tuple[str, str]] = {}
    bases: dict[str, set[str]] = {}

    def walk(body, prefix: str, klass: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    base.attr if isinstance(base, ast.Attribute) else base.id
                    for base in node.bases
                    if isinstance(base, (ast.Attribute, ast.Name))}
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            qualified = f"{prefix}.{node.name}"
            if klass is not None and any(
                    isinstance(d, ast.Name)
                    and d.id in ("classmethod", "staticmethod")
                    for d in node.decorator_list):
                bound[qualified] = (klass, node.name)
            elif klass is not None:
                members[qualified] = node.name
            else:
                bare[qualified] = node.name
            if isinstance(node, ast.ClassDef):
                walk(node.body, qualified, node.name)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()).body, path.stem, None)
    return bare, members, bound, bases


def family(klass: str, bases: dict[str, set[str]]) -> set[str]:
    """klass and every class in src/ccxtrust/ that derives from it."""
    found = {klass}
    grew = True
    while grew:
        grew = False
        for child, parents in bases.items():
            if child not in found and found & parents:
                found.add(child)
                grew = True
    return found


def allow_list() -> list[dict]:
    return json.loads(ALLOW_LIST.read_text())


def unreached(paths, defined) -> set[str]:
    """The qualified names in defined, as definitions() gives them, that
    no file in paths reaches."""
    named: Counter = Counter()
    accessed: set[str] = set()
    attributes: set[tuple[str, str]] = set()
    for path in paths:
        names, attrs, pairs = callers(path)
        named.update(names)
        accessed |= attrs
        attributes |= pairs
    bare, members, bound, bases = defined
    found = {qualified for qualified, name in bare.items() if not named[name]}
    found |= {qualified for qualified, name in members.items()
              if name not in accessed}
    found |= {qualified for qualified, (klass, name) in bound.items()
              if not any((owner, name) in attributes
                         for owner in family(klass, bases))}
    return found


def surface() -> tuple[list[str], list[str]]:
    """(unlisted, stale): test-only names missing from the allow-list,
    and list entries that are not defined or are no longer test-only."""
    paths = [path for top in SCANNED
             for path in sorted((ROOT / top).rglob("*.py"))]
    test_only = unreached(paths, definitions())
    listed = {entry["name"] for entry in allow_list()}
    return sorted(test_only - listed), sorted(listed - test_only)


def test_every_test_only_name_is_listed_and_every_entry_is_test_only():
    unlisted, stale = surface()
    assert unlisted == [], f"reached only from tests/: {unlisted}"
    assert stale == [], f"allow-list entries no longer test-only: {stale}"


def test_a_bound_method_is_reached_only_through_its_class(tmp_path):
    source = tmp_path / "caller.py"
    source.write_text("class K(Base):\n"
                      "    def f(cls):\n"
                      "        return cls.make()\n"
                      "cls.lost()\n"
                      "TraceEvent.from_line(x)\n"
                      "mod.Spec.decode(y)\n"
                      "(a or b).parse(z)\n")
    _, _, attributes = callers(source)
    assert attributes == {("K", "make"), ("TraceEvent", "from_line"),
                          ("mod", "Spec"), ("Spec", "decode")}
    bases = {"Signed": {"Record"}, "Certificate": {"Signed"}, "Other": set()}
    assert family("Record", bases) == {"Record", "Signed", "Certificate"}
    assert family("Certificate", bases) == {"Certificate"}


def test_a_method_is_reached_only_as_an_attribute(tmp_path):
    # a keyword argument, an assignment and a local variable share the
    # method's name as bare tokens; only an attribute access reaches it
    source = tmp_path / "caller.py"
    defined = ({}, {"trace.ProtocolTrace.text": "text"}, {}, {})
    source.write_text("run(text=True)\n"
                      "text = 1\n"
                      "print(text)\n")
    assert unreached([source], defined) == {"trace.ProtocolTrace.text"}
    source.write_text("trace.text()\n")
    assert unreached([source], defined) == set()


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
