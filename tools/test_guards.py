"""Every guard in guards.json names live code: its text occurs exactly
once in its file, and deleting it leaves code that compiles, so moving
a trust check cannot silently drop it from the guard_mutants sweep; and
its module has the test file that guard_mutants runs against it."""

import guard_mutants

SRC = guard_mutants.ROOT / "src" / "ccxtrust"


def test_every_guard_text_occurs_once_in_its_file():
    for guard in guard_mutants.load_guards([]):
        source = (SRC / guard["file"]).read_text()
        assert source.count(guard["guard"]) == 1, guard["name"]
        compile(guard_mutants.mutate(source, guard["guard"]), guard["file"],
                "exec")


def test_every_guarded_module_has_its_test_file():
    wanted = {guard_mutants.own_tests(g) for g in guard_mutants.load_guards([])}
    assert {path for path in wanted
            if not (guard_mutants.ROOT / path).is_file()} == set()
