"""Every mutant of ``mutants.py`` still matches the program: its old text
occurs exactly once in its file under ``src/coresleep``, and the edited
file still compiles, so a change that moves or rewrites the mutated code,
or a mutant that only breaks the syntax, shows here without running the
mutation suite itself."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[name for name, *_rest in MUTANTS])
def test_old_text_occurs_once(mutant):
    _name, file, old, new = mutant
    text = (ROOT / "src" / "coresleep" / file).read_text(encoding="utf-8")
    assert text.count(old) == 1
    compile(text.replace(old, new), file, "exec")
