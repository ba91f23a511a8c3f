import ast
import pathlib

import mahlerlab


def test_every_public_name_has_a_production_caller():
    """Every public def and class in src/ is used there or exported in __all__."""
    defined, used = set(), set()
    for path in pathlib.Path(mahlerlab.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)  # its own body (recursion) does not count
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined.add(owner)
            used |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(stmt)} - {owner}
    assert sorted(defined - used - set(mahlerlab.__all__)) == []
