import ast
from pathlib import Path

import trielab

# reached from outside the package: the console script and the schema helper
ENTRY_POINTS = {"cli.main", "cli.schema_for"}


def unreferenced_definitions(package: Path) -> list[str]:
    """`module.name` of each top-level def or class of the package that no
    Name or attribute access anywhere in the package mentions."""
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [qualified for qualified in defined
            if qualified.split(".")[1] not in used | set(trielab.__all__)
            and qualified not in ENTRY_POINTS]


def test_src_holds_only_referenced_definitions():
    # a definition that only tests reach belongs beside those tests
    assert unreferenced_definitions(Path(trielab.__file__).parent) == []
