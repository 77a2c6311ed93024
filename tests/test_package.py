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


def unused_imports(package: Path) -> list[str]:
    """`module.name` of each name a top-level import binds that the module
    itself never mentions; `__init__.py` imports to re-export and is skipped."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [(alias.asname or alias.name).split(".")[0] for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    return unused


def test_src_imports_only_what_it_uses():
    assert unused_imports(Path(trielab.__file__).parent) == []


def unpassed_defaults(package: Path) -> list[str]:
    """`module.function(param)` of each defaulted parameter that no call in the
    package passes, by keyword or by position.  A call is matched to a function
    by its bare name, a call to a class counts for its `__init__`, and a call
    that unpacks `*args` or `**kwargs` passes everything it might reach."""
    defaulted, calls = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(node, None) for node in tree.body]
        while scopes:
            node, cls = scopes.pop()
            if isinstance(node, ast.ClassDef):
                scopes += [(child, node.name) for child in node.body]
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scopes += [(child, None) for child in node.body]
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            offset = 1 if cls else 0  # self is bound, not passed
            name = cls if node.name == "__init__" else node.name
            qualified = f"{path.stem}.{cls + '.' if cls else ''}{node.name}"
            with_default = [(p, i - offset) for i, p in enumerate(positional)
                            if i >= len(positional) - len(a.defaults)]
            with_default += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None]
            defaulted += [(qualified, name, p, i) for p, i in with_default]
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def passes(call: ast.Call, param: str, index: int | None) -> bool:
        if any(k.arg in (None, param) for k in call.keywords):
            return True
        return index is not None and (
            index < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args))

    def callee(call: ast.Call) -> str | None:
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    return [f"{qualified}({param})" for qualified, name, param, index in defaulted
            if qualified != "cli.main"
            and not any(callee(c) == name and passes(c, param, index) for c in calls)]


def test_every_default_is_passed_somewhere():
    # a parameter only one value in the package ever sets is a constant
    assert unpassed_defaults(Path(trielab.__file__).parent) == []


# the trielab modules each module may import from.  The exact DP
# (exact_moments, poisson_analysis), the spectral constants and the Monte
# Carlo route (trie, clt_harness) share only the chain, so their agreement
# is evidence; only cli composes them, and __init__ re-exports
ROUTE_IMPORTS = {
    "markov_source": set(),
    "trie": {"markov_source"},
    "clt_harness": {"markov_source", "trie"},
    "exact_moments": {"markov_source"},
    "poisson_analysis": {"exact_moments"},
    "spectral": {"markov_source"},
}
COMPOSERS = {"cli", "__init__", "__main__"}
# the string generator, which no exact route may reach
GENERATOR_NAMES = {"stream_seeds", "replicate_seed", "uniforms_at", "bit_thresholds",
                   "BitStream", "generate_strings"}


def trielab_imports(path: Path) -> dict[str, set[str]]:
    """{source: imported names} of each import from the package in one file,
    the source being the module after `trielab.` (`trielab` for the package,
    "" for a relative import of the package itself)."""
    sources = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = ("trielab." if node.level else "") + (node.module or "")
            modules = [(module, {alias.name for alias in node.names})]
        elif isinstance(node, ast.Import):
            modules = [(alias.name, set()) for alias in node.names]
        else:
            continue
        for module, names in modules:
            if module == "trielab" or module.startswith("trielab."):
                sources.setdefault(module.removeprefix("trielab."), set()).update(names)
    return sources


def test_routes_share_only_the_chain():
    package = Path(trielab.__file__).parent
    imports = {path.stem: trielab_imports(path) for path in package.glob("*.py")}
    assert set(imports) - COMPOSERS == set(ROUTE_IMPORTS)
    for module, allowed in ROUTE_IMPORTS.items():
        assert set(imports[module]) <= allowed, module
    for module in ("exact_moments", "poisson_analysis", "spectral"):
        names = set().union(*imports[module].values())
        assert not names & GENERATOR_NAMES, module
