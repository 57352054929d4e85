"""Source hygiene checks on the package modules and the benchmark's use of them.

The package checks use the standard `ast` only; the benchmark check reads
`perfbench/` with `ast` and looks the names it uses up in the package.
The package's one public-name list is `_EXPORTS` in `__init__.py`.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "onesided").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def assigned(tree, name):
    """The literal value of the module's top-level assignment to ``name``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def declares_all(tree):
    """Whether the module assigns ``__all__`` at its top level."""
    return any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
    )


def undefined_exports(exports, trees):
    """``module name`` for each ``_EXPORTS`` name its module does not define."""
    return {
        f"{module} {name}"
        for module, names in exports.items()
        for name in names
        if name not in top_level_names(trees[f"{module}.py"])
    }


def imported_names(tree):
    """Local names bound by the module's imports, ``__future__`` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Every name the module reads, including those inside string annotations."""
    used = set()

    def collect(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    collect(ast.parse(sub.value, mode="eval"))
                except SyntaxError:
                    pass

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            collect(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            collect(node.returns)
        elif isinstance(node, ast.AnnAssign):
            collect(node.annotation)
    return used


def top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
    return names | set(imported_names(tree))


def private_definitions(tree):
    """Private top-level names the module defines, dunders and imports excluded."""
    defined = top_level_names(tree) - set(imported_names(tree))
    return {n for n in defined if n.startswith("_") and not n.startswith("__")}


def read_names(tree):
    """Names the module loads, directly or as an attribute of another object."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(trees):
    """``module name`` for each private top-level name no module reads."""
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return {
        f"{module} {name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name not in read
    }


def package_imports(tree):
    """``(module, name)`` of each name imported from ``onesided`` or a submodule."""
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "onesided"
        for alias in node.names
    }


def traced_targets(tree):
    """``(module, attribute)`` of each entry of the module's ``TARGETS``."""
    return {(module, attr) for _, module, attr in assigned(tree, "TARGETS") or ()}


def unresolved(pairs):
    """``module.attribute`` of each pair not found where it is looked up.

    A plain name is looked up by attribute access, as ``from module import
    name`` does, so the package's lazy exports resolve and a name no module
    exports does not.  Like the tracer, a dotted attribute must sit in the
    ``__dict__`` of the module or class it names, not be inherited.
    """
    missing = set()
    for module, attr in pairs:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        if path:
            for part in path:
                owner = getattr(owner, part, None)
            found = leaf in getattr(owner, "__dict__", {})
        else:
            found = hasattr(owner, leaf)
        if not found:
            missing.add(f"{module}.{attr}")
    return missing


def is_record(node):
    """Whether the class is a dataclass or a NamedTuple, whose annotations are fields."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
        getattr(b, "id", None) == "NamedTuple" for b in node.bases
    )


def settable_values(tree):
    """``(flags, parameters, fields)``: the values a caller can set in the module.

    Flags are ``add_argument`` calls; parameters those of every function
    other than ``self`` and ``cls``; fields the annotated names of every
    dataclass and NamedTuple.
    """
    flags = params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            flags += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            named = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            params += sum(x is not None and x.arg not in ("self", "cls") for x in named)
        elif isinstance(node, ast.ClassDef) and is_record(node):
            fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return flags, params, fields


# The package's settable values at most.  A change that adds a flag, a
# parameter or a field raises this in its own diff and says why.
SETTABLE_CEILING = 435


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = parse(path)
        used = used_names(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree).items()
            if name not in used
        ]
    assert not unused


def test_exports_is_the_one_public_name_list():
    # no submodule keeps a second list, and every exported name is defined
    # at its module's top level, where the package's lazy lookup finds it
    assert not [p.name for p in MODULES if declares_all(parse(p))]
    exports = assigned(parse(ROOT / "src" / "onesided" / "__init__.py"), "_EXPORTS")
    assert len(exports) == 8 and sum(map(len, exports.values())) > 60
    assert not undefined_exports(exports, {p.name: parse(p) for p in MODULES})


def test_private_names_are_read_in_the_package():
    # a private helper that only tests call is dead code
    assert not unread_private_names({p.name: parse(p) for p in PACKAGE})


def test_benchmark_names_resolve():
    # a deletion that would stop the benchmark at set-up, or leave a traced
    # layer unpatched, fails here instead
    trees = {p.name: parse(p) for p in BENCH}
    imported = set().union(*(package_imports(tree) for tree in trees.values()))
    traced = traced_targets(trees["tracing.py"])
    assert len(imported) > 20 and len(traced) > 20
    assert not unresolved(imported | traced)


def imported_modules(tree):
    """The modules the tree imports, by their dotted names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
    return names


def string_parts(tree):
    """Every string constant of the module, each f-string's literal parts included."""
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def test_the_seed_and_price_rules_each_have_one_message():
    # a second copy of either rule would bring its own message, and drift
    parts = [s for p in MODULES for s in string_parts(parse(p))]
    assert sum(s.startswith("seed must be nonnegative") for s in parts) == 1
    assert sum("finite nonnegative prices" in s for s in parts) == 1


def test_the_count_rule_has_one_message_and_only_core_imports_numbers():
    # a hand-written whole-number check needs `numbers`, or brings its own message
    parts = [s for p in MODULES for s in string_parts(parse(p))]
    assert sum("must be a whole number >= " in s for s in parts) == 1
    assert {p.name for p in PACKAGE if "numbers" in imported_modules(parse(p))} == {"core.py"}


def test_the_fraction_price_and_class_count_rules_live_in_core():
    # each message is written once, next to the type check only core can make
    texts = ("must be a number in [0, 1]", "finite nonnegative prices", "classes but the data has")
    for text in texts:
        homes = [p.name for p in MODULES for s in string_parts(parse(p)) if text in s]
        assert homes == ["core.py"], text


def test_settable_values_stay_under_the_ceiling():
    counts = [settable_values(parse(p)) for p in PACKAGE]
    assert sum(map(sum, counts)) <= SETTABLE_CEILING, [sum(c) for c in zip(*counts)]


def test_checks_see_what_they_are_meant_to():
    assert {"core.py", "train.py"} <= {p.name for p in MODULES}
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Iterable, Sequence\n"
        "from x import Quoted\n"
        "__all__ = ['f']\n"
        "def f(a: 'Quoted') -> Sequence[int]:\n"
        "    return a\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"os", "Iterable"}
    assert declares_all(tree) and declares_all(ast.parse("__all__ += ['g']\n"))
    assert not declares_all(ast.parse("def f():\n    __all__ = []\n"))
    exports = {"m": ("f", "Quoted", "ghost"), "n": ()}
    assert undefined_exports(exports, {"m.py": tree, "n.py": ast.parse("")}) == {"m ghost"}
    trees = {
        "a.py": ast.parse(
            "from b import _imported\n"
            "_CODE, _SPARE = 1, 2\n"
            "__version__ = '1'\n"
            "def _helper():\n"
            "    return _CODE\n"
            "def _dead():\n"
            "    pass\n"
            "class _Kept:\n"
            "    pass\n"
        ),
        "b.py": ast.parse(
            "import a\n"
            "def _imported():\n"
            "    return a._helper(), a._Kept\n"
        ),
    }
    assert unread_private_names(trees) == {"a.py _SPARE", "a.py _dead", "b.py _imported"}
    bench = ast.parse(
        "import onesided\n"
        "from onesided import evaluate, ghost\n"
        "from onesided.core import LabeledDataset\n"
        "from numpy import zeros\n"
        "TARGETS = (\n"
        "    ('a', 'onesided.core', 'LabeledDataset.subset'),\n"
        "    ('b', 'onesided.core', 'LabeledDataset.gone'),\n"
        "    ('c', 'onesided.train', 'LeakLoss.value_and_grad'),\n"
        ")\n"
    )
    pairs = package_imports(bench) | traced_targets(bench)
    assert len(pairs) == 6
    assert unresolved(pairs) == {"onesided.ghost", "onesided.core.LabeledDataset.gone"}
    rule = ast.parse('def f(seed):\n    """seed."""\n    raise E(f"seed must be {seed}")\n')
    assert string_parts(rule) == ["seed.", "seed must be "]
    imports = ast.parse("import numbers, os.path\nfrom numbers import Real\nfrom . import core\n")
    assert imported_modules(imports) == {"numbers", "os.path"}
    settable = ast.parse(
        "p.add_argument('--a')\n"
        "def f(a, /, b=1, *c, d, **e):\n"
        "    def g(self, cls): pass\n"
        "class C:\n"
        "    x: int\n"
        "    def m(self, y): pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    def __post_init__(self): pass\n"
        "class N(NamedTuple):\n"
        "    x: int\n"
    )
    assert settable_values(settable) == (1, 6, 3)
