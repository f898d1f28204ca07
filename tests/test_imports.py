import ast
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from toruscollapse.dynamics import StationaryTable
from toruscollapse.lattice import PointConfig, TorusConfig
from toruscollapse.measures import ClosedArc, CumulativeFunction, TorusMeasure

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toruscollapse"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_no_module_imports_a_private_name_from_a_sibling():
    """Package modules share only public names: an underscore-prefixed
    name is private to its module (__version__ is exempt)."""
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name != "__version__"
                ]
    assert private == []


def _definitions():
    """(name, node) for every module-level function or class and every
    non-dunder method in the package, with the parsed modules."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (sub.name, sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
    return defs, trees


def _name_counts(node) -> Counter:
    """Occurrences of every ast.Name id and ast.Attribute attr under node.
    Import aliases are neither, so imports and __init__ re-exports do not
    count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_unreached_definition_is_a_named_oracle():
    """A definition is reached when its name occurs as a name or attribute
    anywhere in the package outside its own body.  No definition may be
    unreached: an oracle that only tests need is named in tests/oracles.py,
    not kept in the package.

    Matching is by name only, so a method whose name is also used as an
    attribute elsewhere (say a method `slopes` beside a field `slopes`)
    counts as reached even if nothing calls it."""
    defs, trees = _definitions()
    everywhere = sum((_name_counts(tree) for tree in trees), Counter())
    inside = Counter()
    for name, node in defs:
        inside[name] += _name_counts(node)[name]
    assert sorted(name for name, _ in defs if everywhere[name] == inside[name]) == []


def test_every_oracle_is_called_by_a_test():
    """Every public function of tests/oracles.py is called from some
    tests/test_*.py, so an oracle cannot outlive the test that uses it."""
    tests = PACKAGE.parents[1] / "tests"
    oracles = ast.parse((tests / "oracles.py").read_text())
    public = {
        node.name
        for node in oracles.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public
    called = set()
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    assert sorted(public - called) == []


def test_package_root_binds_only_the_version():
    """Each name is imported from its defining module: the package root
    re-exports nothing, so no caller has a second way in."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    assert bound == ["__version__"]


def test_no_class_writes_its_own_equality_or_immutability():
    """Equality, hashing and immutability come from one idiom: a value type
    is a frozen dataclass, a NamedTuple or a tuple of its fields, so no
    class defines __setattr__, __eq__, __hash__ or a _key for them."""
    written = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                names = [sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)]
                names += [
                    t.id
                    for sub in node.body
                    if isinstance(sub, ast.Assign)
                    for t in sub.targets
                    if isinstance(t, ast.Name)
                ]
                written += [
                    f"{path.name}: {node.name}.{name}"
                    for name in names
                    if name in ("__setattr__", "__eq__", "__hash__", "_key")
                ]
    assert written == []


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: TorusConfig([1, 0, 1]), "occupied"),
        (lambda: PointConfig(["1/4", "1/2"]), "nums"),
        (lambda: TorusMeasure([0, "1/2"], [1, 0], [("3/4", "1/3")]), "grid"),
        (lambda: CumulativeFunction(ClosedArc(Fraction(0), Fraction(1, 2)), 2, [0, 1], 3, [0, 2]), "vals"),
        (lambda: StationaryTable([((0, 1), 1), ((1, 0), 1)], 2), "weights"),
    ],
)
def test_value_types_are_immutable_and_hash_by_value(make, field):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    # a name that is no field is refused too: as TypeError on Python 3.11,
    # whose slotted frozen dataclasses check it against the class before slots
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    assert value == make() and hash(value) == hash(make())
