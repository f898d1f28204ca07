import ast
import sys
from collections import Counter
from pathlib import Path

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


# Definitions no package code reaches, each kept as the independent route
# that the named test holds the package to.
ORACLES = {
    "class_label_decode": "tests/test_lattice.py::TestLabels::test_roundtrip_exhaustive",
    "discrete_flux": "tests/test_collapse.py::TestCrossRegime::test_config_flux_is_discrete_flux",
    "interval_mass": "tests/test_collapse.py::TestMeasure::test_random_invariants",
    "left_limit": "tests/test_collapse.py::TestPoints::test_counting_ledger_with_left_limits",
    "preimage_conditions": "tests/test_rate.py::TestPreimage::test_matches_collapse_on_random_candidates",
}


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
    anywhere in the package outside its own body.  Every unreached one must
    be a key of ORACLES, and every key must be defined and unreached.

    Matching is by name only, so a method whose name is also used as an
    attribute elsewhere (say a method `slopes` beside a field `slopes`)
    counts as reached even if nothing calls it."""
    defs, trees = _definitions()
    everywhere = sum((_name_counts(tree) for tree in trees), Counter())
    inside = Counter()
    for name, node in defs:
        inside[name] += _name_counts(node)[name]
    unreached = {name for name, _ in defs if everywhere[name] == inside[name]}
    assert sorted(unreached - ORACLES.keys()) == []
    assert sorted(ORACLES.keys() - unreached) == []
    for name, test in ORACLES.items():
        path, cls, func = test.split("::")
        text = (PACKAGE.parents[1] / path).read_text()
        assert f"class {cls}:" in text and f"def {func}(" in text, test
        assert name in text, test
