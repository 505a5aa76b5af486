"""The package's public name lists, the owners of its quadrature rules and
the owners of the tip-end decisions."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import xfem2d

# xfem2d.__main__ runs the command line when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(xfem2d.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_listed_name(name):
    # `import *` raises for a name left in __all__ after its definition went
    namespace = {}
    exec(f"from xfem2d.{name} import *", namespace)
    listed = importlib.import_module(f"xfem2d.{name}").__all__
    assert listed and set(listed) <= namespace.keys()



_SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(skip=()):
    """Every module, class and function of the package's source, but for the
    modules named in ``skip``: a name (the module's, the class's, a method's
    class's or the function's), the node, and its own nodes, those of the
    classes and functions in it left out."""
    def visit(name, node):
        own, nested, stack = [], [], list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(child, _SCOPES):
                nested.append(child)
            else:
                own.append(child)
                stack.extend(ast.iter_child_nodes(child))
        yield name, node, own
        for child in nested:
            method = isinstance(node, ast.ClassDef) and not isinstance(child, ast.ClassDef)
            yield from visit(node.name if method else child.name, child)

    for path in sorted(pathlib.Path(xfem2d.__file__).parent.glob("*.py")):
        if path.stem not in skip:
            yield from visit(path.stem, ast.parse(path.read_text(encoding="utf-8")))


def test_only_the_rules_owners_take_rules():
    # Classification records the quadrature rules it counted with on the
    # map, and every consumer reads them there: only classification, the
    # stiffness cache and the rule set itself take them as an argument.
    takers = {name for name, node, _ in _scopes()
              if not isinstance(node, (ast.Module, ast.ClassDef))
              and "rules" in {a.arg for a in node.args.posonlyargs + node.args.args
                              + node.args.kwonlyargs}}
    assert {"classify_enrichment", "classify_with_remedy", "StiffnessCache"} <= takers
    assert takers <= {"classify_enrichment", "classify_with_remedy", "StiffnessCache",
                      "QuadratureSet"}


def test_only_classification_builds_the_default_rules():
    builders = {name for name, _, own in _scopes() for call in own
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "from_targets" and not call.args and not call.keywords}
    assert builders == {"classify_enrichment"}


def test_only_the_tip_angle_and_crack_walk_tell_the_tip_ends_apart():
    # Which end of its crack a tip is sets the sign of the branch angle
    # (tip_polar) and the direction a domain check walks the crack
    # (_own_crack_checks).  Outside the crack geometry, nothing else
    # compares a tip id with a constant: a vertex comes from tip_coord.
    def is_tip_id(node):
        return (isinstance(node, ast.Name) and node.id == "tip_id"
                or isinstance(node, ast.Attribute) and node.attr == "tip_id")

    comparers = {name for name, _, own in _scopes(skip={"cracks"}) for node in own
                 if isinstance(node, ast.Compare)
                 and any(map(is_tip_id, [node.left, *node.comparators]))
                 and any(isinstance(n, ast.Constant) for n in [node.left, *node.comparators])}
    assert comparers == {"tip_polar", "_own_crack_checks"}
