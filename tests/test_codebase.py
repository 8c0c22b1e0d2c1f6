"""Static checks on the source tree: every module-level name in budgex has a
reader outside the tests, every dataclass field has an attribute reader
outside the tests, every parameter of a module-level function or of a
top-level class's method is read in its body, and no module imports a name it
never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "budgex").glob("*.py"))
MODULES = [p for p in SRC if p.name != "__init__.py"]  # __init__ only re-exports

# Library API with no reader in the package or the benchmark, and why it stays.
UNREAD_ALLOWED = {
    "default_hard_delta": "the Delta_B of the sqrt(d/B) minimax floor",
}

# Dataclass fields with no attribute reader in the package or the benchmark, and why
# they stay.
PEHE_BOUND_COLUMN = ("the coverage audit's PEHE-bound columns, pinned by the 8 audit "
                     "digests; ROADMAP item 10 gives them a sweep reader")
UNREAD_FIELDS_ALLOWED = {
    "BoundCheckResult.pehe_values": PEHE_BOUND_COLUMN,
    "BoundCheckResult.pehe_bounds": PEHE_BOUND_COLUMN,
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def reads(tree):
    """Every name the tree loads, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def top_level_names(tree):
    """The defs, classes and constants a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


READERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_top_level_name_has_a_reader_outside_the_tests():
    read = set().union(*(reads(parse(p)) for p in READERS))
    unread = {name: p.name for p in MODULES for name in top_level_names(parse(p))
              if name not in read}
    assert set(unread) == set(UNREAD_ALLOWED), unread


def dataclass_fields(tree):
    """Class.field of each annotated field in the body of a @dataclass class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list):
            yield from (f"{node.name}.{f.target.id}" for f in node.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name))


def test_every_dataclass_field_has_an_attribute_reader_outside_the_tests():
    """A result field that only the tests read is an output no caller uses."""
    read = {n.attr for p in READERS for n in ast.walk(parse(p))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [field for p in MODULES for field in dataclass_fields(parse(p))
              if field.split(".")[1] not in read]
    assert sorted(unread) == sorted(UNREAD_FIELDS_ALLOWED), unread


def functions(tree):
    """(name, def) of each module-level function and each top-level class's method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef))


def test_every_parameter_of_a_module_level_function_is_read():
    """Methods of top-level classes too, but for self, which a method may pass
    on through super() alone, and a method that only raises, which refuses its
    arguments (as a box marginal refuses a tilt)."""
    unread = []
    for path in MODULES:
        for name, node in functions(parse(path)):
            body = node.body[1:] if ast.get_docstring(node) else node.body
            if len(body) == 1 and isinstance(body[0], ast.Raise):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}: {name}({p.arg})" for p in params
                       if p.arg not in read | {"self"}]
    assert unread == []


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in MODULES + sorted((ROOT / "tests").glob("*.py")):
        tree = parse(path)
        read = reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []
