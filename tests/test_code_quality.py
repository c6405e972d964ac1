"""Repository quality gates: documentation and import hygiene."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

MODULES = sorted(SRC.rglob("*.py"))


def test_every_module_has_a_docstring():
    undocumented = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        if ast.get_docstring(tree) is None:
            undocumented.append(str(path))
    assert not undocumented, f"modules without docstrings: {undocumented}"


def test_every_public_class_and_function_has_a_docstring():
    missing: list[str] = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    missing.append(f"{path.name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if (
                        isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")
                        and ast.get_docstring(member) is None
                    ):
                        missing.append(
                            f"{path.name}:{member.lineno} "
                            f"{node.name}.{member.name}"
                        )
    assert not missing, "undocumented public items:\n" + "\n".join(missing)


def test_no_unused_imports():
    """Heuristic unused-import detector (names must appear somewhere in
    the module text outside their own import line)."""
    offenders: list[str] = []
    for path in MODULES:
        text = path.read_text()
        tree = ast.parse(text)
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, lineno in imported.items():
            if name in used or name == "annotations":
                continue
            # string annotations / docs / __all__ references
            if f'"{name}"' in text or f"'{name}'" in text or f"`{name}`" in text:
                continue
            if f"{name}." in text or f"{name} |" in text or f"| {name}" in text:
                continue
            offenders.append(f"{path.name}:{lineno} {name}")
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def test_having_with_global_aggregate():
    """Regression for the HAVING-without-GROUP-BY fix."""
    from repro.fdbs.engine import Database

    db = Database("having")
    db.execute("CREATE TABLE t (a INT)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    assert db.execute("SELECT 1 FROM t HAVING COUNT(*) > 2").rows == [(1,)]
    assert db.execute("SELECT 1 FROM t HAVING COUNT(*) > 5").rows == []
    with pytest.raises(Exception):
        db.execute("SELECT 1 FROM t HAVING a > 1")  # no aggregate at all


def test_plan_operators_speak_only_the_chunk_protocol():
    """Every plan operator implements ``batches`` and none overrides
    ``rows`` — the base class's flattening helper is the only row view."""
    classes: dict[str, ast.ClassDef] = {}
    for path in sorted((SRC / "fdbs").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node

    def is_operator(name: str) -> bool:
        node = classes.get(name)
        if node is None:
            return False
        return any(
            isinstance(base, ast.Name)
            and (base.id == "Plan" or is_operator(base.id))
            for base in node.bases
        )

    def methods(node: ast.ClassDef) -> set[str]:
        return {
            member.name
            for member in node.body
            if isinstance(member, ast.FunctionDef)
        }

    operators = [name for name in classes if is_operator(name)]
    assert len(operators) >= 20, operators
    assert {"rows", "batches"} <= methods(classes["Plan"])
    overriding = [name for name in operators if "rows" in methods(classes[name])]
    assert not overriding, f"operators overriding rows(): {overriding}"
    missing = [name for name in operators if "batches" not in methods(classes[name])]
    assert not missing, f"operators without batches(): {missing}"


def test_operators_hold_one_closure_per_expression():
    """Operators evaluate each expression through one chunk closure: no
    class in the executor or planner assigns a ``batch_*`` twin
    attribute, and the executor never names ``execution_mode`` — the
    planner alone decides how a closure is built.  ``batch_invoker``
    (the batched table-function invoker of UDTF bind joins) is not an
    expression closure."""
    twins = []
    for name in ("executor.py", "planner.py"):
        tree = ast.parse((SRC / "fdbs" / name).read_text())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                twins.extend(
                    f"{name}: {cls.name} assigns .{target.attr}"
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and target.attr.startswith("batch_")
                    and target.attr != "batch_invoker"
                )
    assert not twins, twins
    executor = (SRC / "fdbs" / "executor.py").read_text()
    assert "execution_mode" not in executor
