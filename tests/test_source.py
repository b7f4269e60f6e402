"""Rules on the package source itself: every imported name is used, the
exit-code tiers in ``errors.py`` are the only exception classes, and every
config class checks itself when built."""

import ast
import importlib
from pathlib import Path

import credit_stack
from credit_stack import errors

SRC = Path(credit_stack.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports and never read; a name
    listed in ``__all__`` (a re-export) and ``annotations`` are exempt."""
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in read and name not in exported and name != "annotations"
    ]


def test_every_imported_name_is_used():
    offenders = {
        path.name: unused
        for path in MODULES
        if (unused := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert len(MODULES) > 10
    assert offenders == {}


def test_unused_import_guard_sees_an_unused_name():
    tree = ast.parse("from .errors import ConfigError, TrainError\nraise ConfigError('x')\n")
    assert _unused_imports(tree) == ["line 1: TrainError"]


def test_one_error_class_per_exit_code():
    defined = sorted(
        f"{module.__name__}.{name}"
        for module in (importlib.import_module(f"credit_stack.{p.stem}") for p in MODULES)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    )
    assert defined == [
        f"credit_stack.errors.{name}"
        for name in sorted(["ConfigError", "CreditStackError", "DataError",
                            "FoldTrainingError", "TrainError"])
    ]
    tiers = (errors.ConfigError, errors.DataError, errors.TrainError)
    assert [tier.exit_code for tier in tiers] == [2, 3, 4]
    assert issubclass(errors.FoldTrainingError, errors.TrainError)


def _unchecked_config_classes(tree: ast.Module) -> list[str]:
    """Classes that set ``config_name`` but whose ``__post_init__`` does not
    call ``check_config_object``: a nested config is trusted as built."""
    offenders = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not any(
            isinstance(stmt, ast.Assign)
            and "config_name" in {getattr(t, "id", None) for t in stmt.targets}
            for stmt in node.body
        ):
            continue
        calls = {call.func.id for stmt in node.body
                 if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
                 for call in ast.walk(stmt)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
        if "check_config_object" not in calls:
            offenders.append(node.name)
    return offenders


def test_every_config_class_checks_itself_when_built():
    found = {
        path.name: unchecked
        for path in MODULES
        if (unchecked := _unchecked_config_classes(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
    # the guard sees a config class, and one without the check
    tree = ast.parse("@dataclass\nclass A:\n    config_name = 'a'\n"
                     "    def __post_init__(self):\n        check_config_object(self)\n"
                     "@dataclass\nclass B:\n    config_name = 'b'\n    x: int = 0\n")
    assert _unchecked_config_classes(tree) == ["B"]
