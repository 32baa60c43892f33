"""Every config field has a caller: an option nobody sets is a constant.

A field of a ``*Config`` dataclass under ``src/repro`` is an option, and
each one doubles the configurations the tests and the benchmark would
have to cover.  One that no code outside its own module passes as a
``name=`` keyword (a constructor call, ``dataclasses.replace``, a helper
that forwards it) has a single value in use, so it belongs in a named
constant beside the code that reads it.  A value other code only reads by
name is a ``ClassVar``, which is not a field.  Checked on the source with
``ast``, importing nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "bench", "examples")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def config_fields() -> dict[tuple[Path, str], list[str]]:
    """``(module, class) -> fields`` of every ``*Config`` dataclass."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                found[path, node.name] = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                ]
    return found


def keyword_setters() -> dict[str, set[Path]]:
    """``keyword -> modules`` passing it to some call."""
    setters: dict[str, set[Path]] = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    for kw in node.keywords:
                        if kw.arg is not None:
                            setters.setdefault(kw.arg, set()).add(path)
    return setters


def test_every_config_field_is_set_outside_its_module():
    configs = config_fields()
    assert len(configs) > 10, "the scan found too few configs to mean anything"
    setters = keyword_setters()
    unset = [
        f"{path.relative_to(ROOT)}: {cls}.{name}"
        for (path, cls), names in configs.items()
        for name in names
        if not setters.get(name, set()) - {path}
    ]
    assert not unset, (
        "config fields no caller sets (make each a constant, or a ClassVar "
        "where other code reads it by name):\n  " + "\n  ".join(unset)
    )
