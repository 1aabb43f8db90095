"""The package root exports only what the command line, the demos and the
README use, so public API nothing calls cannot come back unnoticed."""

import ast
import re
from pathlib import Path

import approxsub

ROOT = Path(__file__).resolve().parents[1]


def _imported_names(path: Path, from_package_root: bool) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "approxsub" or not from_package_root):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_by_the_cli_a_demo_or_the_readme():
    exported = {name for name, obj in vars(approxsub).items()
                if not name.startswith("_") and not isinstance(obj, type(approxsub))}
    used = _imported_names(ROOT / "src" / "approxsub" / "cli.py", from_package_root=False)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _imported_names(demo, from_package_root=True)
    readme_code = " ".join(re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()))
    used |= set(re.findall(r"\w+", readme_code))
    assert exported, "the package root exports nothing"
    assert sorted(exported - used) == []


def test_demos_import_only_exported_names():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for name in _imported_names(demo, from_package_root=True):
            assert hasattr(approxsub, name), (demo.name, name)
