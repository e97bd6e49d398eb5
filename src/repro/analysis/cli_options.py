"""``cli-options``: shared command-line flags live only in ``repro/cli.py``.

The shared flag set used to be re-declared across the module CLIs with
drifting defaults and help strings, so any ``add_argument`` call outside
``cli.py`` that re-declares one of ``SHARED_OPTION_STRINGS`` is a finding —
CLIs pick shared flags with ``repro.cli.add_options`` instead.

The banned strings are read from ``cli.py``'s AST rather than imported, so
the checker needs no importable package and works on fixture trees.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set, Tuple

from . import Finding, Project, register

CLI_MODULE = "cli.py"
REGISTRY_NAME = "SHARED_OPTION_STRINGS"


def _shared_option_strings(tree: ast.Module) -> Set[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == REGISTRY_NAME for t in node.targets
        ):
            return {
                const.value
                for const in ast.walk(node.value)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
            }
    return set()


def find_duplicates(package_root: Path) -> List[Tuple[Path, int, str]]:
    """(path, line, option) triples for every banned re-declaration.

    The checker wraps these triples as findings; tests call this directly.
    """
    cli_path = package_root / CLI_MODULE
    if not cli_path.is_file():
        return []
    banned = _shared_option_strings(
        ast.parse(cli_path.read_text(encoding="utf-8"), filename=str(cli_path))
    )
    duplicates: List[Tuple[Path, int, str]] = []
    for path in sorted(package_root.rglob("*.py")):
        if path == cli_path or "__pycache__" in path.parts:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                continue
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value in banned
                ):
                    duplicates.append((path, node.lineno, arg.value))
    return duplicates


@register(
    "cli-options",
    "shared CLI options are declared only in repro/cli.py (use add_options)",
)
def check(project: Project) -> List[Finding]:
    cli_path = project.package_root / CLI_MODULE
    if not cli_path.is_file():
        return [
            Finding(
                project.relpath(cli_path),
                1,
                "cli-options/missing-anchor",
                "expected repro/cli.py (the shared-option registry) to exist",
            )
        ]
    return [
        Finding(
            project.relpath(path),
            line,
            "cli-options/duplicate-option",
            f"{option} re-declared outside repro/cli.py; attach it with "
            "repro.cli.add_options so defaults and help text cannot drift",
        )
        for path, line, option in find_duplicates(project.package_root)
    ]
