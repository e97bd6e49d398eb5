"""Repo-specific static analysis: ``python -m repro.analysis``.

Generic linters check style; this package checks the *invariants this
repository's correctness actually rests on* — the properties the test
suite can only sample but an AST walk can prove for every call site:

``determinism``
    nothing under ``src/repro`` reads wall-clock time, an unseeded RNG or
    nondeterministic set iteration order (reports and cache keys must be
    byte-stable across runs);
``cache-key``
    every :class:`~repro.experiments.cells.CellSpec` field that can
    influence a :class:`~repro.sim.SimulationResult` participates in the
    result-cache content key (or is explicitly exempted with a rationale);
``backend-parity``
    every vectorized entry point of the NumPy backend is dispatched under
    the ``_Unsupported`` escape hatch, can actually bail out, falls back to
    the exact Python loops, and is named in the parity tests;
``lock-discipline``
    attributes shared across threads (``repro.serve`` job tables, result
    cache counters) are only mutated while holding the owning lock;
``env-registry``
    every ``REPRO_*`` environment variable is declared once in
    :mod:`repro.envvars` and read only through it;
``cli-options``
    shared command-line options are declared only in :mod:`repro.cli`;
``facade-docstrings``
    every symbol re-exported by ``repro/__init__.py`` (the stable public
    API) resolves to a documented definition — functions, classes and
    their public methods, modules, and ``#:``-annotated constants.

Checkers are registered with :func:`register` and run with
:func:`run_analysis`, which applies inline suppressions::

    something_nondeterministic()  # repro: allow[determinism] progress print only

A standalone ``# repro: allow[...]`` comment line covers the following
line; ``# repro: allow-file[...]`` covers the whole file.  A suppression
without a reason, or naming an unknown checker, is itself a finding and
suppresses nothing — exceptions to the invariants must be explained.

The CLI (``python -m repro.analysis``) exits non-zero when any finding
survives, which is how CI gates on it; fixture trees under
``tests/analysis_fixtures/`` pin that every checker both fires on seeded
violations and stays silent on their clean twins.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Checker",
    "Finding",
    "Project",
    "checkers",
    "register",
    "run_analysis",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation, anchored to a source line.

    Ordered by location so reports are stable; ``code`` is
    ``<checker-id>/<rule>`` (the id in a suppression comment matches the
    part before the slash).
    """

    path: str  #: repo-root-relative posix path
    line: int  #: 1-based line number
    code: str  #: ``<checker-id>/<rule>``
    message: str

    @property
    def checker_id(self) -> str:
        """The registering checker's id (``code`` before the slash)."""
        return self.code.split("/", 1)[0]

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.code}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """The plain-dict form the ``--json`` CLI output serializes."""
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "message": self.message,
        }


class SourceFile:
    """One parsed python file (text, lines and AST, parsed once)."""

    def __init__(self, path: Path, project: "Project") -> None:
        self.path = path
        self.relpath = project.relpath(path)
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(path))


class Project:
    """The tree under analysis: the real repo or a fixture mirroring it.

    Checkers never import the code they inspect — everything is resolved
    from ``repo_root`` by the same ``src/repro`` + ``tests`` layout the
    repository uses, which is what lets the fixture packages under
    ``tests/analysis_fixtures/`` exercise every checker hermetically.
    """

    def __init__(self, repo_root: Path) -> None:
        self.repo_root = Path(repo_root).resolve()
        self.package_root = self.repo_root / "src" / "repro"
        self.tests_root = self.repo_root / "tests"
        self._sources: Dict[Path, SourceFile] = {}

    def relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.repo_root).as_posix()
        except ValueError:
            return path.as_posix()

    def source(self, path: Path) -> SourceFile:
        path = path.resolve()
        cached = self._sources.get(path)
        if cached is None:
            cached = self._sources[path] = SourceFile(path, self)
        return cached

    def package_files(self) -> List[SourceFile]:
        """Every python file under ``src/repro``, stably ordered."""
        return [
            self.source(path)
            for path in sorted(self.package_root.rglob("*.py"))
            if "__pycache__" not in path.parts
        ]


@dataclass(frozen=True)
class Checker:
    """A registered checker: an id, a one-liner, and its entry point."""

    id: str
    description: str
    run: Callable[[Project], List[Finding]]


_CHECKERS: Dict[str, Checker] = {}

#: The built-in checker modules, imported on first use (they import this
#: package back for :func:`register`, so loading is deferred past init).
_BUILTIN_MODULES = (
    "determinism",
    "cache_key",
    "backend_parity",
    "lock_discipline",
    "env_registry",
    "cli_options",
    "facade_docstrings",
)


def register(checker_id: str, description: str):
    """Class/function decorator registering ``fn(project) -> findings``."""

    def decorate(fn: Callable[[Project], List[Finding]]):
        if checker_id in _CHECKERS:
            raise ValueError(f"duplicate checker id {checker_id!r}")
        _CHECKERS[checker_id] = Checker(checker_id, description, fn)
        return fn

    return decorate


def _load_builtins() -> None:
    import importlib

    for name in _BUILTIN_MODULES:
        importlib.import_module(f"{__name__}.{name}")


def checkers() -> Tuple[Checker, ...]:
    """Every registered checker, id-ordered."""
    _load_builtins()
    return tuple(_CHECKERS[key] for key in sorted(_CHECKERS))


# ---------------------------------------------------------------------------
# Suppressions


_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow(?P<scope>-file)?\[(?P<id>[A-Za-z0-9_-]+)\]\s*(?P<reason>.*)$"
)


@dataclass
class _FileSuppressions:
    file_ids: Set[str]
    line_ids: Dict[int, Set[str]]
    findings: List[Finding]

    def allows(self, finding: Finding) -> bool:
        checker_id = finding.checker_id
        if checker_id in self.file_ids:
            return True
        return checker_id in self.line_ids.get(finding.line, set())


def _comment_tokens(source: SourceFile) -> Iterable[Tuple[int, str]]:
    """(line, comment-text) pairs, via tokenize so strings can't fake one."""
    try:
        readline = iter(f"{line}\n" for line in source.lines).__next__
        for token in tokenize.generate_tokens(readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except tokenize.TokenError:
        return


def _file_suppressions(source: SourceFile, known_ids: Set[str]) -> _FileSuppressions:
    supp = _FileSuppressions(set(), {}, [])
    for line, comment in _comment_tokens(source):
        match = _ALLOW_RE.search(comment)
        if match is None:
            continue
        checker_id = match.group("id")
        if not match.group("reason").strip():
            supp.findings.append(
                Finding(
                    source.relpath,
                    line,
                    "suppression/missing-reason",
                    f"allow[{checker_id}] without a reason; "
                    "say why the invariant does not apply here",
                )
            )
            continue
        if checker_id not in known_ids:
            supp.findings.append(
                Finding(
                    source.relpath,
                    line,
                    "suppression/unknown-checker",
                    f"allow[{checker_id}] names no registered checker "
                    f"(known: {', '.join(sorted(known_ids))})",
                )
            )
            continue
        if match.group("scope"):
            supp.file_ids.add(checker_id)
        else:
            supp.line_ids.setdefault(line, set()).add(checker_id)
            # A comment-only line covers the statement on the next line.
            if source.lines[line - 1].lstrip().startswith("#"):
                supp.line_ids.setdefault(line + 1, set()).add(checker_id)
    return supp


# ---------------------------------------------------------------------------
# Shared AST helpers used by several checkers


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_with_parents(root: ast.AST) -> Iterable[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Depth-first (node, ancestors) pairs — for lexical-scope questions."""
    stack: List[Tuple[ast.AST, Tuple[ast.AST, ...]]] = [(root, ())]
    while stack:
        node, parents = stack.pop()
        yield node, parents
        child_parents = parents + (node,)
        stack.extend((child, child_parents) for child in ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# Driver


def run_analysis(
    repo_root: "Path | str | None" = None,
    checker_ids: Optional[Sequence[str]] = None,
    project: Optional[Project] = None,
) -> List[Finding]:
    """Run the selected checkers and apply suppressions; sorted findings.

    ``repo_root`` defaults to the repository this package sits in;
    ``project`` overrides it entirely (how the fixture tests point the
    checkers at a seeded tree).
    """
    if project is None:
        root = Path(repo_root) if repo_root is not None else default_repo_root()
        project = Project(root)
    if not project.package_root.is_dir():
        raise FileNotFoundError(
            f"no src/repro package under {project.repo_root} — not a repo root"
        )
    selected = checkers()
    if checker_ids is not None:
        known = {checker.id for checker in selected}
        unknown = sorted(set(checker_ids) - known)
        if unknown:
            raise KeyError(
                f"unknown checker ids {unknown}; known: {', '.join(sorted(known))}"
            )
        selected = tuple(c for c in selected if c.id in set(checker_ids))
    raw: List[Finding] = []
    for checker in selected:
        raw.extend(checker.run(project))
    known_ids = {checker.id for checker in checkers()}
    findings: List[Finding] = []
    for source in project.package_files():
        supp = _file_suppressions(source, known_ids)
        findings.extend(supp.findings)
        by_path = [f for f in raw if f.path == source.relpath]
        findings.extend(f for f in by_path if not supp.allows(f))
        raw = [f for f in raw if f.path != source.relpath]
    findings.extend(raw)  # findings outside src/repro are not suppressible
    return sorted(set(findings))


def default_repo_root() -> Path:
    """The checkout this module was imported from (src-layout assumption)."""
    return Path(__file__).resolve().parents[3]
