"""The repolint plugin framework: findings, checkers, suppressions, baseline.

A :class:`Checker` inspects one parsed module and yields
:class:`Finding` objects.  The runner (:func:`run_analysis`) walks the
source tree (``src/ tests/ benchmarks/ examples/``), applies every
registered checker, drops findings that are suppressed inline
(``# repolint: disable=<rule>`` on the offending line or on the enclosing
``def``/``class`` line) and splits the rest into *baselined* (grandfathered
in ``baseline.json``) and *fresh* findings.  Only fresh findings fail the
build.  A suppression comment that suppressed nothing is itself a finding
(``inert-suppression``): removing it would change nothing, so it only
hides what a later edit there might break.

Baseline entries match on ``(rule, path, message)`` — deliberately not on
line number, so grandfathered findings survive unrelated edits above them.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: Directories (relative to the repo root) the tree walker covers.
DEFAULT_TREES = ("src", "tests", "benchmarks", "examples")

#: Where the grandfathered-findings baseline lives, relative to the root.
BASELINE_PATH = Path("src") / "repro" / "analysis" / "baseline.json"

_SUPPRESS_RE = re.compile(r"#\s*repolint:\s*disable=([A-Za-z0-9_\-, ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: repo-root-relative POSIX path
    line: int  #: 1-based line number
    message: str
    severity: str = "error"  #: ``"error"`` or ``"warning"``

    def baseline_key(self) -> tuple[str, str, str]:
        """Identity for baseline matching; line numbers drift, so they
        are deliberately excluded."""
        return (self.rule, self.path, self.message)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class _Scope:
    """A def/class span, for def-line suppressions covering a whole body."""

    start: int
    end: int
    header_lines: tuple[int, ...]


class ModuleSource:
    """One source file: text, lazily parsed AST, and suppression map."""

    def __init__(self, path: Path, rel_path: str, text: str | None = None) -> None:
        self.path = path
        self.rel_path = rel_path
        self.text = path.read_text(encoding="utf-8") if text is None else text
        self._tree: ast.Module | None = None
        self._parse_error: SyntaxError | None = None
        self._suppressions: dict[int, set[str]] | None = None
        self._scopes: list[_Scope] | None = None

    @property
    def tree(self) -> ast.Module | None:
        """The parsed module, or ``None`` when the file does not parse
        (the runner reports a ``parse-error`` finding instead)."""
        if self._tree is None and self._parse_error is None:
            try:
                self._tree = ast.parse(self.text, filename=str(self.path))
            except SyntaxError as exc:
                self._parse_error = exc
        return self._tree

    @property
    def parse_error(self) -> SyntaxError | None:
        self.tree
        return self._parse_error

    def suppressions(self) -> dict[int, set[str]]:
        """Line number -> rule ids disabled by the ``# repolint: disable=``
        comment on that line (the module must parse).  Only real comments
        count: the same text inside a string (a test's fixture source)
        suppresses nothing."""
        if self._suppressions is None:
            suppressions: dict[int, set[str]] = {}
            # Most files carry no suppression; only those pay for tokenizing.
            if "repolint:" in self.text:
                readline = io.StringIO(self.text).readline
                for token in tokenize.generate_tokens(readline):
                    if token.type != tokenize.COMMENT:
                        continue
                    match = _SUPPRESS_RE.search(token.string)
                    if match:
                        rules = {part.strip() for part in match.group(1).split(",")}
                        suppressions[token.start[0]] = {rule for rule in rules if rule}
            self._suppressions = suppressions
        return self._suppressions

    def _scope_spans(self) -> list[_Scope]:
        """Spans of every function/class definition, with the lines that
        count as its "def line" (the ``def``/``class`` statement itself and
        any decorator lines above it)."""
        if self._scopes is None:
            scopes: list[_Scope] = []
            tree = self.tree
            if tree is not None:
                for node in ast.walk(tree):
                    if isinstance(
                        node,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        header = [node.lineno]
                        header.extend(
                            decorator.lineno for decorator in node.decorator_list
                        )
                        scopes.append(
                            _Scope(
                                start=min(header),
                                end=node.end_lineno or node.lineno,
                                header_lines=tuple(header),
                            )
                        )
            self._scopes = scopes
        return self._scopes

    def suppression_for(self, rule: str, line: int) -> int | None:
        """The line of the comment that disables ``rule`` for ``line`` —
        the line itself, or the header of an enclosing ``def``/``class`` —
        or ``None`` when nothing does."""
        suppressions = self.suppressions()

        def disabled_at(number: int) -> bool:
            rules = suppressions.get(number)
            return bool(rules) and (rule in rules or "all" in rules)

        if disabled_at(line):
            return line
        for scope in self._scope_spans():
            if scope.start <= line <= scope.end:
                for header in scope.header_lines:
                    if disabled_at(header):
                        return header
        return None


class Checker:
    """Base class for one rule.  Subclasses set :attr:`rule` /
    :attr:`description` and implement :meth:`check`."""

    #: The rule id used in findings, CLI filters and suppressions.
    rule: str = ""
    #: One-line summary shown by ``python -m repro.analysis --rules``.
    description: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleSource,
        line: int,
        message: str,
        *,
        severity: str = "error",
    ) -> Finding:
        return Finding(
            rule=self.rule,
            path=module.rel_path,
            line=line,
            message=message,
            severity=severity,
        )


#: rule id -> checker class, in registration order.
_REGISTRY: dict[str, type[Checker]] = {}


def register(checker: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not checker.rule:
        raise ValueError(f"{checker.__name__} must set a rule id")
    if checker.rule in _REGISTRY:
        raise ValueError(f"duplicate rule id {checker.rule!r}")
    _REGISTRY[checker.rule] = checker
    return checker


def all_rules() -> dict[str, type[Checker]]:
    """The registered checkers (importing :mod:`repro.analysis.rules` to
    pick up the built-in pack)."""
    from . import rules  # noqa: F401  (import registers the rule pack)

    return dict(_REGISTRY)


def iter_source_files(
    root: Path, trees: Iterable[str] = DEFAULT_TREES
) -> Iterator[Path]:
    """Every ``*.py`` file under the covered trees, sorted, skipping
    caches and hidden directories."""
    for tree_name in trees:
        base = root / tree_name
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            parts = path.relative_to(root).parts
            if any(part == "__pycache__" or part.startswith(".") for part in parts):
                continue
            yield path


def load_baseline(path: Path) -> list[dict[str, Any]]:
    """The grandfathered-findings entries, or ``[]`` when absent."""
    if not path.is_file():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("entries", [])
    for entry in entries:
        for key in ("rule", "path", "message"):
            if key not in entry:
                raise ValueError(f"baseline entry missing {key!r}: {entry}")
    return entries


@dataclass
class AnalysisResult:
    """Everything one run produced, split for reporting."""

    fresh: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    files_checked: int = 0
    stale_baseline: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.fresh

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed_count,
            "findings": [finding.to_dict() for finding in self.fresh],
            "baselined": [finding.to_dict() for finding in self.baselined],
            "stale_baseline": list(self.stale_baseline),
        }


def check_module(
    module: ModuleSource,
    checkers: Iterable[Checker],
) -> tuple[list[Finding], int]:
    """All non-suppressed findings for one module, plus how many were
    suppressed inline.  Each suppression that suppressed nothing is an
    ``inert-suppression`` finding — judged only for the rules that ran
    (``disable=all`` only when every registered rule did), so a narrowed
    run never blames a comment aimed at a rule it skipped."""
    findings: list[Finding] = []
    suppressed = 0
    if module.parse_error is not None:
        error = module.parse_error
        findings.append(
            Finding(
                rule="parse-error",
                path=module.rel_path,
                line=error.lineno or 1,
                message=f"file does not parse: {error.msg}",
            )
        )
        return findings, suppressed
    checkers = list(checkers)
    used: set[tuple[int, str]] = set()
    for checker in checkers:
        for finding in checker.check(module):
            where = module.suppression_for(finding.rule, finding.line)
            if where is None:
                findings.append(finding)
            else:
                suppressed += 1
                named = finding.rule in module.suppressions()[where]
                used.add((where, finding.rule if named else "all"))
    findings.extend(_inert_suppressions(module, used, {c.rule for c in checkers}))
    return findings, suppressed


def _inert_suppressions(
    module: ModuleSource, used: set[tuple[int, str]], ran: set[str]
) -> Iterator[Finding]:
    known = set(all_rules())
    for line, rules in sorted(module.suppressions().items()):
        for rule in sorted(rules):
            if (line, rule) in used:
                continue
            if rule == "all":
                if not known <= ran:
                    continue
                message = "`disable=all` suppresses nothing"
            elif rule not in known:
                message = f"suppression names {rule!r}, which is no rule"
            elif rule not in ran:
                continue
            else:
                message = f"suppression of {rule} suppresses nothing"
            yield Finding(
                rule="inert-suppression", path=module.rel_path, line=line, message=message
            )


def run_analysis(
    root: Path,
    *,
    rules: Iterable[str] | None = None,
    baseline_path: Path | None = None,
    trees: Iterable[str] = DEFAULT_TREES,
    files: Iterable[Path] | None = None,
    source_loader: Callable[[Path], ModuleSource] | None = None,
) -> AnalysisResult:
    """Run the rule pack over the tree rooted at ``root``.

    ``rules`` restricts to a subset of rule ids; ``files`` overrides the
    tree walk with an explicit file list (used by the CLI's positional
    paths).  ``source_loader`` is a test seam for feeding synthetic
    sources.
    """
    registry = all_rules()
    if rules is not None:
        unknown = sorted(set(rules) - set(registry))
        if unknown:
            raise ValueError(f"unknown rule ids: {', '.join(unknown)}")
        registry = {rule: registry[rule] for rule in registry if rule in set(rules)}
    checkers = [checker_cls() for checker_cls in registry.values()]

    if baseline_path is None:
        baseline_path = root / BASELINE_PATH
    baseline_entries = load_baseline(baseline_path)
    baseline_keys = {
        (entry["rule"], entry["path"], entry["message"]): entry
        for entry in baseline_entries
    }

    result = AnalysisResult()
    matched_keys: set[tuple[str, str, str]] = set()
    paths = list(files) if files is not None else list(iter_source_files(root, trees))
    for path in paths:
        rel_path = path.relative_to(root).as_posix()
        module = (
            source_loader(path)
            if source_loader is not None
            else ModuleSource(path, rel_path)
        )
        result.files_checked += 1
        findings, suppressed = check_module(module, checkers)
        result.suppressed_count += suppressed
        for finding in findings:
            key = finding.baseline_key()
            if key in baseline_keys:
                matched_keys.add(key)
                result.baselined.append(finding)
            else:
                result.fresh.append(finding)
    result.stale_baseline = [
        entry for key, entry in baseline_keys.items() if key not in matched_keys
    ]
    result.fresh.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    return result


def find_repo_root(start: Path | None = None) -> Path:
    """The repository root: the nearest ancestor holding ``src/repro``."""
    candidates = []
    if start is not None:
        candidates.append(start)
    candidates.append(Path.cwd())
    candidates.append(Path(__file__).resolve().parents[3])
    for candidate in candidates:
        for directory in (candidate, *candidate.parents):
            if (directory / "src" / "repro").is_dir():
                return directory
    raise FileNotFoundError("cannot locate the repository root (src/repro)")
