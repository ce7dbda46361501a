"""Link-check the docs suite: every cross-reference must resolve.

Scans ``README.md``, ``docs/*.md``, the verify skill and the repolint
README for

* markdown links to local files (``[text](docs/operations.md#anchor)``)
  — the target file must exist relative to the citing document;
* inline-backtick code paths (`` `src/repro/cluster/rebalancer.py` ``,
  `` `net/protocol.py` ``, `` `benchmarks/suite/` `` …) — the path
  must exist relative to the repo root, or (for the short module forms
  the prose uses) under ``src/repro/``;
* inline-backtick settings (`` `cluster.wire_shards` ``,
  `` `config.cache.backend_entries` ``,
  `` `config.viewport_width` ``) — a dotted name rooted at a
  ``KyrixConfig`` section or at a retired one (`` `network.rtt_ms` ``),
  and any dotted name right after ``config.`` whatever its first word,
  must name a field that exists.  The prose also
  roots two other vocabularies at section names, and they resolve too:
  the benchmark's metric names (``BENCHMARK.json``) and attributes of the
  ``ShardedCluster`` handle the examples call ``cluster``;
* inline-backtick symbol citations (`` `net/protocol.py::gather_rows` ``,
  `` `tests/x.py::TestClass::test_case[param]` ``) — the file must exist
  as a cited path does, and the name after ``::`` must be a class,
  function or assigned constant at its top level; a further ``::member``
  must be defined in that class's body.  A parametrize id in brackets is
  not part of the name.

Fenced code blocks are skipped: they hold example output and
hypothetical snippets, not citations. A doc that names a file which
later gets moved or deleted fails CI here instead of rotting silently.

Run with::

    python docs/check_links.py
"""

from __future__ import annotations

import ast
import json
import re
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.cluster.builder import ShardedCluster  # noqa: E402
from repro.config import KyrixConfig  # noqa: E402

#: ``[text](target)`` — target captured up to the closing paren.
_MD_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
#: Inline code spans (single backticks; fenced blocks are stripped first).
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
#: File extensions a cited path ends in (``config.py`` is a file, not a field).
_EXTENSIONS = r"py|md|json|jsonl|ya?ml|txt|ini"
#: A word inside a code span that cites a checkable path: contains a
#: slash and ends in a known file extension or a trailing slash
#: (directory citation). Everything else — dotted module names, config
#: knobs, HTTP endpoints, metric labels — is not a filesystem claim.
_PATH_WORD = re.compile(
    r"^[A-Za-z0-9_][A-Za-z0-9_.\-/]*(?:\.(?:%s)|/)$" % _EXTENSIONS
)
#: A symbol citation: ``path.py::Name[::member][[param id]]``.
_SYMBOL_WORD = re.compile(r"^([A-Za-z0-9_][A-Za-z0-9_.\-/]*\.py)((?:::\w+)+)(?:\[[^\]]*\])?$")
#: Sections ``KyrixConfig`` no longer has: a setting cited under one of
#: them names nothing, so it is checked (and fails) like any other.
_RETIRED_SECTIONS = ("network", "prefetch")
#: A setting: ``section.field[.field]`` rooted at a ``KyrixConfig`` section
#: or a retired one (group 1), or any dotted name right after ``config.``
#: (group 2, ``router.config.cluster.x``, ``config.viewport_width``).
_DEFAULTS = KyrixConfig()
_SETTING = re.compile(
    r"(?<![\w./])((?:%s)(?!\.py)(?:\.[a-z_]+)+)|(?<!\w)config\.(?!(?:%s)\b)([a-z_]+(?:\.[a-z_]+)*)"
    % (
        "|".join(
            [
                spec.name for spec in fields(_DEFAULTS)
                if is_dataclass(getattr(_DEFAULTS, spec.name))
            ]
            + list(_RETIRED_SECTIONS)
        ),
        _EXTENSIONS,
    )
)
_METRICS = {
    metric["name"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}
_CLUSTER_HANDLE = {spec.name for spec in fields(ShardedCluster)} | set(
    vars(ShardedCluster)
)


def _is_setting(dotted: str) -> bool:
    node = _DEFAULTS
    for part in dotted.split("."):
        if not is_dataclass(node) or part not in {f.name for f in fields(node)}:
            return False
        node = getattr(node, part)
    return True


def _strip_fenced_blocks(text: str) -> str:
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        out.append("" if fenced else line)
    return "\n".join(out)


def _candidates(word: str) -> list[Path]:
    return [ROOT / word, ROOT / "src" / "repro" / word]


def _defined(body: list[ast.stmt], name: str) -> ast.stmt | None:
    """The statement of ``body`` that defines ``name``: a class, a function
    or an assignment to it."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [
                target.id
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)
            ]
        else:
            continue
        if name in targets:
            return node
    return None


def _symbol_problem(word: str) -> str | None:
    """Why a ``path.py::Name[::member]`` citation names nothing, or ``None``."""
    cited, symbols = _SYMBOL_WORD.match(word).groups()
    source = next((path for path in _candidates(cited) if path.is_file()), None)
    if source is None:
        return f"cited path does not exist -> {word}"
    node: ast.AST | None = ast.parse(source.read_text(encoding="utf-8"))
    for name in symbols.split("::")[1:]:
        body = node.body if isinstance(node, (ast.Module, ast.ClassDef)) else []
        node = _defined(body, name)
        if node is None:
            return f"cited symbol is not defined -> {word}"
    return None


def check_document(doc: Path) -> list[str]:
    text = _strip_fenced_blocks(doc.read_text(encoding="utf-8"))
    problems = []

    for match in _MD_LINK.finditer(text):
        target = match.group(1).split("#", 1)[0]
        if not target or "://" in target or target.startswith("mailto:"):
            continue
        if not (doc.parent / target).exists():
            problems.append(f"{doc.relative_to(ROOT)}: broken link -> {target}")

    for span in _INLINE_CODE.finditer(text):
        for match in _SETTING.finditer(span.group(1)):
            dotted = match.group(1) or match.group(2)
            root, _, rest = dotted.partition(".")
            if not (
                _is_setting(dotted)
                or dotted in _METRICS
                or (root == "cluster" and rest.split(".")[0] in _CLUSTER_HANDLE)
            ):
                problems.append(
                    f"{doc.relative_to(ROOT)}: no such config field -> {dotted}"
                )
        for word in span.group(1).split():
            if _SYMBOL_WORD.match(word):
                problem = _symbol_problem(word)
                if problem:
                    problems.append(f"{doc.relative_to(ROOT)}: {problem}")
                continue
            if "/" not in word or not _PATH_WORD.match(word):
                continue
            if not any(path.exists() for path in _candidates(word)):
                problems.append(
                    f"{doc.relative_to(ROOT)}: cited path does not exist -> {word}"
                )
    return problems


def main() -> int:
    documents = [
        ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md")),
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        ROOT / "src" / "repro" / "analysis" / "README.md",
    ]
    problems = [p for doc in documents for p in check_document(doc)]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"docs link-check: {len(documents)} documents, "
        f"{len(problems)} broken references"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
