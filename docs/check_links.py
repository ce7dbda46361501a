"""Link-check the docs suite: every cross-reference must resolve.

Scans ``README.md``, ``docs/*.md``, the verify skill and the repolint
README for

* markdown links to local files (``[text](docs/operations.md#anchor)``)
  — the target file must exist relative to the citing document;
* inline-backtick code paths (`` `src/repro/cluster/autopilot.py` ``,
  `` `net/protocol.py` ``, `` `benchmarks/suite/` `` …) — the path
  must exist relative to the repo root, or (for the short module forms
  the prose uses) under ``src/repro/``;
* inline-backtick settings (`` `cluster.wire_shards` ``,
  `` `config.cache.backend_entries` ``,
  `` `cluster.autopilot.cooldown_s` ``) — a dotted name rooted at a
  ``KyrixConfig`` section must name a field that exists.  The prose also
  roots two other vocabularies at those words, and they resolve too: the
  benchmark's metric names (``BENCHMARK.json``) and attributes of the
  ``ShardedCluster`` handle the examples call ``cluster``.

Fenced code blocks are skipped: they hold example output and
hypothetical snippets, not citations. A doc that names a file which
later gets moved or deleted fails CI here instead of rotting silently.

Run with::

    python docs/check_links.py
"""

from __future__ import annotations

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
#: A word inside a code span that cites a checkable path: contains a
#: slash and ends in a known file extension or a trailing slash
#: (directory citation). Everything else — dotted module names, config
#: knobs, HTTP endpoints, metric labels — is not a filesystem claim.
_PATH_WORD = re.compile(
    r"^[A-Za-z0-9_][A-Za-z0-9_.\-/]*(?:\.(?:py|md|json|jsonl|ya?ml|txt|ini)|/)$"
)
#: ``section.field[.field]`` rooted at a ``KyrixConfig`` section, either
#: free-standing or right after ``config.`` (``router.config.cluster.x``).
_DEFAULTS = KyrixConfig()
_SETTING = re.compile(
    r"(?:(?<![\w./])|(?<=config\.))((?:%s)(?!\.py)(?:\.[a-z_]+)+)"
    % "|".join(
        spec.name for spec in fields(_DEFAULTS)
        if is_dataclass(getattr(_DEFAULTS, spec.name))
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
            dotted = match.group(1)
            section, name = dotted.split(".")[:2]
            if not (
                _is_setting(dotted)
                or dotted in _METRICS
                or (section == "cluster" and name in _CLUSTER_HANDLE)
            ):
                problems.append(
                    f"{doc.relative_to(ROOT)}: no such config field -> {dotted}"
                )
        for word in span.group(1).split():
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
