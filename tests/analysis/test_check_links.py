"""The docs link checker (``docs/check_links.py``) on planted citations."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("check_links", ROOT / "docs" / "check_links.py")
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


def _problems(tmp_path, monkeypatch, prose: str) -> list[str]:
    monkeypatch.setattr(check_links, "ROOT", tmp_path)
    doc = tmp_path / "doc.md"
    doc.write_text(prose, encoding="utf-8")
    return check_links.check_document(doc)


@pytest.mark.parametrize("setting", ["network.rtt_ms", "prefetch.enabled"])
def test_a_setting_under_a_retired_section_is_broken(tmp_path, monkeypatch, setting):
    """``KyrixConfig`` has no ``network`` or ``prefetch`` section any more,
    so a free-standing citation of one of their old fields names nothing."""
    problems = _problems(tmp_path, monkeypatch, f"Set `{setting}` to tune it.\n")
    assert problems == [f"doc.md: no such config field -> {setting}"]


def test_a_live_setting_and_fenced_citations_pass(tmp_path, monkeypatch):
    prose = (
        "Set `cluster.parallel_shards` or `config.viewport_width`.\n"
        "```\n`network.rtt_ms` inside a fence is example output\n```\n"
    )
    assert _problems(tmp_path, monkeypatch, prose) == []


_MODULE = '''\
LIMIT = 3
TOTAL: int = 4


def gather_rows():
    pass


class TestShapes:
    STRIDE = 2

    def test_refused(self):
        pass
'''


@pytest.mark.parametrize(
    "citation",
    [
        "net/columnar.py::gather_rows",
        "src/repro/net/columnar.py::LIMIT",
        "net/columnar.py::TOTAL",
        "net/columnar.py::TestShapes",
        "net/columnar.py::TestShapes::test_refused",
        "net/columnar.py::TestShapes::STRIDE",
        "net/columnar.py::TestShapes::test_refused[single]",
    ],
)
def test_a_live_symbol_citation_passes(tmp_path, monkeypatch, citation):
    module = tmp_path / "src" / "repro" / "net" / "columnar.py"
    module.parent.mkdir(parents=True)
    module.write_text(_MODULE, encoding="utf-8")
    assert _problems(tmp_path, monkeypatch, f"See `{citation}`.\n") == []


@pytest.mark.parametrize(
    ("citation", "problem"),
    [
        ("net/columnar.py::MAX_EMPTY_ROWS", "cited symbol is not defined"),
        ("net/columnar.py::TestShapes::test_sparse", "cited symbol is not defined"),
        ("net/columnar.py::gather_rows::inner", "cited symbol is not defined"),
        ("net/columnar.py::STRIDE", "cited symbol is not defined"),  # a member, not top level
        ("net/gone.py::gather_rows", "cited path does not exist"),
    ],
)
def test_a_stale_symbol_citation_is_broken(tmp_path, monkeypatch, citation, problem):
    module = tmp_path / "src" / "repro" / "net" / "columnar.py"
    module.parent.mkdir(parents=True)
    module.write_text(_MODULE, encoding="utf-8")
    problems = _problems(tmp_path, monkeypatch, f"See `{citation}`.\n")
    assert problems == [f"doc.md: {problem} -> {citation}"]


def test_the_real_tree_has_no_broken_reference(capsys):
    """``python docs/check_links.py`` over the documents as they stand: a doc
    that still cites a deleted file, symbol or setting fails here."""
    assert check_links.main() == 0, capsys.readouterr().err
