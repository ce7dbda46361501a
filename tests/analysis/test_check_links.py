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
