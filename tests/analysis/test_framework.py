"""Framework behaviour: suppressions, baseline matching, runner and CLI."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, run_analysis
from repro.analysis.core import BASELINE_PATH, find_repo_root

REPO_ROOT = find_repo_root()

VIOLATION = """
    from repro.server.backend import KyrixBackend

    def make():
        return KyrixBackend(db, compiled, config)
"""

SUPPRESSED_LINE = """
    from repro.server.backend import KyrixBackend

    def make():
        return KyrixBackend(db, compiled, config)  # repolint: disable=factory-only
"""

SUPPRESSED_DEF = """
    from repro.server.backend import KyrixBackend

    def make():  # repolint: disable=factory-only
        backend = KyrixBackend(db, compiled, config)
        return KyrixBackend(db, compiled, config)
"""


def write_tree(root: Path, rel_path: str, source: str) -> Path:
    path = root / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


@pytest.fixture
def fake_repo(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    return tmp_path


class TestSuppressions:
    def test_inline_line_suppression(self, fake_repo):
        write_tree(fake_repo, "src/repro/a.py", SUPPRESSED_LINE)
        result = run_analysis(fake_repo, rules=["factory-only"])
        assert result.fresh == []
        assert result.suppressed_count == 1

    def test_def_line_suppression_covers_the_whole_body(self, fake_repo):
        write_tree(fake_repo, "src/repro/a.py", SUPPRESSED_DEF)
        result = run_analysis(fake_repo, rules=["factory-only"])
        assert result.fresh == []
        assert result.suppressed_count == 2

    def test_unsuppressed_finding_survives(self, fake_repo):
        write_tree(fake_repo, "src/repro/a.py", VIOLATION)
        result = run_analysis(fake_repo, rules=["factory-only"])
        assert len(result.fresh) == 1
        assert not result.ok

    def test_disable_all_token(self, fake_repo):
        source = """
            from repro.server.backend import KyrixBackend
            b = KyrixBackend(db, c, cfg)  # repolint: disable=all
        """
        write_tree(fake_repo, "src/repro/a.py", source)
        result = run_analysis(fake_repo, rules=["factory-only"])
        assert result.fresh == []


class TestInertSuppressions:
    """A suppression that suppresses nothing is a finding of its own."""

    def test_a_suppression_over_clean_code_is_a_finding(self, fake_repo):
        source = """
            def make():  # repolint: disable=factory-only
                return 1
        """
        write_tree(fake_repo, "src/repro/a.py", source)
        result = run_analysis(fake_repo, rules=["factory-only"])
        assert [(f.rule, f.line) for f in result.fresh] == [("inert-suppression", 2)]
        assert "factory-only suppresses nothing" in result.fresh[0].message

    def test_a_suppression_that_fires_is_no_finding(self, fake_repo):
        write_tree(fake_repo, "src/repro/a.py", SUPPRESSED_DEF)
        assert run_analysis(fake_repo, rules=["factory-only"]).fresh == []

    def test_each_named_rule_is_judged_on_its_own(self, fake_repo):
        source = """
            from repro.server.backend import KyrixBackend

            def make():
                return KyrixBackend(db, compiled, config)  # repolint: disable=factory-only, span-discipline
        """
        write_tree(fake_repo, "src/repro/a.py", source)
        result = run_analysis(fake_repo)
        assert [(f.rule, f.line) for f in result.fresh] == [("inert-suppression", 5)]
        assert "span-discipline suppresses nothing" in result.fresh[0].message

    def test_a_rule_that_did_not_run_is_not_judged(self, fake_repo):
        source = """
            def make():  # repolint: disable=factory-only
                return 1
        """
        write_tree(fake_repo, "src/repro/a.py", source)
        assert run_analysis(fake_repo, rules=["span-discipline"]).fresh == []

    def test_an_unknown_rule_and_an_idle_disable_all_are_findings(self, fake_repo):
        source = """
            x = 1  # repolint: disable=lock-dicipline
            y = 2  # repolint: disable=all
        """
        write_tree(fake_repo, "src/repro/a.py", source)
        messages = [f.message for f in run_analysis(fake_repo).fresh]
        assert messages == [
            "suppression names 'lock-dicipline', which is no rule",
            "`disable=all` suppresses nothing",
        ]
        # A narrowed run does not judge ``all``; an unknown name it does.
        narrowed = run_analysis(fake_repo, rules=["factory-only"]).fresh
        assert [f.line for f in narrowed] == [2]

    def test_the_same_text_inside_a_string_is_not_a_suppression(self, fake_repo):
        write_tree(fake_repo, "tests/test_a.py", "FIXTURE = 'x = 1  # repolint: disable=all'\n")
        assert run_analysis(fake_repo).fresh == []

    def test_the_tree_has_no_inert_suppression(self):
        result = run_analysis(REPO_ROOT)
        assert [f for f in result.fresh if f.rule == "inert-suppression"] == []
        assert result.suppressed_count == 4


class TestBaseline:
    def test_baselined_finding_does_not_fail(self, fake_repo):
        write_tree(fake_repo, "src/repro/a.py", VIOLATION)
        result = run_analysis(fake_repo, rules=["factory-only"])
        assert len(result.fresh) == 1
        baseline = {
            "version": 1,
            "entries": [
                {
                    "rule": finding.rule,
                    "path": finding.path,
                    "message": finding.message,
                    "reason": "grandfathered for the test",
                }
                for finding in result.fresh
            ],
        }
        baseline_path = fake_repo / "baseline.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        rerun = run_analysis(
            fake_repo, rules=["factory-only"], baseline_path=baseline_path
        )
        assert rerun.ok
        assert len(rerun.baselined) == 1
        assert rerun.stale_baseline == []

    def test_baseline_matching_ignores_line_numbers(self, fake_repo):
        path = write_tree(fake_repo, "src/repro/a.py", VIOLATION)
        result = run_analysis(fake_repo, rules=["factory-only"])
        baseline_path = fake_repo / "baseline.json"
        baseline_path.write_text(
            json.dumps(
                {"entries": [dict(result.fresh[0].to_dict(), reason="r")]}
            ),
            encoding="utf-8",
        )
        # Shift the violation down: the entry must still match.
        path.write_text("\n\n\n" + path.read_text(), encoding="utf-8")
        rerun = run_analysis(
            fake_repo, rules=["factory-only"], baseline_path=baseline_path
        )
        assert rerun.ok and len(rerun.baselined) == 1

    def test_stale_entries_are_reported(self, fake_repo):
        write_tree(fake_repo, "src/repro/a.py", "x = 1\n")
        baseline_path = fake_repo / "baseline.json"
        baseline_path.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "factory-only",
                            "path": "src/repro/gone.py",
                            "message": "no longer exists",
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        result = run_analysis(fake_repo, baseline_path=baseline_path)
        assert result.ok
        assert len(result.stale_baseline) == 1


class TestRunner:
    def test_unknown_rule_id_raises(self, fake_repo):
        with pytest.raises(ValueError, match="unknown rule"):
            run_analysis(fake_repo, rules=["no-such-rule"])

    def test_parse_error_is_a_finding(self, fake_repo):
        write_tree(fake_repo, "src/repro/bad.py", "def broken(:\n")
        result = run_analysis(fake_repo)
        assert [finding.rule for finding in result.fresh] == ["parse-error"]

    def test_walker_skips_caches(self, fake_repo):
        write_tree(fake_repo, "src/repro/__pycache__/junk.py", VIOLATION)
        write_tree(fake_repo, "src/repro/a.py", "x = 1\n")
        result = run_analysis(fake_repo, rules=["factory-only"])
        assert result.ok
        assert result.files_checked == 1

    def test_registry_exposes_every_rule(self):
        assert set(all_rules()) == {
            "factory-only",
            "fault-seam",
            "lock-discipline",
            "span-discipline",
            "collector-state",
            "edge-rows",
            "protocol-drift",
        }


class TestCLI:
    def run_cli(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=cwd or REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_rules_listing(self):
        proc = self.run_cli("--rules")
        assert proc.returncode == 0
        for rule in all_rules():
            assert rule in proc.stdout

    def test_clean_tree_exits_zero(self):
        proc = self.run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_output_shape(self):
        proc = self.run_cli("--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["files_checked"] > 100

    def test_violation_exits_nonzero(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        write_tree(tmp_path, "src/repro/a.py", VIOLATION)
        proc = self.run_cli("--root", str(tmp_path))
        assert proc.returncode == 1
        assert "factory-only" in proc.stdout

    def test_explicit_paths_are_checked(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        bad = write_tree(tmp_path, "src/repro/a.py", VIOLATION)
        proc = self.run_cli("--root", str(tmp_path), str(bad))
        assert proc.returncode == 1


class TestTreeIsClean:
    def test_repository_lints_clean_against_checked_in_baseline(self):
        result = run_analysis(REPO_ROOT)
        rendered = "\n".join(finding.render() for finding in result.fresh)
        assert result.ok, f"repolint findings:\n{rendered}"
        assert result.stale_baseline == [], result.stale_baseline

    def test_checked_in_baseline_stays_near_empty(self):
        from repro.analysis import load_baseline

        entries = load_baseline(REPO_ROOT / BASELINE_PATH)
        assert len(entries) <= 3
        for entry in entries:
            assert entry.get("reason"), f"baseline entry needs a reason: {entry}"
