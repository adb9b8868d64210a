"""The repo gates: a clean `repro.analysis` run and real package metadata.

The analysis gate is the test that makes the analyzer matter — any new finding in
``src/repro`` that is neither fixed, suppressed inline with a
``# repro: allow[rule-id]``, nor added to ``analysis_baseline.json`` with a
written reason fails CI here.  It also keeps the baseline honest: an entry
whose finding no longer exists is stale and must be deleted.

The packaging gate pins ``setup.py``'s metadata to the package itself: the
distribution is named ``repro`` and carries ``repro.__version__``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis import Baseline, run_analysis
from repro.analysis.baseline import DEFAULT_BASELINE_NAME
from repro.analysis.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_TREE = REPO_ROOT / "src" / "repro"
BASELINE_PATH = REPO_ROOT / DEFAULT_BASELINE_NAME


def test_source_tree_has_no_new_findings():
    result = run_analysis([SRC_TREE], baseline=Baseline.load(BASELINE_PATH))
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], (
        "repro.analysis found new violations in src/repro — fix them, suppress "
        "with `# repro: allow[rule-id]`, or baseline with a reason:\n" + rendered
    )


def test_baseline_has_no_stale_entries():
    result = run_analysis([SRC_TREE], baseline=Baseline.load(BASELINE_PATH))
    stale = "\n".join(f"{e.rule} @ {e.path} ({e.match!r})" for e in result.stale_baseline)
    assert result.stale_baseline == [], (
        "analysis_baseline.json grandfathers findings that no longer exist — "
        "delete these entries:\n" + stale
    )


def test_every_baseline_entry_is_exercised():
    """Each grandfathered finding still matches exactly one baseline entry."""
    result = run_analysis([SRC_TREE], baseline=Baseline.load(BASELINE_PATH))
    baseline = Baseline.load(BASELINE_PATH)
    assert len(result.baselined) == len(baseline.entries)


def test_cli_gate_passes_on_shipped_tree(tmp_path, capsys):
    artifact = tmp_path / "analysis.json"
    code = cli_main(
        [
            str(SRC_TREE),
            "--baseline",
            str(BASELINE_PATH),
            "--format",
            "json",
            "--output",
            str(artifact),
        ]
    )
    assert code == 0, capsys.readouterr().out
    payload = json.loads(artifact.read_text())
    assert payload["ok"] is True
    assert payload["summary"]["new"] == 0
    assert payload["files_scanned"] > 100


def _setup_py(flag: str) -> str:
    completed = subprocess.run(
        [sys.executable, "setup.py", flag],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.strip().splitlines()[-1]


def test_setup_py_names_the_package():
    assert _setup_py("--name") == "repro"


def test_setup_py_version_matches_the_package():
    assert _setup_py("--version") == repro.__version__
