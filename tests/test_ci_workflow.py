"""The CI workflow runs every standalone benchmark script.

A ``benchmarks/bench_*.py`` file with a ``__main__`` block is a script that
guards something (a speedup floor, a bit-identity oracle) only when CI runs
it; pytest never collects it as a script.  This check reads the workflow
file as text (CI installs no YAML parser) so a script cannot silently fall
out of CI.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
MAIN_BLOCK = re.compile(r"^if __name__ == [\"']__main__[\"']:", re.MULTILINE)
SCRIPT_RUN = re.compile(r"\bpython3?\s+benchmarks/(bench_\w+\.py)\b")


def _standalone_scripts() -> set[str]:
    return {
        path.name
        for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        if MAIN_BLOCK.search(path.read_text())
    }


def _scripts_run_by_ci() -> set[str]:
    commands = [
        line
        for line in WORKFLOW.read_text().splitlines()
        if not line.lstrip().startswith("#")
    ]
    return {match for line in commands for match in SCRIPT_RUN.findall(line)}


def test_every_standalone_benchmark_script_runs_in_ci():
    scripts = _standalone_scripts()
    assert "bench_inference.py" in scripts  # the scan itself finds scripts
    orphans = sorted(scripts - _scripts_run_by_ci())
    assert orphans == [], f"benchmark scripts no CI step runs: {orphans}"
