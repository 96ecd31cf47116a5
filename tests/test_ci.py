"""The CI workflow installs the package with its test extra on Python 3.11
and runs the tier-1 command ROADMAP.md states, so the two cannot drift apart."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_the_workflow_runs_the_roadmaps_tier_1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.MULTILINE).group(1)
    (steps,) = [job["steps"] for job in workflow["jobs"].values()]
    setup = [step for step in steps if step.get("uses", "").startswith("actions/setup-python@")]
    assert [step["with"]["python-version"] for step in setup] == ["3.11"]
    runs = [step["run"] for step in steps if "run" in step]
    assert runs == ['python -m pip install ".[test]"', command]
