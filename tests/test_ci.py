"""The CI workflow installs the package with its test extra on Python 3.10,
the oldest that pyproject.toml allows, and on 3.11, 3.12 and 3.13, and runs
the tier-1 command ROADMAP.md states, so the two cannot drift apart.  The
test extra installs PyYAML, which reads the workflow here, so CI runs this
test rather than skipping it."""
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def test_the_workflow_runs_the_roadmaps_tier_1_command():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.MULTILINE).group(1)
    (job,) = workflow["jobs"].values()
    steps = job["steps"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12", "3.13"]
    setup = [step for step in steps if step.get("uses", "").startswith("actions/setup-python@")]
    assert [step["with"]["python-version"] for step in setup] == ["${{ matrix.python-version }}"]
    runs = [step["run"] for step in steps if "run" in step]
    assert runs == ['python -m pip install ".[test]"', command]
