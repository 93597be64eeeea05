"""The lint job runs the architecture rules and keeps no guard of its own: a `run:` block there that
prints `::error::`, exits non-zero, or greps or awks `src/` outside the summary report is a YAML
guard coming back.  A new guard is a check, with its fixture, in
`tests/architecture/rules.py`."""

import itertools
import re

import pytest

from tests.architecture.rules import ROOT

CI = (ROOT / ".github/workflows/ci.yml").read_text()
LINT = "        run: ruff check src tests benchmarks examples\n"
OLD_STEPS = {  # lint steps as they stood before the rules replaced them
    "error-step": """\
      - name: cli.py constructs no spec
        run: |
          if grep -nE '\\b(Data|Reader|Train|Scaling|Retention|Stream|Job)Spec\\(' src/repro/cli.py; then
            echo "::error::cli.py constructs a spec dataclass; add a _FLAGS row and let build_job_spec build it"
            exit 1
          fi
""",
    "bare-grep": '      - name: min_readers stays out\n        run: "! grep -rn min_readers src/repro"\n',
}


def lint_runs(workflow: str) -> list[str]:
    """The `run:` blocks of the workflow's `lint` job, read as text."""
    lines = re.search(r"^  lint:\n(.*?)(^  \S|\Z)", workflow, re.M | re.S).group(1).splitlines()
    runs = []
    for i, line in enumerate(lines):
        if m := re.match(r"(\s*(?:- )?)run:\s*(.*)", line):
            block = itertools.takewhile(
                lambda s: not s.strip() or len(s) - len(s.lstrip()) > len(m.group(1)), lines[i + 1:])
            runs.append("\n".join(block) if m.group(2)[:1] in "|>" else m.group(2))
    return runs


def guards(workflow: str) -> list[str]:
    """The lint job's `run:` blocks that gate on their own instead of through a rule."""
    return [run for run in lint_runs(workflow) if "::error::" in run or re.search(r"\bexit +[1-9]", run)
            or (re.search(r"\b(grep|awk)\b.*src/", run.replace("\\\n", " "))
                and '>> "$GITHUB_STEP_SUMMARY"' not in run)]


def test_lint_job_runs_the_rules_and_holds_no_guard():
    assert "python -m pytest tests/architecture -q" in lint_runs(CI)
    assert guards(CI) == []


@pytest.mark.parametrize("step", OLD_STEPS.values(), ids=OLD_STEPS)
def test_a_pasted_back_guard_fails(step):
    assert CI.count(LINT) == 1 and guards(CI.replace(LINT, LINT + step))
