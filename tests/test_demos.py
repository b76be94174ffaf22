"""Smoke tests: every walkthrough script under ``demos/``, the README's
library example and its command-line override examples run to completion."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ddmlab import bench

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_override_lines():
    """README's ``ddmlab run`` command lines that set a flag besides --out."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = []
    for block in section.split("```sh\n")[1:]:
        for line in block.split("```", 1)[0].splitlines():
            argv = shlex.split(line, comments=True)
            flags = [a for a in argv[3:] if a.startswith("--")]
            if argv[:2] == ["ddmlab", "run"] and set(flags) - {"--out"}:
                lines.append(line)
    return lines


README_OVERRIDES = readme_override_lines()


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_has_override_lines():
    assert len(README_OVERRIDES) >= 3


@pytest.mark.parametrize("line", README_OVERRIDES)
def test_readme_override_line_runs(line, tmp_path, capsys):
    # the last --out wins, so the record lands in tmp_path
    argv = shlex.split(line, comments=True)[1:]
    assert bench.main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().out
    assert "converged=True" in capsys.readouterr().out
