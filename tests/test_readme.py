"""The README's examples run as written, so the docs follow the API."""

import json
import re
from pathlib import Path

import pytest

from ftvn.cli import main
from ftvn.reduce import _ROUTES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang):
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1, f"expected one {lang} block in README.md, found {len(blocks)}"
    return blocks[0]


def test_library_sketch_runs():
    namespace = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.optimal_value == pytest.approx(2.0, abs=1e-9)
    assert report.commutation.verdict


def test_flagship_problem_file_solves(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(_block("json"))
    assert main(["solve", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["optimal_value"]["dec"] == pytest.approx(2.0, abs=1e-9)


def test_route_table_lists_the_engine_routes():
    # the Routes section's labels, in order: the engine's routes, then the
    # phase-1 emptiness verdict
    section = README.split("## Routes", 1)[1].split("\n## ", 1)[0]
    labels = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert labels == [label for label, _, _ in _ROUTES] + ["lp_phase1"]
