"""Integration: the shipped example scripts run end to end.

Each example is executed in-process (runpy) with stdout captured, so a
regression in the public API that breaks an example fails the suite. An
example's temporary files go under the test's own directory, which must
be empty again once the example is done.
"""

import pathlib
import runpy
import tempfile

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_populated():
    names = {f.name for f in EXAMPLE_FILES}
    assert "quickstart.py" in names
    assert len(EXAMPLE_FILES) >= 3


@pytest.mark.parametrize(
    "script", EXAMPLE_FILES, ids=lambda path: path.name
)
def test_example_runs(script, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"
    left = sorted(path.name for path in tmp_path.iterdir())
    assert not left, f"{script.name} left {left} behind"
