"""``tools/dispatch_ab.py``: the end-to-end kernel-vs-general A/B that
CI runs.  Every shape passes, and a forced run that diverged from the
dispatched one would be caught."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "dispatch_ab.py"


@pytest.fixture(scope="module")
def dispatch_ab():
    spec = importlib.util.spec_from_file_location("dispatch_ab", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shape_matches_the_general_loop(dispatch_ab, tmp_path, capsys):
    assert dispatch_ab.main(["--workdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(dispatch_ab.SHAPES)


def test_a_wrong_expected_path_fails(dispatch_ab, tmp_path, monkeypatch):
    text, _ = dispatch_ab.SHAPES["default-serve"]
    monkeypatch.setitem(dispatch_ab.SHAPES, "default-serve", (text, "rr"))
    with pytest.raises(AssertionError):
        dispatch_ab.check_shape("default-serve", tmp_path)
