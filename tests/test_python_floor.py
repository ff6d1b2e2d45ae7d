"""Every library module parses under the oldest Python that pyproject.toml
admits, so syntax newer than the floor fails here on any interpreter."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(int(part) for part in re.search(
    r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text()).groups())
MODULES = sorted((ROOT / "src" / "permlat").glob("*.py"))


def test_floor_is_read():
    assert FLOOR == (3, 10) and MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=FLOOR)
