"""The sources parse under the oldest Python that pyproject.toml declares.

This checks grammar only (say `except*` or PEP 695 generics, both newer than
3.10), not which standard-library names exist: an import such as `tomllib`
or `enum.StrEnum` parses under 3.10 and fails there only when it runs.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
OLDEST = (3, 10)
SOURCES = sorted([*(ROOT / "src" / "charvar").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def test_oldest_version_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert tuple(map(int, declared.groups())) == OLDEST


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_oldest_version(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
