"""The README's quick tour runs as written, and the public names resolve."""

import doctest
from pathlib import Path

import pytest

import kornlab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("module", kornlab.__all__)
def test_public_names_resolve(module):
    mod = getattr(kornlab, module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
