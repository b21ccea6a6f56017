"""Every example script imports cleanly against the current public API.

The scripts take minutes to run, so this only executes their imports and definitions
(each runs ``main()`` under ``__main__`` only); a public name that an example uses and
the package no longer has fails here instead of in a user's terminal.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_cleanly(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
