"""The usage examples in module docstrings run and print what they show."""
import doctest

import pytest

import seljac.parse
import seljac.poly


@pytest.mark.parametrize("module", [seljac.poly, seljac.parse], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
