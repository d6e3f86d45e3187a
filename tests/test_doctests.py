"""Run the examples in the library's docstrings."""

import doctest

import pytest

from chainphase import (actions, boundary, fileio, intmat, operad, search,
                        simplicial)


@pytest.mark.parametrize("module",
                         [actions, boundary, fileio, intmat, operad,
                          search, simplicial],
                         ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
