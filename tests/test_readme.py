"""README's library example, run as a doctest: its outputs are the library's."""

import doctest
import os

import pytest

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_readme_examples():
    result = doctest.testfile(README, module_relative=False)
    if result.failed or not result.attempted:  # not an assert: CI also runs under -O
        pytest.fail("README doctest: %s" % (result,))
