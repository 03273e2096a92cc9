"""Let pytest rewrite the asserts of the shared property checks.

pytest rewrites asserts only in test modules and the modules registered
here; without this, `python -O` would strip every check in invariants.py.
"""

import pytest

pytest.register_assert_rewrite("invariants")
