"""pytest rewrites the asserts of test modules, which keeps them under
python -O; the input guards of the shared oracles get the same treatment."""

import pytest

pytest.register_assert_rewrite("oracles")
