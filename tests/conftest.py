import pytest
from hypothesis import settings

from cd2d import builtin_problem

# every property draws the same examples on every run and keeps no example
# database, so a run's outcome depends only on the code (derandomize=True
# implies database=None); solve times vary too much for a deadline
settings.register_profile("cd2d", derandomize=True, deadline=None)
settings.load_profile("cd2d")


@pytest.fixture(scope="session")
def ex1():
    return builtin_problem("Example1")


@pytest.fixture(scope="session")
def ex2():
    return builtin_problem("Example2")
