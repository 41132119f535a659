import pytest

from goldbach_ab import build_table


@pytest.fixture(scope="session")
def table_1k():
    return build_table(1_000)


@pytest.fixture(scope="session")
def table_20k():
    return build_table(20_001)


@pytest.fixture(scope="session")
def table_100k():
    return build_table(100_001)


@pytest.fixture(scope="session")
def table_1e7():
    return build_table(10**7)
