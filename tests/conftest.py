import time

import pytest

from peierls import full_count_table


@pytest.fixture(scope="session")
def table12():
    """Full census to length 12, shared by the acceptance criteria.

    Built on two worker processes; the tables do not depend on the worker
    count, and the worker-invariance tests cover the serial path.
    """
    t0 = time.time()
    table = full_count_table(12, workers=2)
    table.meta["build_seconds"] = time.time() - t0
    return table


@pytest.fixture(scope="session")
def table10():
    return full_count_table(10, workers=2)
