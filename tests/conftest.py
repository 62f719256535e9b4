"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from qdiv.linalg import KERNEL_CALLS


@pytest.fixture
def count_kernel_calls():
    """start() -> dims: counts the `qdiv.linalg` kernel calls made after start(), read from `KERNEL_CALLS`.

    dims(*kinds) lists the dimension of each call of those kinds (both,
    ``eigh`` and ``eigvalsh``, by default), ascending, once per call; the
    ``svd`` and ``svdvals`` kinds list shapes (m, n).
    """

    def start():
        before = Counter(KERNEL_CALLS)

        def dims(*kinds: str) -> list:
            kinds = kinds or ("eigh", "eigvalsh")
            made = Counter(KERNEL_CALLS) - before
            return sorted(dim for (kind, dim), calls in made.items() if kind in kinds for _ in range(calls))

        return dims

    return start
