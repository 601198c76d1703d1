"""Index helpers shared by the brute-force window oracles, with checks of
their own. Only the tests use them; the filters pad with numpy."""
import pytest


def reflect_index(i: int, n: int) -> int:
    """Map an out-of-range index into [0, n) by symmetric reflection.

    Reflection is edge-inclusive: -1 -> 0, n -> n-1. Matches the 'reflect'
    mode of scipy.ndimage filters.
    """
    if n <= 0:
        raise ValueError("cannot reflect into an empty axis")
    while i < 0 or i >= n:
        if i < 0:
            i = -i - 1
        if i >= n:
            i = 2 * n - 1 - i
    return i


def test_reflect_index_is_edge_inclusive():
    assert reflect_index(-1, 5) == 0
    assert reflect_index(-2, 5) == 1
    assert reflect_index(5, 5) == 4
    assert reflect_index(6, 5) == 3
    assert reflect_index(0, 1) == 0
    assert reflect_index(-3, 1) == 0
    with pytest.raises(ValueError):
        reflect_index(0, 0)
