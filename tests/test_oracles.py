"""Helpers shared by the brute-force oracles, with checks of their own:
the reflect index of the window oracles, and the exhaustive (d², row, col)
ranking and tie-heavy point sets of the nearest-boundary oracles. Only the
tests use them; the package pads with numpy and reads a distance transform
or queries a k-d tree."""
import numpy as np
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


def ring_325(row: int, col: int) -> np.ndarray:
    """The 24 cells at squared distance 325 from (row, col), row-major.

    325 = 1 + 18² = 6² + 17² = 10² + 15², so all 24 tie from the centre,
    and mirror pairs tie from every cell on a symmetry axis.
    """
    offsets = {(sa * a, sb * b) for p, q in ((1, 18), (6, 17), (10, 15))
               for a, b in ((p, q), (q, p)) for sa in (1, -1) for sb in (1, -1)}
    return np.array(sorted((row + dr, col + dc) for dr, dc in offsets))


# one more cell 20 cells out moves the k-d tree's splits off the ring's
# centre, so the tree meets the tied ring cells in other orders
RING_EXTRAS = [[], [[30, 50]], [[70, 50]], [[50, 30]], [[50, 70]]]


def ring_sources(extra) -> np.ndarray:
    """``ring_325(50, 50)`` plus the ``extra`` cells, row-major."""
    src = np.concatenate([ring_325(50, 50),
                          np.array(extra, dtype=np.int64).reshape(-1, 2)])
    return src[np.lexsort((src[:, 1], src[:, 0]))]


def rank_oracle(sources, queries, k: int) -> np.ndarray:
    """(Q, k) indices into ``sources`` of each query's first k sources
    ranked by (squared distance, row, col), then by index."""
    src = [tuple(s) for s in np.asarray(sources).tolist()]
    out = []
    for qi, qj in np.asarray(queries).tolist():
        ranked = sorted(range(len(src)),
                        key=lambda i: ((qi - src[i][0]) ** 2
                                       + (qj - src[i][1]) ** 2,
                                       src[i][0], src[i][1]))
        out.append(ranked[:k])
    return np.array(out, dtype=np.int64).reshape(-1, k)


def test_ring_325_is_24_equidistant_cells():
    ring = ring_325(40, 40)
    assert ring.shape == (24, 2)
    assert len(set(map(tuple, ring.tolist()))) == 24
    assert np.all(((ring - 40) ** 2).sum(axis=1) == 325)
