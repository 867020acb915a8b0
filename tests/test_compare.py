"""Tests of tools/compare.py's pure parts: the array rule and the timing
pairs' turns."""

import math
import pathlib
import sys

import numpy as np

TOOLS = str(pathlib.Path(__file__).resolve().parents[1] / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import compare  # noqa: E402


def test_array_rule():
    a = np.linspace(-2.0, 2.0, 9)
    assert compare.figure(a, a.copy()) is None
    assert compare.compare({"a": a, "b": a[::2]},
                           {"a": a.copy(), "b": a[::2].copy()}) == [": identical"]
    # One ulp up on every entry, zero included: at most half an ulp of 1
    # relative to the largest magnitude.
    nudged = np.nextafter(a, np.inf)
    assert 0.0 < compare.figure(a, nudged) <= 2.3e-16
    lines = compare.compare({"a": a, "b": a}, {"a": nudged, "b": a.copy()})
    assert lines[0] == ": differs" and len(lines) == 2 and lines[1].split()[0] == "a"
    assert compare.figure(a, a[:-1]) == math.inf
    assert compare.compare({"a": a}, {"c": a})[0].startswith(": arrays differ")


def test_slow_spell_over_whole_block_pairs_leaves_ratio_at_1():
    rng = np.random.default_rng(0)
    n = 20 * compare.BLOCK
    parent = 1e-4 * (1.0 + 0.05 * rng.random(n))
    # The same steps in another order within each turn: equal block medians.
    change = rng.permuted(parent.reshape(-1, compare.BLOCK), axis=1).ravel()
    slow = np.ones(n)
    slow[5 * compare.BLOCK:12 * compare.BLOCK] = 3.0  # turns 5-11 of both sides
    assert compare.pair_ratio(parent * slow, change * slow) == 1.0
    assert math.isclose(compare.pair_ratio(parent * slow, 1.1 * change * slow), 1.1)
    # Timed whole replay after whole replay, the spell falls on one side.
    assert (change * slow).sum() > 1.5 * parent.sum()


def test_timed_pair_alternates_turns():
    log = []

    class Fake:
        def __init__(self, side):
            self.side = side

        def step(self, u, z):
            log.append((self.side, u))

    n = 2 * compare.BLOCK + 3
    inputs = {side: [(k, None) for k in range(n)] for side in compare.SIDES}
    order = compare.SIDES[::-1]
    times = compare.timed_pair({s: Fake(s) for s in order}, inputs, order)
    assert all(t.shape == (n,) and (t >= 0.0).all() for t in times.values())
    want = [(side, k) for start in range(0, n, compare.BLOCK) for side in order
            for k in range(start, min(start + compare.BLOCK, n))]
    assert log == want
