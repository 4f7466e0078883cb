"""The numpy kernels against their definitions."""

import numpy as np
import pytest

import bipot._kernels as kernels
from bipot._kernels import _fallback


def _random_rows(rng, B, n, inf_frac=0.0):
    a = rng.normal(size=(B, n)) * rng.uniform(0.5, 2.0)
    if inf_frac:
        a[rng.random((B, n)) < inf_frac] = np.inf
    return a


def _window_def(a, w, reduce):
    n = a.shape[1]
    return np.stack([[reduce(a[b, max(0, i - w):i + w + 1]) for i in range(n)]
                     for b in range(a.shape[0])]).astype(a.dtype)


class TestLfTransform:
    def test_matches_definition(self):
        rng = np.random.default_rng(7)
        xs = np.linspace(-1, 3, 57)
        ys = np.linspace(-2, 2, 41)
        vals = _random_rows(rng, 5, 57, 0.1)
        vals[np.isfinite(vals).sum(axis=1) == 0, 0] = 1.0
        out = _fallback.lf_transform(xs, vals, ys)
        with np.errstate(invalid="ignore"):
            cand = ys[None, :, None] * xs[None, None, :] - vals[:, None, :]
        cand[~np.isfinite(cand)] = -np.inf
        assert np.array_equal(out, cand.max(axis=2))

    def test_empty_row_gives_minus_inf(self):
        xs = np.linspace(0, 1, 5)
        vals = np.full((1, 5), np.inf)
        out = _fallback.lf_transform(xs, vals, np.linspace(0, 1, 3))
        assert np.all(np.isneginf(out))


class TestSlidingFilters:
    def test_min_matches_definition(self):
        rng = np.random.default_rng(3)
        a = _random_rows(rng, 4, 63, 0.1)
        for w in (0, 2, 7, 62, 100):
            out = _fallback.sliding_min(a, w)
            assert np.array_equal(out, _window_def(a, w, np.min)), w

    def test_max_u8_matches_definition(self):
        rng = np.random.default_rng(23)
        m = (rng.random((3, 50)) < 0.1).astype(np.uint8)
        w = 3
        out = _fallback.sliding_max_u8(m, w)
        assert np.array_equal(out, _window_def(m, w, np.max))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
    def test_short_rows_and_wide_windows(self, n):
        rng = np.random.default_rng(n)
        a = _random_rows(rng, 6, n, 0.3)
        m = (rng.random((6, n)) < 0.3).astype(np.uint8)
        for w in (0, 1, 2, n - 1, n, 3 * n + 4):
            assert np.array_equal(_fallback.sliding_min(a, w),
                                  _window_def(a, w, np.min)), w
            assert np.array_equal(_fallback.sliding_max_u8(m, w),
                                  _window_def(m, w, np.max)), w

    def test_inf_entries(self):
        a = np.array([[np.inf, np.inf, 2.0, np.inf, np.inf, np.inf, -1.0],
                      [np.inf] * 7])
        for w in range(9):
            out = _fallback.sliding_min(a, w)
            assert np.array_equal(out, _window_def(a, w, np.min)), w
        assert np.all(np.isposinf(_fallback.sliding_min(a, 3)[1]))

    @pytest.mark.parametrize("w", [0, 1, 3, 6, 40])
    def test_out_may_be_input(self, w):
        rng = np.random.default_rng(41)
        a = _random_rows(rng, 5, 29, 0.2)
        want = _window_def(a, w, np.min)
        got = _fallback.sliding_min(a, w, out=a)
        assert got is a
        assert np.array_equal(a, want)
        m = (rng.random((5, 29)) < 0.1).astype(np.uint8)
        want = _window_def(m, w, np.max)
        assert np.array_equal(_fallback.sliding_max_u8(m, w, out=m), want)
        assert np.array_equal(m, want)

    def test_out_argument_is_filled_and_input_kept(self):
        rng = np.random.default_rng(43)
        a = _random_rows(rng, 3, 21, 0.1)
        keep = a.copy()
        out = np.full_like(a, np.nan)
        assert _fallback.sliding_min(a, 4, out=out) is out
        assert np.array_equal(out, _window_def(a, 4, np.min))
        assert np.array_equal(a, keep)


def test_selected_backend_exported():
    assert kernels.BACKEND == "fallback"
    assert kernels.sliding_min is _fallback.sliding_min
    out = kernels.sliding_min(np.array([[3.0, 1.0, 2.0]]), 1)
    assert np.array_equal(out, [[1.0, 1.0, 1.0]])
