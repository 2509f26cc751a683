"""The E1 evaluator against scipy's, and the inverse against round trips."""

import hashlib

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from polyasum import (MixingMeasure, PolyaParams, ReferenceMeasure, RngSeed,
                      Window, sample_mixed_batch, sample_poisson_batch,
                      sample_polya_direct_batch)
from polyasum import expint
from polyasum.expint import e1, e1_inverse


def test_matches_scipy_over_wide_range():
    x = np.concatenate([
        np.geomspace(1e-12, 2.0, 20000),
        np.linspace(2.0, 60.0, 20000),
        np.geomspace(60.0, 700.0, 2000),
    ])
    rel = np.abs(e1(x) - exp1(x)) / exp1(x)
    assert rel.max() < 1e-13


def test_round_trip_accuracy():
    x = np.concatenate([np.geomspace(1e-10, 2.0, 5000),
                        np.linspace(2.0, 600.0, 5000)])
    back = e1_inverse(e1(x))
    assert (np.abs(back - x) / x).max() < 1e-12


def test_scalar_interface():
    assert e1(1.0) == pytest.approx(exp1(1.0), rel=1e-14)
    assert e1_inverse(e1(0.37)) == pytest.approx(0.37, rel=1e-12)


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        e1(0.0)
    with pytest.raises(ValueError):
        e1(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        e1_inverse(0.0)
    for bad in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            e1(bad)
        with pytest.raises(ValueError):
            e1_inverse(bad)


@given(st.floats(min_value=1e-8, max_value=500.0))
@settings(max_examples=200, deadline=None)
def test_monotone_decreasing(x):
    assert e1(x) > e1(x * 1.01)


@given(st.floats(min_value=1e-6, max_value=30.0))
@settings(max_examples=100, deadline=None)
def test_inverse_is_right_inverse(y):
    assert e1(e1_inverse(y)) == pytest.approx(y, rel=1e-11)


def test_inverse_residual_over_full_range():
    # both branches, from roots near 690 down to roots near 1e-304
    y = np.concatenate([np.geomspace(1e-300, 1.0, 20000),
                        np.geomspace(1.0, 700.0, 20000)])
    x = e1_inverse(y)
    assert np.abs(exp1(x) / y - 1.0).max() <= 1e-13


@given(st.floats(min_value=1e-300, max_value=745.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_inverse_residual_property(y):
    x = e1_inverse(y)
    if x >= np.finfo(float).tiny:
        assert abs(exp1(x) / y - 1.0) <= 1e-13
    else:
        # above y ~ 708 the root is subnormal, above ~744.55 it rounds
        # to 0, and no double has a residual of 1e-13: the root must lie
        # within one spacing of x instead
        assert exp1(np.nextafter(x, 0.0)) >= y >= exp1(np.nextafter(x, 1.0))


def _mp_root(y, guess):
    # the root of E1(x) = y at 50 digits, by the secant method in ln x
    with mp.workdps(50):
        return mp.exp(mp.findroot(lambda u: mp.e1(mp.exp(u)) - y,
                                  mp.log(guess)))


def test_fitted_d_matches_mpmath():
    # y > 1 returns x = w e^d with d = w P(w / w1), w = e^(-gamma - y)
    with mp.workdps(50):
        for s in (np.arange(200) + 0.5) / 200:
            w = s * expint._W1
            d = w * expint._horner(expint._D_COEFFS,
                                   np.array([w / expint._W1]))[0]
            y = -mp.euler - mp.log(w)
            exact = mp.log(_mp_root(y, w) / w)
            assert abs(d - exact) <= 2e-15, s


def test_fitted_seed_matches_mpmath():
    # y <= 1, t = -ln y <= 8: the seed of the one Halley step
    with mp.workdps(50):
        for t in (np.arange(200) + 0.5) / 200 * expint._SEED_T:
            x0 = expint._horner(expint._SEED_COEFFS,
                                np.array([t / expint._SEED_T]))[0]
            exact = _mp_root(mp.exp(-t), max(t - np.log1p(t), 0.2))
            assert abs(x0 / exact - 1) <= 1e-6, t


def test_inverse_strictly_decreasing_across_branches():
    y = np.sort(np.concatenate([
        np.geomspace(1e-3, 50.0, 4001),
        [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]]))
    assert np.all(np.diff(y) > 0)
    assert np.all(np.diff(e1_inverse(y)) < 0)


def test_inverse_underflows_to_zero():
    y = np.array([745.0, 746.0, 800.0, 1e4, 1e300])
    assert np.array_equal(e1_inverse(y), np.zeros(5))
    assert e1_inverse(745.0) == 0.0


def test_inverse_of_empty_array():
    out = e1_inverse(np.empty(0))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def _batch_digest(batch):
    h = hashlib.sha256()
    for arr in (batch.rep, batch.cell, batch.mult, batch.coords):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def test_routes_without_e1_inverse_keep_their_draws():
    # direct, Poisson and mixed-direct sampling never call e1_inverse,
    # so a change to the inverse must leave their draws bit for bit as
    # they are; the digests were recorded with numpy 2.4
    w = Window.interval(0.0, 1.0, 4)
    rho = ReferenceMeasure(w, np.array([0.5, 1.0, 0.25, 2.0]),
                           (((0.3,), 0.75),))
    mix = MixingMeasure(rho, ((0.3, 1.0, 0.5), (0.7, 2.0, 0.5)))
    digests = {
        "direct": sample_polya_direct_batch(PolyaParams(0.6, rho), 500,
                                            RngSeed(7)),
        "poisson": sample_poisson_batch(rho, 500, RngSeed(8)),
        "mixed": sample_mixed_batch(mix, "direct", 1e-3, 500,
                                    RngSeed(9))[0],
    }
    assert {k: _batch_digest(b) for k, b in digests.items()} == {
        "direct":
            "c9c02cfd2d687f733408836fb24fa93114533fddbcb857dfa495f5cf34a98019",
        "poisson":
            "da8e7f186ded2ba5f23bd8dc5681ff10f3649ba0c5dce856f2606c4014e44043",
        "mixed":
            "e962b1c6056b8eb582e34f00cff2bd207bb4bbab0f316f17cf7f8dd1463f5db8",
    }
