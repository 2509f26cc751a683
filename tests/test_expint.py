"""The E1 evaluator against scipy's, and the inverse against round trips."""

import hashlib
import json
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from polyasum import (AtomicBatch, MixingMeasure, PointConfiguration,
                      PolyaParams, ReferenceMeasure, RngSeed, TestFunction,
                      Window, check_conjugacy, check_polya_ibp,
                      sample_gamma_measure_batch, sample_mixed_batch,
                      sample_poisson_batch, sample_polya_cox_batch,
                      sample_polya_direct_batch, sample_posterior_batch)
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
    values = batch.weight if isinstance(batch, AtomicBatch) else batch.mult
    for arr in (batch.rep, batch.cell, values, batch.coords):
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


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# _e1 evaluates up to _SMALL arguments with numpy's exp and log on
# one-element arrays: numpy's vector exp and log must round an
# element alike at every array length
@pytest.mark.numpy_bits
class TestE1Paths:
    """_e1 takes inputs of at most _SMALL arguments one at a time in
    Python floats, larger ones as arrays; both give the same bits.  Their
    agreement rests on numpy's vector exp and log giving an element the
    same bits at any array length."""

    X = np.concatenate([
        np.geomspace(5e-324, 800.0, 20000),
        np.random.default_rng(0).uniform(0.0, 8.0, 5000),
        np.nextafter(2.0, [0.0, 3.0]), [2.0, 800.0]])

    def test_one_at_a_time_equals_array(self):
        assert self.X.size > expint._SMALL
        whole = expint._e1(self.X)
        one = [expint._e1(np.array([v]))[0] for v in self.X]
        assert np.array_equal(_bits(one), _bits(whole))

    def test_sizes_around_the_threshold(self):
        # 2.0 takes the series, its upper neighbour the fraction
        x = np.tile(np.concatenate([[2.0], np.nextafter(2.0, [0.0, 3.0]),
                                    np.geomspace(1e-300, 700.0, 6)]), 4)
        whole = expint._e1(x)
        for k in (expint._SMALL - 1, expint._SMALL, expint._SMALL + 1):
            assert np.array_equal(_bits(expint._e1(x[:k])), _bits(whole[:k]))
            grid = x[:k].reshape(1, k)
            assert np.array_equal(_bits(expint._e1(grid)),
                                  _bits(whole[:k].reshape(1, k)))

    @pytest.mark.parametrize("size", [1, 3, 40])
    def test_e1_of_inf_is_zero(self, size):
        x = np.geomspace(0.1, 50.0, size)
        x[::2] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert e1(np.inf) == 0.0
            got = e1(x)
        finite = np.isfinite(x)
        assert np.array_equal(got[~finite], np.zeros((~finite).sum()))
        assert np.array_equal(_bits(got[finite]), _bits(e1(x[finite])))

    def test_inverse_one_at_a_time_equals_array(self):
        # both sides of t = -ln y = 8, y = 1 and its upper neighbour,
        # roots that underflow to 0 (y >= 745) and subnormal y; every
        # branch of the array holds more than _SMALL arguments, so its
        # Halley steps take the array path.  The y > 1 formula also runs
        # over the y <= 1 entries and must warn of nothing there
        t = np.concatenate([np.linspace(7.0, 9.0, 40), [8.0],
                            np.nextafter(8.0, [0.0, 9.0]),
                            np.linspace(9.0, 744.0, 40)])
        y = np.concatenate([
            np.exp(-t), np.nextafter(np.exp(-8.0), [0.0, 1.0]),
            [1.0, np.nextafter(1.0, 2.0)],
            np.geomspace(1.0, 760.0, 40), [745.0, np.inf],
            [5e-324, 1e-310, 2.2e-308], np.geomspace(1e-320, 1.0, 40)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = e1_inverse(y)
            one = [e1_inverse(v) for v in y]
        assert np.array_equal(_bits(one), _bits(whole))
        assert whole[y >= 745.0].tolist() == [0.0] * int((y >= 745.0).sum())


def test_gamma_weights_keep_their_bits():
    # the location digests of test_samplers leave weights out; these
    # pin the Ferguson-Klass and posterior weights and the Cox draws,
    # recorded with numpy 2.4 on x86-64 before E1 took small inputs one
    # argument at a time (the weights pass through numpy's vector exp
    # and log)
    w = Window.interval(0.0, 1.0, 4)
    rho = ReferenceMeasure(w, np.array([0.5, 1.0, 0.25, 2.0]),
                           (((0.3,), 0.75),))
    mu = PointConfiguration(w, (((0.1,), 3), ((0.3,), 1), ((0.8,), 2)))
    digests = {
        "gamma": _batch_digest(sample_gamma_measure_batch(
            PolyaParams(0.6, rho), 1e-3, 300, RngSeed(31))),
        "gamma-small-mass": _batch_digest(sample_gamma_measure_batch(
            PolyaParams(0.3, rho.scale(1e-3)), 1e-6, 300, RngSeed(32))),
        # four arrivals with t = -ln y > 8, so the tail's Halley steps
        # evaluate E1 on a small input
        "gamma-large-mass": _batch_digest(sample_gamma_measure_batch(
            PolyaParams(0.6, rho.scale(100.0)), 1e-2, 40, RngSeed(35))),
        "posterior": _batch_digest(sample_posterior_batch(
            mu, PolyaParams(0.6, rho), 1e-3, 300, RngSeed(33))),
        "cox": _batch_digest(sample_polya_cox_batch(
            PolyaParams(0.6, rho), 1e-3, 300, RngSeed(34))),
    }
    assert digests == {
        "gamma":
            "2e49e31f0090e79b90b93e67a269a7e82558c9eb2778efe953df4c1657e9bf37",
        "gamma-small-mass":
            "8756c133c2d42d764bb41e8b96c241afcfa077f02270f406eb1d9c8806b43186",
        "gamma-large-mass":
            "c11dd0fad0435e04f6415fec5104b844d36bbf538c79e619e410174ca8e7fb35",
        "posterior":
            "3ff9e9421d39d985fe5aeaef44acc48243fb825f9dae78c4ff39a8a438c347e2",
        "cox":
            "1b3a5b245c4a7405c540af4e66a55311abb128d838626b239dda2ec2ac062c93",
    }


def _fk_windows():
    """rho on a 1-d box, a 2-d box with an atom and a sites window, each
    with an observation mu for the posterior (on the atom in the 2-d
    box)."""
    line = Window.interval(0.0, 1.0, 4)
    plane = Window.box([(0.0, 1.0), (-1.0, 1.0)], [2, 3])
    sites = Window.discrete(["a", "b", "c"])
    return {
        "box-1d": (ReferenceMeasure.uniform(line, 2.0),
                   PointConfiguration(line, (((0.1,), 3), ((0.6,), 1)))),
        "box-2d-atom": (
            ReferenceMeasure(plane, np.array([0.5, 0.25, 0.75, 0.1, 0.4,
                                              0.3]),
                             (((0.3, 0.4), 0.75),)),
            PointConfiguration(plane, (((0.3, 0.4), 2),
                                       ((0.8, -0.5), 1)))),
        "sites": (ReferenceMeasure(sites, np.array([0.5, 1.0, 0.25])),
                  PointConfiguration(sites, (("a", 2), ("c", 1)))),
    }


_FK_SAMPLERS = {
    "gamma": lambda p, mu, eps, n, rng: sample_gamma_measure_batch(
        p, eps, n, rng),
    "cox": lambda p, mu, eps, n, rng: sample_polya_cox_batch(p, eps, n, rng),
    "posterior": lambda p, mu, eps, n, rng: sample_posterior_batch(
        mu, p, eps, n, rng),
}


# the digests, recorded on numpy 2.4, must come out of the oldest
# numpy's random, standard_exponential, poisson and vector exp, log
# and expm1 alike
@pytest.mark.numpy_bits
class TestFKBits:
    """The Ferguson-Klass draws and the checks built on them, pinned
    bit for bit: each digest hashes the batches at n in (1, 3, 200) and
    eps in (1e-9, 1e-6, 1e-2), in that order, recorded with numpy 2.4
    on x86-64."""

    DIGESTS = {
        ("cox", "box-1d"):
            "04ae81f4674f5862c81f92232d84f475ee389262db0ba8194fb47514b3001303",
        ("cox", "box-2d-atom"):
            "86f98da9c91cf610d233e22deafd0e5cd0868b6ff6a150413950625a12414b20",
        ("cox", "sites"):
            "df1ab17ca8a2343ddaf6bcc17473f385a25e12a2f665a6ecee2e6e2bef20b944",
        ("gamma", "box-1d"):
            "02eb4caf68cb19c904f80b03e28593ab753e05154cfd053d0bd175342d9f0b45",
        ("gamma", "box-2d-atom"):
            "143481df79976e4c93d6734da5b7a2dea08cc8b975f86524a8a22446ab83c892",
        ("gamma", "sites"):
            "9b9ccc1524aa0f6c8a9716f455cff0896e4d92c7874772f791bbc4849a87b7d1",
        ("posterior", "box-1d"):
            "2de3f2c898048f417e7fedd513b5feb7b2f45b236045c7054e9045494fe60189",
        ("posterior", "box-2d-atom"):
            "74083fee3fbe59c7dfe4e7b47dcde21d8175ccd7f9a4a2bcff494eeadd0adc72",
        ("posterior", "sites"):
            "59c6c819527b5e0f280f720dd31bb48a2010a98a35ba58afe73bd9eb18efbf1f",
    }
    REPORTS = {
        ("conjugacy", 0.3):
            "ef37bd562e17deddcadbed9b749236094b0ccb3622589832d2016322164dd293",
        ("conjugacy", 0.7):
            "5e7ba4bbd98d270a121a665c4835bc86cf52c5895da70498e0cbd22cce1c253e",
        ("polya-ibp-cox", 0.3):
            "bfd753795513e721d657ad634390e47102c68545193e743bcd79ae7f64418519",
        ("polya-ibp-cox", 0.7):
            "cefa00103bcc536534bb359bbf5082c6b8eec8b464d0a3b14e15b1bf13f422b7",
    }

    @pytest.mark.parametrize("sampler", sorted(_FK_SAMPLERS))
    @pytest.mark.parametrize("window", sorted(_fk_windows()))
    def test_fk_batches_keep_their_bits(self, sampler, window):
        rho, mu = _fk_windows()[window]
        params = PolyaParams(0.6, rho)
        h = hashlib.sha256()
        for k, (n, eps) in enumerate((n, eps) for n in (1, 3, 200)
                                     for eps in (1e-9, 1e-6, 1e-2)):
            batch = _FK_SAMPLERS[sampler](params, mu, eps, n,
                                          RngSeed(61, stream=k))
            h.update(_batch_digest(batch).encode())
        assert h.hexdigest() == self.DIGESTS[sampler, window]

    @pytest.mark.parametrize("check", ["conjugacy", "polya-ibp-cox"])
    @pytest.mark.parametrize("z", [0.3, 0.7])
    def test_fk_reports_keep_their_bits(self, check, z):
        window = Window.interval(0.0, 1.0, 4)
        params = PolyaParams(z, ReferenceMeasure.uniform(window, 2.0))
        f = TestFunction(window, np.array([1.2, 0.5, 0.9, 1.4]))
        g = TestFunction(window, np.array([0.3, 1.1, 0.0, 0.7]))
        h = TestFunction(window, np.array([0.8, 0.2, 1.3, 0.4]))
        if check == "conjugacy":
            report = check_conjugacy(params, g, h, 1e-6, 400, RngSeed(62))
        else:
            report = check_polya_ibp(params, "cox", f, g, 400, RngSeed(63),
                                     eps=1e-6)
        doc = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == \
            self.REPORTS[check, z]
