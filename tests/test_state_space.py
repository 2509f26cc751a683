"""Measure substrate: evaluation maps, counting, superposition, JSON."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyasum import (AtomicMeasure, InvalidMeasureError, PointConfiguration,
                      PolyaParams, ReferenceMeasure, RngSeed, TestFunction,
                      Window, WindowMismatchError, replay, samplers,
                      sample_polya_direct_batch, superpose, zeta)
from polyasum.replay import _categorical, _logseries
from polyasum.state_space import (AtomicBatch, ConfigurationBatch,
                                  _integrate_cellwise, _merge, _one_replica,
                                  _tile)


@pytest.fixture
def w():
    return Window.interval(0.0, 1.0, 4)


class TestWindow:
    def test_box_cells(self):
        w = Window.box([(0, 1), (0, 2)], [2, 3])
        assert w.n_cells == 6
        assert w.cell_of((0.1, 0.1)) == 0
        assert w.cell_of((0.9, 1.9)) == 5
        assert w.contains((0.5, 1.0))
        assert not w.contains((1.5, 1.0))

    def test_box_contains_edges_and_shapes(self):
        # both bounds are inside; NaN, a wrong length and a non-tuple
        # are not
        line = Window.interval(0.0, 1.0, 4)
        assert line.contains((0.0,)) and line.contains((1.0,))
        assert line.contains((-0.0,)) and line.contains((0.5,))
        for loc in ((math.nan,), (-1e-300,), (math.nextafter(1.0, 2.0),),
                    (math.inf,), (), (0.5, 0.5), [0.5], 0.5, "0.5"):
            assert not line.contains(loc)
        box = Window.box([(0, 1), (-1, 2)], [2, 3])
        assert box.contains((0.0, -1.0)) and box.contains((1.0, 2.0))
        for loc in ((0.5, math.nan), (math.nan, 0.5), (0.5,),
                    (0.5, 0.5, 0.5), [0.5, 0.5], (1.5, 0.0), (0.5, -1.5)):
            assert not box.contains(loc)

    def test_vectorized_cells_match_scalar(self):
        w = Window.box([(0, 1), (-1, 1)], [3, 4])
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 1, 50), rng.uniform(-1, 1, 50)])
        flat = w.cells_of(pts)
        for row, c in zip(pts, flat):
            assert w.cell_of(tuple(row)) == c

    def test_discrete_sites(self):
        w = Window.discrete(["a", "b", "c"])
        assert w.n_cells == 3
        assert w.cell_of("b") == 1
        with pytest.raises(InvalidMeasureError):
            w.cell_of("z")

    def test_invalid_windows(self):
        sites = Window.discrete(["a", "b"])
        for make, match in [
                (lambda: Window.box([(1, 0)], [2]), "bad axis bounds"),
                (lambda: Window.box([(0, 1)], [0]), "cell counts"),
                (lambda: Window.discrete([]), "at least one site"),
                (lambda: Window.box([], []), "at least one axis"),
                (lambda: Window.box([(0, 1)], [2, 2]), "equal length"),
                (lambda: Window(mode="ring"), "unknown window mode"),
                (lambda: Window.from_dict({"mode": "ring"}),
                 "unknown window mode"),
                (lambda: Window.interval(0.0, 1.0, 4).cell_of((1.5,)),
                 "outside window"),
                (lambda: sites.cells_of([[0.5]]), "needs a box window")]:
            with pytest.raises(InvalidMeasureError, match=match):
                make()

    def test_uniform_into_copies_site_cells(self):
        # a site is the one location of its cell: nothing is drawn
        sites = Window.discrete(["a", "b", "c"])
        ours, fresh = np.random.default_rng(0), np.random.default_rng(0)
        cells = np.array([2, 0, 1, 2])
        coords = np.full(cells.size, -1, dtype=np.int64)
        sites._uniform_into(cells, coords, ours)
        assert coords.tolist() == cells.tolist()
        assert ours.random() == fresh.random()

    def test_site_labels_distinct_as_strings(self):
        # labels are stored as strings, so 1 and "1" would name one site
        with pytest.raises(InvalidMeasureError, match="distinct"):
            Window.discrete([1, "1"])
        assert Window.discrete([1, 2]).sites == ("1", "2")

    def test_uniform_in_cells_lands_in_cell(self):
        w = Window.interval(0.0, 2.0, 4)
        rng = np.random.default_rng(1)
        cells = np.array([0, 3, 2, 2, 1])
        coords = np.empty((cells.size, 1))
        w._uniform_into(cells, coords, rng)
        assert np.array_equal(w.cells_of(coords), cells)

    def test_uniform_in_cells_two_dimensional(self):
        w = Window.box([(0, 2), (-1, 1)], [2, 5])
        rng = np.random.default_rng(2)
        cells = rng.integers(0, w.n_cells, size=200)
        coords = np.empty((cells.size, 2))
        w._uniform_into(cells, coords, rng)
        assert np.array_equal(w.cells_of(coords), cells)

    def test_accepts_numpy_cell_counts(self):
        w = Window.box([(0, 1)], np.array([4]))
        assert w.n_cells == 4

    def test_cells_of_takes_only_real_numbers(self, w):
        # a cast to float would read "0.3" as 0.3 (cell 1) and True as
        # 1.0 (cell 3)
        for coords in ([["0.3"]], [[True]]):
            with pytest.raises(InvalidMeasureError, match="real numbers"):
                w.cells_of(coords)
        assert w.cells_of([[0.3], [1]]).tolist() == [1, 3]


class TestZeta:
    def test_counting_with_multiplicity(self, w):
        mu = PointConfiguration(w, (((0.2,), 3),))
        assert zeta(mu, TestFunction.constant(w, 1.0)) == 3.0

    def test_zero_function(self, w):
        mu = PointConfiguration(w, (((0.2,), 3), ((0.6,), 1)))
        assert zeta(mu, TestFunction.constant(w, 0.0)) == 0.0
        kappa = AtomicMeasure(w, (((0.4,), 2.5),))
        assert zeta(kappa, TestFunction.constant(w, 0.0)) == 0.0

    def test_reference_linearity(self, w):
        rho = ReferenceMeasure.uniform(w, 2.0)
        assert zeta(rho, TestFunction.constant(w, 0.5)) == pytest.approx(1.0)

    def test_window_mismatch(self, w):
        other = TestFunction.constant(Window.interval(0.0, 1.0, 2), 1.0)
        mu = PointConfiguration(w, (((0.2,), 3),))
        kappa = AtomicMeasure(w, (((0.4,), 2.5),))
        for integral in (lambda f: zeta(PointConfiguration(w, ()), f),
                         _one_replica(mu).zeta, _one_replica(kappa).zeta):
            for f in (other, TestFunction.constant(
                    Window.interval(0.0, 2.0, 4), 1.0)):
                with pytest.raises(WindowMismatchError):
                    integral(f)

    def test_non_measures_raise_type_error(self, w):
        # a batch has a window but is n measures, not one
        batch = _one_replica(PointConfiguration(w, (((0.2,), 3),)))
        for measure in (5, batch):
            with pytest.raises(TypeError, match="cannot integrate"):
                zeta(measure, TestFunction.constant(w, 1.0))

    def test_infinite_value_on_zero_mass_cell(self, w):
        rho = ReferenceMeasure(w, np.array([0.0, 1.0, 0.0, 0.0]))
        f = TestFunction(w, np.array([np.inf, 0.5, 0.0, 0.0]))
        assert zeta(rho, f) == pytest.approx(0.5)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_additive_in_the_function(self, seed):
        rng = np.random.default_rng(seed)
        w = Window.interval(0.0, 1.0, 5)
        rho = ReferenceMeasure(w, rng.uniform(0, 3, 5),
                               (((0.5,), float(rng.uniform(0, 2))),))
        f = TestFunction(w, rng.uniform(0, 2, 5))
        g = TestFunction(w, rng.uniform(0, 2, 5))
        assert zeta(rho, f + g) == pytest.approx(
            zeta(rho, f) + zeta(rho, g), rel=1e-12)


# counts of one configuration are its one-replica batch's counts; the
# count in a region is zeta of the region's indicator
def count(mu, cells):
    return _one_replica(mu).zeta(TestFunction.indicator(mu.window, cells))[0]


def distinct_count(mu):
    return _one_replica(mu).distinct_counts()[0]


class TestCounting:
    def test_count_examples(self, w):
        b = [0, 1]
        mu = PointConfiguration(w, (((0.1,), 2), ((0.3,), 1)))
        assert count(mu, b) == 3
        assert count(PointConfiguration(w, ()), b) == 0
        assert count(PointConfiguration(w, (((0.9,), 5),)), b) == 0

    def test_distinct_examples(self, w):
        mu = PointConfiguration(w, (((0.1,), 2), ((0.3,), 1)))
        assert distinct_count(mu) == 2
        assert distinct_count(PointConfiguration(w, (((0.1,), 7),))) == 1
        assert distinct_count(PointConfiguration(w, ())) == 0

    def test_count_equals_zeta_of_indicator(self, w):
        mu = PointConfiguration(w, (((0.1,), 2), ((0.6,), 4)))
        f = TestFunction.indicator(w, [0, 2])
        assert count(mu, [0, 2]) == zeta(mu, f)
        assert distinct_count(mu) <= count(mu, np.arange(w.n_cells))

    @pytest.mark.filterwarnings("error")
    def test_counts_past_2_53_are_exact(self, w):
        # a float sum of the multiplicities gives 2**53
        mu = PointConfiguration(w, (((0.1,), 2**53), ((0.3,), 1)))
        assert _one_replica(mu).counts().tolist() == [2**53 + 1]

    @pytest.mark.filterwarnings("error")
    def test_a_count_past_int64_raises(self, w):
        mu = PointConfiguration(w, (((0.1,), 2**62), ((0.3,), 2**62)))
        assert mu.total_count == 2**63
        with pytest.raises(InvalidMeasureError, match="replica 0"):
            _one_replica(mu).counts()

    @pytest.mark.filterwarnings("error")
    def test_sampled_counts_near_z_one_are_exact(self, w):
        # about 1e17 points over 2.8e6 clusters, past 2**53
        params = PolyaParams(1 - 1e-12, ReferenceMeasure.uniform(w, 1e5))
        batch = sample_polya_direct_batch(params, 1, RngSeed(1))
        assert batch.counts().tolist() == [sum(batch.mult.tolist())]


class TestSuperpose:
    def test_adds_points_as_atoms(self, w):
        rho = ReferenceMeasure.uniform(w, 2.0)
        mu = PointConfiguration(w, (((0.3,), 3),))
        out = superpose(rho, mu)
        assert out.atoms == (((0.3,), 3.0),)
        assert out.total_mass == pytest.approx(5.0)

    def test_empty_observation_is_identity(self, w):
        rho = ReferenceMeasure.uniform(w, 2.0)
        out = superpose(rho, PointConfiguration(w, ()))
        assert out == rho

    def test_merges_at_existing_atom(self, w):
        rho = ReferenceMeasure(w, np.zeros(4), (((0.3,), 1.0),))
        mu = PointConfiguration(w, (((0.3,), 2),))
        out = superpose(rho, mu)
        assert out.atoms == (((0.3,), 3.0),)

    def test_mass_bookkeeping(self, w):
        rho = ReferenceMeasure.uniform(w, 1.5)
        mu = PointConfiguration(w, (((0.2,), 2), ((0.8,), 1)))
        out = superpose(rho, mu)
        assert out.total_mass == pytest.approx(
            rho.total_mass + count(mu, np.arange(w.n_cells)))


class TestInvariants:
    def test_zero_measure_draws_nothing(self, w):
        rho = ReferenceMeasure(w, np.zeros(4), (((0.5,), 0.0),))
        ours, fresh = np.random.default_rng(3), np.random.default_rng(3)
        cells, coords = np.empty(5, dtype=np.int64), np.empty((5, 1))
        with pytest.raises(InvalidMeasureError, match="zero measure"):
            rho._locations_into(cells, coords, ours)
        assert ours.random() == fresh.random()

    def test_point_configuration_validation(self, w):
        with pytest.raises(InvalidMeasureError):
            PointConfiguration(w, (((0.2,), 0),))
        with pytest.raises(InvalidMeasureError):
            PointConfiguration(w, (((0.2,), 1), ((0.2,), 2)))
        with pytest.raises(InvalidMeasureError):
            PointConfiguration(w, (((1.5,), 1),))

    def test_atomic_measure_validation(self, w):
        with pytest.raises(InvalidMeasureError):
            AtomicMeasure(w, (((0.2,), 0.0),))
        with pytest.raises(InvalidMeasureError):
            AtomicMeasure(w, (((0.2,), -1.0),))

    def test_reference_measure_validation(self, w):
        with pytest.raises(InvalidMeasureError):
            ReferenceMeasure(w, np.array([1.0, -0.5, 0.0, 0.0]))
        with pytest.raises(InvalidMeasureError):
            ReferenceMeasure(w, np.ones(3))

    def test_total_mass_must_be_finite(self):
        # each mass is finite but their sum is not, so normalising by it
        # would give NaN probabilities; no overflow warning either
        w = Window.interval(0.0, 1.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for masses, atoms in (([1e308, 1e308], ()),
                                  ([1e308, 0.0], (((0.5,), 1e308),))):
                with pytest.raises(InvalidMeasureError, match="overflows"):
                    ReferenceMeasure(w, masses, atoms)
            rho = ReferenceMeasure(w, [1e308, 1e307])
            with pytest.raises(InvalidMeasureError, match="overflows"):
                rho.scale(1.7)
            assert rho.scale(1.5).total_mass == pytest.approx(1.65e308)

    @pytest.mark.parametrize("window, masses, atoms", [
        (Window.box([(0, 1), (0, 2)], [2, 3]), np.arange(6.0),
         (((0.1, 0.2), 3.0), ((0.7, 1.9), 0.0), ((1.0, 0.0), 1e-300))),
        (Window.discrete(["a", "b", "c"]), [1.0, 0.0, 2.5],
         (("b", 4.0), ("c", 0.1))),
    ])
    def test_scale_equals_the_checked_construction(self, window, masses,
                                                   atoms):
        rho = ReferenceMeasure(window, masses, atoms)
        for factor in (0.0, 1.0, 0.1, 3, 1e300):
            scaled = rho.scale(factor)
            built = ReferenceMeasure(window, rho.cell_masses * factor, tuple(
                (loc, w * factor) for loc, w in atoms))
            assert scaled == built and hash(scaled) == hash(built)
            for col in ("cell_masses", "_atom_cell", "_atom_weight",
                        "_atom_coords"):
                got, want = getattr(scaled, col), getattr(built, col)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable
        with pytest.raises(InvalidMeasureError, match=">= 0"):
            rho.scale(-1.0)
        with pytest.raises(InvalidMeasureError, match="must be finite"):
            rho.scale(float("nan"))
        with pytest.raises(InvalidMeasureError, match="must be a number"):
            rho.scale(True)

    def test_test_function_validation(self, w):
        with pytest.raises(InvalidMeasureError):
            TestFunction(w, np.array([0.1, -0.2, 0.0, 0.0]))
        TestFunction(w, np.array([0.0, np.inf, 1.0, 0.0]))  # inf is legal

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, -np.inf, np.nan])
    def test_test_function_accepts_exactly_the_nonnegatives(self, w, bad):
        # one (vals >= 0).all() check: NaN and negatives are refused,
        # -0.0, subnormals and +inf are kept as they are
        kept = np.array([-0.0, 5e-324, np.inf, 2.0])
        f = TestFunction(w, kept)
        assert np.array_equal(f.values, kept)
        assert np.signbit(f.values[0])
        for cell in range(4):
            vals = kept.copy()
            vals[cell] = bad
            with pytest.raises(InvalidMeasureError, match=">= 0"):
                TestFunction(w, vals)


class TestSerialization:
    def test_window_round_trip(self):
        for w in (Window.box([(0, 1), (2, 5)], [2, 2]),
                  Window.discrete(["x", "y"])):
            blob = json.dumps(w.to_dict())
            assert Window.from_dict(json.loads(blob)) == w

    def test_schema_fields(self, w):
        doc = ReferenceMeasure.uniform(w, 2.0).to_dict()
        assert doc["schema_version"] == 1
        assert doc["window"]["mode"] == "box"
        assert len(doc["masses"]) == 4
        assert doc["atoms"] == []

    def test_measure_round_trips(self, w):
        rho = ReferenceMeasure(w, np.array([0.5, 0, 1.0, 0.25]),
                               (((0.125,), 2.0),))
        assert ReferenceMeasure.from_dict(
            json.loads(json.dumps(rho.to_dict()))) == rho
        mu = PointConfiguration(w, (((0.3,), 2), ((0.9,), 1)))
        assert PointConfiguration.from_dict(
            json.loads(json.dumps(mu.to_dict()))) == mu
        kappa = AtomicMeasure(w, (((0.4,), 0.75),))
        assert AtomicMeasure.from_dict(
            json.loads(json.dumps(kappa.to_dict()))) == kappa

    def test_discrete_round_trip(self):
        w = Window.discrete(["a", "b"])
        mu = PointConfiguration(w, (("a", 2),))
        assert PointConfiguration.from_dict(
            json.loads(json.dumps(mu.to_dict()))) == mu

    def test_multiplicity_must_be_an_integer(self, w):
        # 2.0 is an integer that JSON may spell as a float; nothing
        # else is cast to an int
        mu = PointConfiguration.from_dict(
            {"points": [{"loc": [0.3], "mult": 2.0}]}, window=w)
        assert mu.points == (((0.3,), 2),)
        assert type(mu.points[0][1]) is int
        for bad in (2.5, True, "3", float("inf"), None):
            with pytest.raises(InvalidMeasureError, match="multiplicity"):
                PointConfiguration.from_dict(
                    {"points": [{"loc": [0.3], "mult": bad}]}, window=w)
        with pytest.raises(InvalidMeasureError, match="multiplicity"):
            PointConfiguration(w, (((0.3,), True),))

    @pytest.mark.parametrize("bad", ["2", True, None])
    def test_measure_values_must_be_numbers(self, w, bad):
        # float() would cast "2" and true; integers stay numbers
        rho = ReferenceMeasure.from_dict(
            {"masses": [1, 0, 2.5, 0], "atoms": [{"loc": [0.3], "weight": 2}]},
            window=w)
        assert rho == ReferenceMeasure(w, np.array([1.0, 0.0, 2.5, 0.0]),
                                       (((0.3,), 2.0),))
        cases = [
            (ReferenceMeasure, {"masses": [1.0, bad, 0.0, 0.0]}, "cell mass"),
            (ReferenceMeasure, {"atoms": [{"loc": [0.3], "weight": bad}]},
             "atom weight"),
            (AtomicMeasure, {"atoms": [{"loc": [0.3], "weight": bad}]},
             "atom weight"),
        ]
        for cls, doc, what in cases:
            with pytest.raises(InvalidMeasureError, match=what):
                cls.from_dict(doc, window=w)
        # each type checks its own numbers, however it is built
        calls = [
            (lambda: AtomicMeasure(w, (((0.3,), bad),)), "atom weight"),
            (lambda: ReferenceMeasure(w, [1.0, bad, 0, 0]), "cell mass"),
            (lambda: ReferenceMeasure(w, None, (((0.3,), bad),)),
             "atom weight"),
            (lambda: ReferenceMeasure.uniform(w, bad), "total mass"),
            (lambda: TestFunction(w, [1.0, bad, 0, 0]),
             "test function value"),
            (lambda: TestFunction.constant(w, bad), "test function value"),
            (lambda: TestFunction.indicator(w, [0], bad),
             "test function value"),
            (lambda: PointConfiguration(w, (((bad,), 1),)),
             "location coordinate"),
            (lambda: AtomicMeasure(w, (((bad,), 1.0),)),
             "location coordinate"),
            (lambda: Window.box([(0.0, bad)], [4]), "axis bound"),
            (lambda: Window.box([(0.0, 1.0)], [bad]), "cell count"),
        ]
        for call, what in calls:
            with pytest.raises(InvalidMeasureError, match=what):
                call()
        with pytest.raises(InvalidMeasureError, match="cell mass"):
            ReferenceMeasure(w, ["1", True, 0, 0])
        with pytest.raises(InvalidMeasureError, match="test function value"):
            TestFunction(Window.interval(0.0, 1.0, 2), ["1", True])


# Per-point loop forms of the evaluation maps, kept as references for
# the one-replica batch views that replaced them.

def zeta_loop(measure, f):
    win = measure.window
    if isinstance(measure, PointConfiguration):
        return float(sum(m * f.values[win.cell_of(loc)]
                         for loc, m in measure.points))
    return float(sum(w * f.values[win.cell_of(loc)]
                     for loc, w in measure.atoms))


def count_loop(mu, cells):
    cell_set = set(np.asarray(cells, dtype=np.int64).tolist())
    win = mu.window
    return int(sum(m for loc, m in mu.points if win.cell_of(loc) in cell_set))


@st.composite
def windows(draw):
    kind = draw(st.sampled_from(["1d", "2d", "sites"]))
    if kind == "1d":
        return Window.interval(0.0, 1.0, draw(st.integers(1, 5)))
    if kind == "2d":
        return Window.box([(0.0, 2.0), (-1.0, 1.0)],
                          [draw(st.integers(1, 3)), draw(st.integers(1, 3))])
    return Window.discrete([f"s{i}" for i in range(draw(st.integers(1, 5)))])


@st.composite
def located_pairs(draw, window, values):
    """Distinct locations of ``window`` (possibly none), each with a value."""
    if window.mode == "sites":
        locs = draw(st.lists(st.sampled_from(window.sites), unique=True))
    else:
        axes = [st.floats(lo, hi) for lo, hi in window.bounds]
        locs = draw(st.lists(st.tuples(*axes), unique=True, max_size=8))
    return tuple((loc, draw(values)) for loc in locs)


@st.composite
def view_cases(draw):
    window = draw(windows())
    mu = PointConfiguration(window, draw(located_pairs(
        window, st.integers(1, 1000))))
    kappa = AtomicMeasure(window, draw(located_pairs(
        window, st.floats(1e-6, 1e6))))
    f = TestFunction(window, np.array(draw(st.lists(
        st.one_of(st.floats(0.0, 10.0), st.just(np.inf)),
        min_size=window.n_cells, max_size=window.n_cells))))
    cells = draw(st.lists(st.integers(0, window.n_cells - 1), unique=True))
    return mu, kappa, f, cells


class TestOneReplicaViews:
    @given(case=view_cases())
    @settings(max_examples=200, deadline=None)
    def test_views_equal_point_loops(self, case):
        mu, kappa, f, cells = case
        assert zeta(mu, f) == zeta_loop(mu, f)
        assert zeta(kappa, f) == zeta_loop(kappa, f)
        assert count(mu, cells) == count_loop(mu, cells)
        assert distinct_count(mu) == len(mu.points)

    @given(case=view_cases(), n=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_tile_round_trip(self, case, n):
        mu, kappa, _, _ = case
        configs = ConfigurationBatch(
            mu.window, n, *_tile(mu.window, mu.points, n)).to_configurations()
        measures = AtomicBatch(
            kappa.window, n, *_tile(kappa.window, kappa.atoms, n)).to_measures()
        assert configs == [mu] * n
        assert measures == [kappa] * n

    def test_repeated_location_fails_to_convert(self):
        # conversion groups records by replica and merges nothing, so
        # a location twice in one replica meets the objects' own check;
        # -0.0 equals 0.0 there, as Python floats compare
        window = Window.interval(-1.0, 1.0, 2)
        rep = np.array([1, 0, 1, 0])

        def batches(second):
            coords = np.array([[0.5], [0.0], [-0.5], [second]])
            cell = window.cells_of(coords)
            return (ConfigurationBatch(window, 2, rep, cell,
                                       np.array([1, 2, 3, 4]), coords),
                    AtomicBatch(window, 2, rep, cell,
                                np.array([1.0, 2.0, 3.0, 4.0]), coords))

        configs, measures = batches(0.25)
        assert configs.to_configurations()[0].points == (
            ((0.0,), 2), ((0.25,), 4))
        assert measures.to_measures()[1].atoms == (
            ((0.5,), 1.0), ((-0.5,), 3.0))
        for second in (0.0, -0.0):
            configs, measures = batches(second)
            with pytest.raises(InvalidMeasureError, match="duplicate"):
                configs.to_configurations()
            with pytest.raises(InvalidMeasureError, match="duplicate"):
                measures.to_measures()

    def test_samplers_reexport_the_batch_types(self):
        assert samplers.ConfigurationBatch is ConfigurationBatch
        assert samplers.AtomicBatch is AtomicBatch


# state_space._merge and the grouping by replica decide the record
# order of every batch and conversion, and the integer sums of
# multiplicities must stay exact past 2**53 against numpy's own
# poisson, choice and logseries draws
@pytest.mark.numpy_bits
class TestMerge:
    def test_box_sums_in_record_order_and_keeps_other_records(self):
        window = Window.box([(0.0, 1.0), (0.0, 1.0)], [2, 2])
        atoms = (((0.25, 0.75), 1.0), ((0.5, 0.5), 0.0))
        a, b = atoms[0][0], atoms[1][0]
        records = [(1, b, 4.0), (0, a, 1e16), (0, a, -1e16),
                   (0, (0.1, 0.1), 5.0), (1, a, 6.0), (0, (0.9, 0.2), 7.0),
                   (0, a, 1.0), (1, (0.3, 0.8), 8.0)]
        rep = np.array([r for r, _, _ in records])
        coords = np.array([x for _, x, _ in records])
        value = np.array([v for _, _, v in records])
        cell = window.cells_of(coords)
        at, key = ReferenceMeasure(window, None, atoms)._atoms_at(coords)
        assert at.tolist() == [0, 1, 2, 4, 6]
        assert key.tolist() == [1, 0, 0, 0, 0]
        # replica 0 holds a three times: 1e16, -1e16, 1.0 sum to 1.0 in
        # record order, and to 0.0 in any order that adds 1.0 earlier
        out = _merge(AtomicBatch(window, 2, rep, cell, value, coords), at,
                     key)
        out_rep, out_cell, out_value, out_coords = (
            out.rep, out.cell, out.weight, out.coords)
        off = [3, 5, 7]
        assert np.array_equal(out_rep[:3], rep[off])
        assert np.array_equal(out_value[:3], value[off])
        assert np.array_equal(out_coords[:3], coords[off])
        # then one record per (replica, atom): (0, a), (1, a), (1, b)
        assert out_rep[3:].tolist() == [0, 1, 1]
        assert out_coords[3:].tolist() == [list(a), list(a), list(b)]
        assert out_value[3:].tolist() == [1.0, 6.0, 4.0]
        assert np.array_equal(out_cell, window.cells_of(out_coords))

    def test_sites_merge_by_cell(self):
        window = Window.discrete(["a", "b", "c"])
        rep = np.array([0, 1, 0, 0, 1])
        cell = np.array([2, 0, 1, 2, 0])
        mult = np.array([1, 2, 3, 4, 5])
        out = _merge(ConfigurationBatch(window, 2, rep, cell, mult,
                                        cell.copy()), ())
        assert [col.tolist() for col in (out.rep, out.cell, out.mult,
                                         out.coords)] == [
            [0, 0, 1], [1, 2, 0], [3, 5, 7], [1, 2, 0]]
        assert out.mult.dtype == mult.dtype

    @pytest.mark.filterwarnings("error")
    def test_site_sums_past_2_53_are_exact(self):
        # about 3.3e16 points a site: a float sum of the multiplicities
        # strays from numpy's own draws by 17-18 thousand a site
        window = Window.discrete(["a", "b", "c"])
        rho = ReferenceMeasure.uniform(window, 1e5)
        z = 1.0 - 1e-12
        batch = sample_polya_direct_batch(PolyaParams(z, rho), 1, RngSeed(1))
        gen = RngSeed(1).generator()
        k = int(gen.poisson(-math.log1p(-z) * 1e5, size=1)[0])
        cells = gen.choice(3, k, p=rho.cell_masses / rho.cell_masses.sum())
        mult = gen.logseries(z, k)
        want = [sum(mult[cells == c].tolist()) for c in range(3)]
        assert max(want) > 2 ** 53
        assert batch.cell.tolist() == [0, 1, 2]
        assert batch.mult.tolist() == want
        assert batch.counts().tolist() == [sum(want)]

    def test_box_without_atoms_is_untouched(self, w):
        batch = ConfigurationBatch(w, 1, np.array([0, 0]), np.array([1, 1]),
                                   np.array([1, 1]), np.array([[0.3], [0.3]]))
        assert _merge(batch, ()) is batch


    @pytest.mark.parametrize("cls", [ConfigurationBatch, AtomicBatch])
    def test_keys_drawn_equal_the_per_atom_loop(self, cls):
        # merging by the atom each draw landed on gives the batch that
        # comparing every record with every atom gave
        rho = _atom_heavy_rho()
        gen = np.random.default_rng(5)
        cells, coords = np.empty(3000, dtype=np.int64), np.empty((3000, 2))
        hit, atom = rho._locations_into(cells, coords, gen)
        assert np.array_equal(coords[hit], rho._atom_coords[atom])
        assert np.signbit(coords[hit]).any()  # some draws hit -0.0
        rep = gen.integers(0, 40, coords.shape[0])
        value = (gen.integers(1, 5, rep.size) if cls is ConfigurationBatch
                 else gen.exponential(size=rep.size))
        batch = cls(rho.window, 40, rep, cells, value, coords)
        new, old = _merge(batch, hit, atom), _merge_loop(batch, rho.atoms)
        assert new.rep.size < rep.size
        for a, b in zip(_columns(new), _columns(old)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


def _atom_heavy_rho():
    """4000 atoms on a 2-d box, five of them heavy; zero coordinates
    of both signs sit on and off the window's edges."""
    gen = np.random.default_rng(2024)
    window = Window.box([(0.0, 1.0), (-1.0, 1.0)], [2, 3])
    locs = np.column_stack([gen.uniform(0.0, 1.0, 4000),
                            gen.uniform(-1.0, 1.0, 4000)])
    locs[:4] = [[-0.0, 0.5], [0.25, 0.0], [0.0, -0.0], [0.5, -0.25]]
    weights = gen.uniform(1e-3, 1e-2, 4000)
    weights[:5] = 0.5
    return ReferenceMeasure(window, np.full(6, 0.25), tuple(
        zip(map(tuple, locs.tolist()), weights.tolist())))


def _merge_loop(batch, atoms):
    """The merge that compared every record with every atom, kept as
    the oracle of the keys drawn and the keys matched."""
    rep, cell, coords = batch.rep, batch.cell, batch.coords
    value = (batch.mult if isinstance(batch, ConfigurationBatch)
             else batch.weight)
    loc = _atom_loop(coords, atoms)
    on = loc >= 0
    if not on.any():
        return batch
    order = np.flatnonzero(on)[np.lexsort((loc[on], rep[on]))]
    start = np.ones(order.size, dtype=bool)
    start[1:] = ((rep[order][1:] != rep[order][:-1])
                 | (loc[order][1:] != loc[order][:-1]))
    summed = np.bincount(np.cumsum(start) - 1, weights=value[order])
    first, keep = order[start], ~on
    return type(batch)(
        batch.window, batch.n, np.concatenate([rep[keep], rep[first]]),
        np.concatenate([cell[keep], cell[first]]),
        np.concatenate([value[keep], summed.astype(value.dtype)]),
        np.concatenate([coords[keep], coords[first]]))


def _atom_loop(coords, atoms):
    """Per record, the atom whose coordinates it equals, or -1."""
    loc = np.full(coords.shape[0], -1, dtype=np.int64)
    for k, (atom, _) in enumerate(atoms):
        loc[(coords == atom).all(axis=1)] = k
    return loc


def _columns(batch):
    value = (batch.mult if isinstance(batch, ConfigurationBatch)
             else batch.weight)
    return batch.rep, batch.cell, value, batch.coords


# the atom matcher sorts and searches void row bytes
@pytest.mark.numpy_bits
class TestAtomMatch:
    """``ReferenceMeasure._atoms_at`` against the per-atom loop."""

    def test_equals_the_per_atom_loop(self):
        rho = _atom_heavy_rho()
        gen = np.random.default_rng(9)
        atoms = rho._atom_coords
        # atoms, atoms with each zero's sign flipped, rows sharing one
        # coordinate with an atom, and diffuse rows
        flipped = np.where(atoms == 0.0, np.copysign(0.0, -atoms), atoms)
        half = atoms.copy()
        half[:, 1] = gen.uniform(-1.0, 1.0, half.shape[0])
        diffuse = np.column_stack([gen.uniform(0.0, 1.0, 500),
                                   gen.uniform(-1.0, 1.0, 500)])
        coords = np.concatenate([atoms, flipped, half, diffuse])
        coords = coords[gen.permutation(coords.shape[0])]
        loc = _atom_loop(coords, rho.atoms)
        at, key = rho._atoms_at(coords)
        assert np.array_equal(at, np.flatnonzero(loc >= 0))
        assert np.array_equal(key, loc[loc >= 0])
        assert at.size == 2 * atoms.shape[0]

    def test_signed_zero_rows_meet(self):
        window = Window.box([(-1.0, 1.0), (-1.0, 1.0)], [2, 2])
        rho = ReferenceMeasure(window, None, (((-0.0, 0.0), 1.0),
                                              ((0.5, -0.0), 2.0)))
        coords = np.array([[0.0, -0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.0]])
        at, key = rho._atoms_at(coords)
        assert at.tolist() == [0, 1, 3] and key.tolist() == [0, 1, 0]

    def test_finds_nothing_without_atoms_or_on_sites(self, w):
        coords = np.array([[0.3], [0.3]])
        assert ReferenceMeasure.uniform(w, 1.0)._atoms_at(coords) == ((), ())
        sites = ReferenceMeasure(Window.discrete(["a", "b"]), None,
                                 (("a", 1.0),))
        assert sites._atoms_at(np.array([0, 0])) == ((), ())


# the atoms are decoded by sorting and searching void row bytes
@pytest.mark.numpy_bits
class TestAtomColumns:
    """The atoms decoded once agree with the per-atom loops they
    replace, bit for bit."""

    @pytest.mark.parametrize("sites", [False, True])
    def test_reductions_equal_the_atom_loops(self, sites):
        gen = np.random.default_rng(3)
        if sites:
            window = Window.discrete([f"s{i}" for i in range(50)])
            locs = list(window.sites)
        else:
            window = Window.box([(0.0, 1.0), (-1.0, 1.0)], [2, 3])
            locs = list(map(tuple, gen.uniform(0.0, 1.0, (4000, 2))))
        weights = gen.exponential(size=len(locs)) * 10.0 ** gen.integers(
            -8, 8, len(locs))
        weights[::7] = 0.0
        rho = ReferenceMeasure(window, gen.uniform(0.0, 2.0, window.n_cells),
                               tuple(zip(locs, weights.tolist())))
        assert rho._atom_cell.tolist() == [window.cell_of(loc)
                                           for loc in locs]
        for col in (rho._atom_cell, rho._atom_weight, rho._atom_coords):
            assert not col.flags.writeable
        assert rho.total_mass == float(rho.cell_masses.sum() + sum(
            w for _, w in rho.atoms))
        values = gen.uniform(0.0, 3.0, window.n_cells)
        total = float(np.dot(rho.cell_masses, values))
        for loc, w in rho.atoms:
            if w > 0:
                total += w * float(values[window.cell_of(loc)])
        assert _integrate_cellwise(rho, values) == total

    def test_atoms_add_in_order(self, w):
        # compensated summation (``sum`` of floats from Python 3.12 on,
        # math.fsum) gives 1.0000000000000002e16 here; the samplers take
        # their mass from total_mass, so the draws depend on the order
        weights = (1.0, 1e16, 1.0)
        locs = [(0.1,), (0.2,), (0.3,)]
        rho = ReferenceMeasure(w, None, tuple(zip(locs, weights)))
        assert rho.total_mass == 1e16
        assert _integrate_cellwise(rho, np.ones(4)) == 1e16
        assert AtomicMeasure(w, tuple(zip(locs, weights))).total_mass == 1e16

    @pytest.mark.parametrize("window", [
        Window.interval(0.0, 1.0, 4),
        Window.box([(0.0, 1.0), (-1.0, 2.0)], [3, 5]),
        Window.discrete(["a", "b", "c"])], ids=["box1", "box2", "sites"])
    def test_no_atoms_gives_empty_columns(self, window):
        # built directly, with the dtypes and shapes the decoding of an
        # empty atom list gives, and equal, hash-equal to the measure
        # built from an empty atom list or document
        masses = np.linspace(0.5, 1.5, window.n_cells)
        rho = ReferenceMeasure(window, masses)
        cols = (rho._atom_cell, rho._atom_weight, rho._atom_coords)
        for col, want in zip(cols, _tile(window, (), 1)[1:]):
            assert col.dtype == want.dtype and col.shape == want.shape
            assert not col.flags.writeable
        assert rho._atom_coords.shape == (
            (0,) if window.mode == "sites" else (0, window.dimension))
        for same in (ReferenceMeasure(window, masses, []),
                     ReferenceMeasure.from_dict(rho.to_dict()),
                     ReferenceMeasure(window, masses, ()).scale(1.0)):
            assert same == rho and hash(same) == hash(rho)
        with_atom = ReferenceMeasure(window, masses, ((
            "b" if window.mode == "sites" else (0.5,) * window.dimension,
            0.0),))
        assert with_atom != rho
        assert with_atom.total_mass == rho.total_mass


class TestCellRanges:
    """Cell lists name cells of the window: a negative index does not
    wrap to the end, and one past the end is a typed error."""

    def test_indicator_rejects_indices_outside(self, w):
        assert TestFunction.indicator(w, [3]).values.tolist() == [
            0.0, 0.0, 0.0, 1.0]
        for cells in ([-1], [4]):
            with pytest.raises(InvalidMeasureError, match="cell indices"):
                TestFunction.indicator(w, cells)

    NOT_INT = "must be an integer"

    @pytest.mark.parametrize("cells, want", [
        (["1"], NOT_INT), ([True, False], NOT_INT), (np.array([True]), NOT_INT),
        ([1.5], NOT_INT), ([-0.5], NOT_INT), ([2 ** 64], "cell indices"),
        ([2.0], [2]), (np.array([1, 3]), [1, 3]), ([np.int32(0)], [0])])
    def test_indicator_takes_indices_by_the_number_rule(self, w, cells, want):
        # each index is an integer by _json_int: an int64 cast would
        # take a string, a bool or a fraction as a cell
        if isinstance(want, str):
            with pytest.raises(InvalidMeasureError, match=want):
                TestFunction.indicator(w, cells)
        else:
            assert np.flatnonzero(
                TestFunction.indicator(w, cells).values).tolist() == want

    def test_batch_counts_reject_indices_outside(self, w):
        batch = ConfigurationBatch(
            w, 2, np.array([0, 1]), np.array([3, 0]), np.array([2, 1]),
            np.array([[0.9], [0.1]]))
        def region(cells):
            # a region's count is zeta of its indicator, which checks cells
            return batch.zeta(TestFunction.indicator(w, cells))
        assert region([3]).tolist() == [2, 0]
        assert region([0, 3]).tolist() == [2, 1]
        for cells in ([4], [-1], [7]):
            with pytest.raises(InvalidMeasureError, match="cell indices"):
                region(cells)


def _categorical_probs(k, seed, zeros, log_min):
    """k probabilities spread over 10**log_min..1, with zero entries."""
    gen = np.random.default_rng(seed)
    p = 10.0 ** gen.uniform(log_min, 0.0, k)
    if k > 1:
        p[{"none": [], "first": [0], "middle": [k // 2], "last": [k - 1],
           "all but one": gen.permutation(k)[1:]}[zeros]] = 0.0
    return p / p.sum()


# replay._categorical reproduces Generator.choice's draws
@pytest.mark.numpy_bits
class TestCategorical:
    """``_categorical`` against the ``Generator.choice`` it reproduces:
    equal draws, equal dtype and the generator left in the same state."""

    @staticmethod
    def _assert_as_choice(p, size, seed):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _categorical(p, size, ours)
        want = numpys.choice(p.size, size, p=p)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert ours.random() == numpys.random()

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
           zeros=st.sampled_from(["none", "first", "middle", "last",
                                  "all but one"]),
           log_min=st.floats(-300.0, 0.0), size=st.sampled_from([0, 1, 7, 2000]))
    def test_matches_choice(self, k, seed, zeros, log_min, size):
        self._assert_as_choice(_categorical_probs(k, seed, zeros, log_min),
                               size, seed)

    @pytest.mark.parametrize("k", [1, 2, 3, 9, 17, 100, 1000])
    def test_matches_choice_on_a_grid(self, k):
        for seed in range(5):
            for zeros in ("none", "first", "middle", "last"):
                self._assert_as_choice(
                    _categorical_probs(k, seed, zeros, -3.0), 20_000, seed)

    def test_equal_entries_and_long_zero_runs(self):
        # cdf values k/8 fall on bucket edges; a run of equal cdf values
        # fills one bucket with thousands of entries
        self._assert_as_choice(np.full(8, 0.125), 50_000, 1)
        for p in (np.r_[np.zeros(4999), 1.0], np.r_[0.5, np.zeros(9998), 0.5]):
            self._assert_as_choice(p, 50_000, 2)


# the block-wise draws must equal numpy's one-shot draws
@pytest.mark.numpy_bits
class TestBlocks:
    """The block-wise draws against the one-shot draws they replace:
    equal values and the generator left in the same state, at sizes on
    and across the block boundaries."""

    BLOCK = replay._BLOCK
    SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)

    @pytest.mark.parametrize("size", SIZES)
    def test_categorical_into_rows(self, size):
        p = _categorical_probs(1000, 4, "middle", -6.0)
        ours, numpys = np.random.default_rng(6), np.random.default_rng(6)
        out = np.full(size + 10, -1, dtype=np.int64)
        _categorical(p, size, ours, out=out[5:-5])
        assert np.array_equal(out[5:-5], numpys.choice(p.size, size, p=p))
        assert (out[:5] == -1).all() and (out[-5:] == -1).all()
        assert ours.random() == numpys.random()

    @staticmethod
    def _one_shot(window, cells, rng):
        """Every coordinate at once, one rng.random(M) per axis from
        the last axis back."""
        coords = np.empty((cells.size, window.dimension))
        rem = cells
        for axis in range(window.dimension - 1, -1, -1):
            (lo, hi), n = window.bounds[axis], window.cells_per_axis[axis]
            if axis:
                rem, idx = np.divmod(rem, n)
            else:
                idx = rem
            coords[:, axis] = (idx + rng.random(cells.size)) * (
                (hi - lo) / n) + lo
        return coords

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("window", [
        Window.interval(-1.0, 3.0, 7),
        Window.box([(0.0, 1.0), (-1.0, 2.0)], [3, 5]),
        Window.box([(0.0, 1.0), (0.0, 2.0), (-5.0, 5.0)], [2, 3, 4])])
    def test_uniform_in_cells(self, window, size):
        cells = np.random.default_rng(8).integers(0, window.n_cells, size)
        ours, numpys = np.random.default_rng(7), np.random.default_rng(7)
        got = np.empty((size, window.dimension))
        window._uniform_into(cells, got, ours)
        want = self._one_shot(window, cells, numpys)
        assert np.array_equal(got, want)
        assert ours.random() == numpys.random()


# replay._logseries replays numpy's random_logseries algorithm and
# its vector expm1 and log, and falls back to Generator.logseries on
# a numpy where its probe differs
@pytest.mark.numpy_bits
class TestLogseries:
    """``_logseries`` against the ``rng.logseries`` it reproduces: equal
    draws and dtype, and both generators left in one state (the next 16
    doubles, then the next 32-bit draw, agree)."""

    BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.SFC64,
                      np.random.Philox)
    PS = (1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 0.999999, 1 - 1e-12,
          np.nextafter(1.0, 0.0))
    MIN = replay._LOGSERIES_MIN_SIZE
    # the last size takes more than two buffers
    SIZES = (0, 1, MIN - 1, MIN, MIN + 1,
             replay._BLOCK * 2 + 3)

    @staticmethod
    def _assert_as_logseries(bit_generator, p, size, seed=5,
                             buffered=False):
        ours, numpys = (np.random.Generator(bit_generator(seed))
                        for _ in range(2))
        if buffered:  # a 32-bit half of a 64-bit draw waits in the state
            for gen in (ours, numpys):
                gen.integers(2**32, dtype=np.uint32)
        got = _logseries(p, size, ours)
        want = numpys.logseries(p, size)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(ours.random(16), numpys.random(16))
        assert (ours.integers(2**32, dtype=np.uint32)
                == numpys.integers(2**32, dtype=np.uint32))

    def test_the_replay_runs_on_this_numpy(self):
        # else every other test here compares numpy with itself
        assert replay._logseries_replays()

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("p", PS)
    def test_matches_logseries(self, bit_generator, p):
        for size in self.SIZES:
            self._assert_as_logseries(bit_generator, p, size)
        self._assert_as_logseries(bit_generator, p, self.MIN, buffered=True)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_replay_matches_at_every_p_and_size(self, bit_generator,
                                                monkeypatch):
        # past the dispatch's cutoffs too: small p, p near 1, one or
        # two draws
        monkeypatch.setattr(replay, "_LOGSERIES_MIN_P", 0.0)
        monkeypatch.setattr(replay, "_LOGSERIES_MAX_P", 1.0)
        monkeypatch.setattr(replay, "_LOGSERIES_MIN_SIZE", 0)
        for p in self.PS:
            for size in (0, 1, 2, 7, 4097) + self.SIZES[-1:]:
                self._assert_as_logseries(bit_generator, p, size)
            self._assert_as_logseries(bit_generator, p, 7, buffered=True)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_every_pair_through_libm(self, bit_generator, monkeypatch):
        # a band of 2**62 ulps spans every double in [0, 1] and every
        # floor argument, so every variate takes the math path
        monkeypatch.setattr(replay, "_LOGSERIES_BAND", 2**62)
        monkeypatch.setattr(replay, "_LOGSERIES_MAX_P", 1.0)
        for p in (0.6, 0.7, 0.9, 0.999999, np.nextafter(1.0, 0.0)):
            self._assert_as_logseries(bit_generator, p, self.MIN + 1)

    def test_near_one_goes_to_numpy(self, monkeypatch):
        # past _LOGSERIES_MAX_P numpy's loop is the faster one
        def no_replay(*args):
            raise AssertionError("the replay was entered")

        monkeypatch.setattr(replay, "_logseries_replay", no_replay)
        assert replay._LOGSERIES_MAX_P <= 1 - 1e-9
        ours, numpys = np.random.default_rng(3), np.random.default_rng(3)
        got = _logseries(1 - 1e-9, 20_000, ours)
        assert np.array_equal(got, numpys.logseries(1 - 1e-9, 20_000))
        assert ours.random() == numpys.random()

    def test_a_variate_numpy_would_draw_again_goes_to_numpy(self,
                                                            monkeypatch):
        # numpy draws a variate again when V == 0 (chance 2**-53 per
        # draw); here every variate looks so to the replay, which must
        # hand the whole request to numpy from the state it was given
        monkeypatch.setattr(replay, "_LOGSERIES_BAND", 2**62)
        monkeypatch.setattr(replay, "_logseries_exact",
                            lambda *args: 0)
        self._assert_as_logseries(np.random.PCG64, 0.7, self.MIN + 1)

    def test_a_numpy_the_replay_does_not_match_gets_numpys_loop(
            self, monkeypatch):
        monkeypatch.setattr(replay, "_logseries_replay",
                            lambda p, size, rng: np.ones(size, np.int64))
        replay._logseries_replays.cache_clear()
        try:
            assert not replay._logseries_replays()
            for size in (self.MIN, self.SIZES[-1]):
                self._assert_as_logseries(np.random.PCG64, 0.7, size)
        finally:
            replay._logseries_replays.cache_clear()


class TestValueHash:
    """Equal value objects hash equal, signed zeros included."""

    def test_signed_zero_masses(self):
        window = Window.interval(0.0, 1.0, 2)
        a = ReferenceMeasure(window, [-0.0, 1.0])
        b = ReferenceMeasure(window, [0.0, 1.0])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_test_functions_compare_by_value(self):
        window = Window.interval(0.0, 1.0, 2)
        f = TestFunction(window, [-0.0, float("inf")])
        g = TestFunction(window, np.array([0.0, float("inf")]))
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
        assert f != TestFunction(window, [1.0, float("inf")])
        assert f != TestFunction(Window.interval(0.0, 2.0, 2),
                                 [0.0, float("inf")])
        assert f != ReferenceMeasure(window, [0.0, 1.0])
