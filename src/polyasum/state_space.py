"""Windows, cells, measures, and point configurations.

The observation space is either a d-dimensional box partitioned into a
regular grid of cells or a finite set of discrete sites.  All test
functions are piecewise constant on cells, so every integral against a
measure reduces to a finite sum over cells and atoms and is exact.

Locations are a tuple of float coordinates (box windows) or a site
label (discrete windows).  Two points coincide iff their coordinates
are bit-equal, so on a box window only the atoms of a reference
measure can be hit twice.

Samples of any size share one record format: a batch holds n replicas
as flat arrays with one row per located point or atom (replica index,
flat cell index, multiplicity or weight, raw coordinates); a reference
measure decodes its atoms once into such read-only columns.  This
module holds the one batch builder (``_BatchWriter``), whose
preallocated columns, views of one buffer, a sampler draws straight
into, the rows of its next k records at a time, and the one merge rule
for records at one location (``_merge``), which every sampler applies
where it draws, keyed by the atom drawn, writing the shorter result
back into the same rows.  So each sampled record is written once, and
a batch holds each location once per replica, as its objects do;
conversion and the CLI writer only group records by replica
(``_by_replica``), and a hand-built batch that repeats a location
fails to convert.  Single configurations and measures convert to and
from batches here, and their evaluation maps are one-replica batch
views.

Each type checks the numbers it stores (``_json_float``, ``_json_int``),
whether it is read from JSON or built in Python: a string or a bool
raises :class:`InvalidMeasureError`, where ``float`` would cast it.
The measure types are immutable values after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .replay import _BLOCK, _categorical

SCHEMA_VERSION = 1

Location = Union[tuple, str]


class WindowMismatchError(ValueError):
    """Raised when two objects defined over different windows meet."""


class InvalidMeasureError(ValueError):
    """Raised when a measure or configuration violates its invariants."""


def _require_same_window(a, b) -> None:
    if a.window != b.window:
        raise WindowMismatchError(
            f"objects live on different windows: {a.window!r} vs {b.window!r}")


@dataclass(frozen=True)
class Window:
    """A bounded observation window with an exact cell partition.

    mode "box": a product of ``bounds`` intervals split into a regular
    grid with ``cells_per_axis`` cells along each axis.
    mode "sites": a finite list of named sites, one cell per site.
    """

    mode: str
    bounds: tuple = ()           # ((lo, hi), ...) per axis, box mode
    cells_per_axis: tuple = ()   # cell counts per axis, box mode
    sites: tuple = ()            # site labels, sites mode

    def __post_init__(self):
        if self.mode == "box":
            if not self.bounds:
                raise InvalidMeasureError("box window needs at least one axis")
            if len(self.bounds) != len(self.cells_per_axis):
                raise InvalidMeasureError(
                    "bounds and cells_per_axis must have equal length")
            bounds = tuple((_json_float(lo, "axis bound"),
                            _json_float(hi, "axis bound"))
                           for lo, hi in self.bounds)
            for (lo, hi) in bounds:
                if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                    raise InvalidMeasureError(f"bad axis bounds ({lo}, {hi})")
            cells = tuple(_json_int(n, "cell count")
                          for n in self.cells_per_axis)
            if min(cells) < 1:
                raise InvalidMeasureError("cell counts must be ints >= 1")
            object.__setattr__(self, "bounds", bounds)
            object.__setattr__(self, "cells_per_axis", cells)
        elif self.mode == "sites":
            if not self.sites:
                raise InvalidMeasureError("sites window needs at least one site")
            sites = tuple(str(s) for s in self.sites)
            if len(set(sites)) != len(sites):
                raise InvalidMeasureError(
                    f"site labels must be distinct as strings: {sites!r}")
            object.__setattr__(self, "sites", sites)
        else:
            raise InvalidMeasureError(f"unknown window mode {self.mode!r}")

    @classmethod
    def box(cls, bounds: Sequence, cells_per_axis: Sequence[int]) -> "Window":
        return cls(mode="box", bounds=tuple(tuple(b) for b in bounds),
                   cells_per_axis=tuple(cells_per_axis))

    @classmethod
    def interval(cls, lo: float, hi: float, n_cells: int = 1) -> "Window":
        """1-d convenience constructor."""
        return cls.box([(lo, hi)], [n_cells])

    @classmethod
    def discrete(cls, sites: Sequence[str]) -> "Window":
        return cls(mode="sites", sites=tuple(sites))

    @property
    def dimension(self) -> int:
        return len(self.bounds) if self.mode == "box" else 0

    @property
    def n_cells(self) -> int:
        if self.mode == "sites":
            return len(self.sites)
        return math.prod(self.cells_per_axis)

    @property
    def all_cells(self) -> np.ndarray:
        return np.arange(self.n_cells)

    @property
    def cell_volume(self) -> float:
        """Lebesgue volume of one grid cell (1.0 for discrete sites)."""
        if self.mode == "sites":
            return 1.0
        vol = 1.0
        for (lo, hi), n in zip(self.bounds, self.cells_per_axis):
            vol *= (hi - lo) / n
        return vol

    def contains(self, loc: Location) -> bool:
        if self.mode == "sites":
            return loc in self.sites
        bounds = self.bounds
        if not isinstance(loc, tuple) or len(loc) != len(bounds):
            return False
        # a loop that stops at the first miss, where all() over a
        # generator cost twice the time per call
        for x, (lo, hi) in zip(loc, bounds):
            if not lo <= x <= hi:
                return False
        return True

    def cell_of(self, loc: Location) -> int:
        """Flat index of the cell containing ``loc``."""
        if self.mode == "sites":
            try:
                return self.sites.index(loc)
            except ValueError:
                raise InvalidMeasureError(f"unknown site {loc!r}") from None
        if not self.contains(loc):
            raise InvalidMeasureError(f"location {loc!r} outside window")
        return int(self.cells_of(np.array([loc]))[0])

    def cells_of(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized cell lookup for an (M, d) coordinate array."""
        if self.mode == "sites":
            raise InvalidMeasureError("cells_of needs a box window")
        coords = np.atleast_2d(np.asarray(coords))
        if coords.dtype.kind not in "iuf":  # a bool, a string, an object
            raise InvalidMeasureError(
                f"coordinates must be real numbers, got {coords.dtype}")
        coords = coords.astype(float, copy=False)
        flat = np.zeros(len(coords), dtype=np.int64)
        for axis, ((lo, hi), n) in enumerate(zip(self.bounds, self.cells_per_axis)):
            i = ((coords[:, axis] - lo) / (hi - lo) * n).astype(np.int64)
            np.minimum(np.maximum(i, 0, out=i), n - 1, out=i)  # a fast clip
            flat = flat * n + i
        return flat

    def uniform_in_cells(self, cells: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        """Draw one uniform location inside each listed cell.

        Returns an (M, d) coordinate array (box mode only; discrete
        sites are their own locations).  Axis by axis from the last one
        back, with the doubles of one ``rng.random(M)`` per axis taken
        block by block, coordinate k of a point in cell index i_k is
        ``lo + (i_k + U) * ((hi - lo) / n)`` bit for bit.
        """
        cells = np.asarray(cells, dtype=np.int64)
        coords = _empty_coords(self, cells.size)
        self._uniform_into(cells, coords, rng)
        return coords

    def _uniform_into(self, cells: np.ndarray, coords: np.ndarray,
                      rng: np.random.Generator) -> None:
        """:meth:`uniform_in_cells` written into ``coords``."""
        if self.mode == "sites":
            raise InvalidMeasureError("uniform_in_cells needs a box window")
        size = cells.size
        u = np.empty(min(size, _BLOCK))
        stride = 1
        for axis in range(self.dimension - 1, -1, -1):
            lo, hi = self.bounds[axis]
            n = self.cells_per_axis[axis]
            for a in range(0, size, _BLOCK):
                b = min(a + _BLOCK, size)
                uk = u[:b - a]
                rng.random(out=uk)
                # the leading axis's index is what the others leave
                idx = cells[a:b] if stride == 1 else cells[a:b] // stride
                if axis:
                    idx = idx % n
                # the formula's operations in its order, written in place
                col = coords[a:b, axis]
                np.add(idx, uk, out=col)
                col *= (hi - lo) / n
                col += lo
            stride *= n

    def to_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION, "mode": self.mode}
        if self.mode == "box":
            out["bounds"] = [list(b) for b in self.bounds]
            out["cells"] = list(self.cells_per_axis)
        else:
            out["sites"] = list(self.sites)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Window":
        mode = data.get("mode")
        if mode == "box":
            return cls.box(data["bounds"], data["cells"])
        if mode == "sites":
            return cls.discrete(data["sites"])
        raise InvalidMeasureError(f"unknown window mode {mode!r}")


def _json_float(v, what: str = "value") -> float:
    """A number as a float; a string, bool or null raises
    :class:`InvalidMeasureError`, where ``float`` casts "2" and true."""
    if isinstance(v, float):  # numpy's float64 included
        return float(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InvalidMeasureError(f"{what} {v!r} must be a number")
    return float(v)


def _json_int(v, what: str = "value") -> int:
    """An integer as an int, an integral float such as 2.0 included; any
    other value, a bool among them, raises :class:`InvalidMeasureError`."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise InvalidMeasureError(f"{what} {v!r} must be an integer")
    return int(v)


def _cell_values(window: Window, values, what: str) -> np.ndarray:
    """One number per cell as a new float array, zeros for None: a
    numeric numpy array is cast whole, anything else checked entry by
    entry by :func:`_json_float`."""
    if values is None:
        return np.zeros(window.n_cells)
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        values = np.array(values, dtype=object)
        for v in values.flat:
            _json_float(v, what)
    values = values.astype(float)
    if values.shape != (window.n_cells,):
        raise InvalidMeasureError(f"one {what} per cell: expected shape "
                                  f"({window.n_cells},), got {values.shape}")
    return values


def _check_pairs(window: Window, pairs, value) -> tuple:
    """(location, value) pairs of a measure: each location inside the
    window (box coordinates as a tuple of numbers) and given once, each
    value passed through its type's rule ``value``, which raises on a
    value the type does not admit."""
    box = window.mode == "box"
    checked = {}
    for loc, v in pairs:
        if box and isinstance(loc, (tuple, list)):
            loc = tuple([_json_float(x, "location coordinate") for x in loc])
        if not window.contains(loc):
            raise InvalidMeasureError(f"location {loc!r} outside window")
        if loc in checked:
            raise InvalidMeasureError(f"duplicate location {loc!r}")
        checked[loc] = value(v)
    return tuple(checked.items())


def _multiplicity(v) -> int:
    v = _json_int(v, "multiplicity")
    if v < 1:
        raise InvalidMeasureError(f"multiplicity {v!r} must be >= 1")
    return v


def _weight(v, positive: bool = False) -> float:
    v = _json_float(v, "atom weight")
    if not (math.isfinite(v) and (v > 0.0 if positive else v >= 0.0)):
        raise InvalidMeasureError(f"atom weight {v!r} must be finite "
                                  f"{'>' if positive else '>='} 0")
    return v


def _doc(window: Window, key: str, items: list) -> dict:
    """The one measure document: schema version, window, and ``items``
    under ``key``; ``to_dict`` and the ``simulate`` writer build theirs
    here."""
    return {"schema_version": SCHEMA_VERSION, "window": window.to_dict(),
            key: items}


def _items(pairs, value_key: str) -> list:
    """A measure document's items: one ``{"loc", value_key}`` object per
    (location, value) pair, a box location as a list."""
    return [{"loc": list(loc) if isinstance(loc, tuple) else loc,
             value_key: v} for loc, v in pairs]


def _pairs(data: dict, key: str, value_key: str) -> tuple:
    """The (location, value) pairs of a measure document's list ``key``."""
    return tuple((d["loc"], d[value_key]) for d in data.get(key, ()))


def _add_in_order(values, total: float = 0.0) -> float:
    """``total`` plus each of ``values`` in turn, rounded at every step,
    on every Python: ``sum`` of floats compensates its rounding from
    Python 3.12 on, so 1.0 + 1e16 + 1.0 would give 1.0000000000000002e16
    there and 1e16 here."""
    for v in values:
        total += v
    return total


def _check_masses(masses: np.ndarray) -> None:
    if np.any(masses < 0) or not np.all(np.isfinite(masses)):
        raise InvalidMeasureError("cell masses must be finite and >= 0")


def _check_cells(window: Window, cells) -> np.ndarray:
    """Flat cell indices as int64; one outside [0, n_cells) raises."""
    cells = np.asarray(cells, dtype=np.int64)
    if ((cells < 0) | (cells >= window.n_cells)).any():
        raise InvalidMeasureError(
            f"cell indices {cells.tolist()} must lie in [0, {window.n_cells})")
    return cells


@dataclass(frozen=True)
class PointConfiguration:
    """A finite point configuration with integer multiplicities."""

    window: Window
    points: tuple = ()  # ((location, multiplicity), ...)

    def __post_init__(self):
        object.__setattr__(self, "points", _check_pairs(
            self.window, self.points, _multiplicity))

    @property
    def total_count(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def n_distinct(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict:
        return _doc(self.window, "points", _items(self.points, "mult"))

    @classmethod
    def from_dict(cls, data: dict, window: Window | None = None) -> "PointConfiguration":
        win = window or Window.from_dict(data["window"])
        return cls(win, _pairs(data, "points", "mult"))


@dataclass(frozen=True)
class AtomicMeasure:
    """A purely atomic measure: finitely many (location, weight) atoms."""

    window: Window
    atoms: tuple = ()  # ((location, weight), ...)

    def __post_init__(self):
        object.__setattr__(self, "atoms", _check_pairs(
            self.window, self.atoms, lambda w: _weight(w, positive=True)))

    @property
    def total_mass(self) -> float:
        return _add_in_order(w for _, w in self.atoms)

    def to_dict(self) -> dict:
        return _doc(self.window, "atoms", _items(self.atoms, "weight"))

    @classmethod
    def from_dict(cls, data: dict, window: Window | None = None) -> "AtomicMeasure":
        win = window or Window.from_dict(data["window"])
        return cls(win, _pairs(data, "atoms", "weight"))


@dataclass(frozen=True)
class ReferenceMeasure:
    """A reference measure: nonnegative mass per cell plus optional atoms.

    Houses both the diffuse parameter measure and composites such as
    the measure-plus-configuration sums produced by :func:`superpose`.
    """

    window: Window
    cell_masses: np.ndarray = None
    atoms: tuple = ()  # ((location, weight >= 0), ...)

    def __post_init__(self):
        masses = _cell_values(self.window, self.cell_masses, "cell mass")
        _check_masses(masses)
        atoms = _check_pairs(self.window, self.atoms, _weight)
        self._store(masses, atoms, *(
            _tile(self.window, atoms, 1)[1:] if atoms else
            (np.empty(0, dtype=np.int64), np.empty(0),
             _empty_coords(self.window))))

    def _store(self, masses, atoms, cell, weight, coords) -> None:
        """Set the checked atoms and the read-only columns: the cell
        masses, then the atoms decoded once; their total must be finite."""
        object.__setattr__(self, "atoms", atoms)
        for name, col in (("cell_masses", masses), ("_atom_cell", cell),
                          ("_atom_weight", weight), ("_atom_coords", coords)):
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        # the sum that sample_locations normalises by
        with np.errstate(over="ignore"):
            total = np.concatenate([masses, weight]).sum()
        if not math.isfinite(total):
            raise InvalidMeasureError(
                "total mass overflows: cell masses plus atom weights must "
                "sum to a finite number")

    @classmethod
    def uniform(cls, window: Window, total_mass: float) -> "ReferenceMeasure":
        """Spread ``total_mass`` evenly over the window's cells."""
        n = window.n_cells
        return cls(window, np.full(n, _json_float(total_mass, "total mass")
                                   / n))

    @property
    def total_mass(self) -> float:
        return float(self.cell_masses.sum()
                     + _add_in_order(self._atom_weight.tolist()))

    def scale(self, factor: float) -> "ReferenceMeasure":
        """This measure times ``factor``, equal and hash-equal to
        ``ReferenceMeasure(window, masses * factor, ((loc, w * factor),
        ...))`` but built from the checked columns: the atoms' locations
        and cells are reused and only the numbers are scaled."""
        factor = _json_float(factor, "scale factor")
        if factor < 0:
            raise InvalidMeasureError("scale factor must be >= 0")
        masses = self.cell_masses * factor
        _check_masses(masses)
        weight = self._atom_weight * factor
        atoms = tuple(zip([loc for loc, _ in self.atoms], weight.tolist()))
        scaled = object.__new__(ReferenceMeasure)
        object.__setattr__(scaled, "window", self.window)
        scaled._store(masses, atoms, self._atom_cell, weight,
                      self._atom_coords)
        return scaled

    def sample_locations(self, size: int, rng: np.random.Generator):
        """Draw i.i.d. locations from this measure normalized to mass 1.

        Returns ``(cells, coords, hit, atom)``: flat cell indices, raw
        coordinates ((size, d) floats on a box, site indices on sites),
        the draws on an atom (ascending) and the atom drawn, whose
        coordinates they carry bit for bit.

        The draws are those of ``rng.choice(K, size, p=weights / total)``
        over the K cells then atoms, bit for bit and leaving the
        generator in the same state, followed for box windows by
        :meth:`Window.uniform_in_cells` on the cells drawn.
        """
        cells = np.empty(size, dtype=np.int64)
        coords = _empty_coords(self.window, size)
        return (cells, coords, *self._locations_into(cells, coords, rng))

    def _locations_into(self, cells: np.ndarray, coords: np.ndarray,
                        rng: np.random.Generator):
        """:meth:`sample_locations` written into the rows ``cells`` and
        ``coords`` of a batch; returns ``(hit, atom)``.  Every sampler
        draws its locations here."""
        weights = np.concatenate([self.cell_masses, self._atom_weight])
        total = weights.sum()
        if total <= 0:
            raise InvalidMeasureError("cannot sample from a zero measure")
        n_cells = self.window.n_cells
        _categorical(weights / total, cells.size, rng, out=cells)
        hit = np.flatnonzero(cells >= n_cells)
        atom = cells[hit] - n_cells
        cells[hit] = self._atom_cell[atom]
        if self.window.mode == "sites":
            coords[:] = cells
        else:
            self.window._uniform_into(cells, coords, rng)
            coords[hit] = self._atom_coords[atom]
        return hit, atom

    def _atoms_at(self, coords: np.ndarray):
        """``(at, atom)``: the rows of box ``coords`` equal to an atom's
        (-0.0 and 0.0 coincide), ascending, and that atom's index; none
        on sites, which ``_merge`` keys by cell."""
        if not self.atoms or self.window.mode == "sites":
            return (), ()
        # -0.0 + 0.0 is 0.0, so rows equal as floats have equal bytes
        rows = np.concatenate([self._atom_coords, coords]) + 0.0
        keys = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
        k = len(self.atoms)
        order = keys[:k].argsort()
        pos = np.minimum(keys[:k][order].searchsorted(keys[k:]), k - 1)
        at = np.flatnonzero((self._atom_coords[order[pos]] == coords).all(1))
        return at, order[pos[at]]

    def to_dict(self) -> dict:
        return {**_doc(self.window, "masses", self.cell_masses.tolist()),
                "atoms": _items(self.atoms, "weight")}

    @classmethod
    def from_dict(cls, data: dict, window: Window | None = None) -> "ReferenceMeasure":
        win = window or Window.from_dict(data["window"])
        return cls(win, data.get("masses"), _pairs(data, "atoms", "weight"))

    def __eq__(self, other):
        if not isinstance(other, ReferenceMeasure):
            return NotImplemented
        return (self.window == other.window
                and np.array_equal(self.cell_masses, other.cell_masses)
                and self.atoms == other.atoms)

    def __hash__(self):
        # -0.0 + 0.0 is 0.0: masses equal as floats hash equal
        return hash((self.window, (self.cell_masses + 0.0).tobytes(),
                     self.atoms))


@dataclass(frozen=True)
class TestFunction:
    """A nonnegative piecewise-constant function on the window's cells.

    Values may be +inf; that distinguished value makes e^-f vanish and
    turns Laplace functionals into void probabilities.
    """

    __test__ = False  # pytest: not a test class despite the name

    window: Window
    values: np.ndarray = None

    def __post_init__(self):
        vals = _cell_values(self.window, self.values, "test function value")
        if not (vals >= 0).all():  # NaN fails it too
            raise InvalidMeasureError("test function values must be >= 0")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, window: Window, value: float) -> "TestFunction":
        return cls(window, np.full(window.n_cells, _json_float(
            value, "test function value")))

    @classmethod
    def indicator(cls, window: Window, cells, value: float = 1.0) -> "TestFunction":
        vals = np.zeros(window.n_cells)
        vals[_check_cells(window, cells)] = _json_float(
            value, "test function value")
        return cls(window, vals)

    def __add__(self, other: "TestFunction") -> "TestFunction":
        _require_same_window(self, other)
        return TestFunction(self.window, self.values + other.values)

    def __eq__(self, other):
        if not isinstance(other, TestFunction):
            return NotImplemented
        return (self.window == other.window
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.window, (self.values + 0.0).tobytes()))


Measure = Union[PointConfiguration, AtomicMeasure, ReferenceMeasure]


# ---------------------------------------------------------------------------
# Flat record batches
# ---------------------------------------------------------------------------

def _empty_coords(window: Window, size: int = 0):
    """Uninitialised coordinates of ``size`` records: site indices on a
    sites window, (size, d) floats on a box."""
    if window.mode == "sites":
        return np.empty(size, dtype=np.int64)
    return np.empty((size, window.dimension))


def _tile(window: Window, pairs, n: int):
    """Records of n replicas that each hold every (location, value) pair.

    Returns (rep, cell, value, coords) in replica-major order; site
    windows store the cell index as the coordinate.
    """
    if window.mode == "sites":
        index = {site: i for i, site in enumerate(window.sites)}
        cells = coords = np.array([index[loc] for loc, _ in pairs],
                                  dtype=np.int64)
    else:
        coords = np.array([loc for loc, _ in pairs], dtype=float).reshape(
            -1, window.dimension)
        cells = window.cells_of(coords)
    values = np.array([v for _, v in pairs])
    idx = np.tile(np.arange(len(pairs)), n)
    return (np.repeat(np.arange(n, dtype=np.int64), len(pairs)),
            cells[idx], values[idx], coords[idx])


def _by_replica(batch) -> tuple:
    """The records of ``batch`` grouped by replica: (order, bounds).

    ``order`` lists the record indices replica by replica, in record
    order within each; replica i owns positions bounds[i]:bounds[i+1].
    Nothing is merged and no coordinate is compared.
    """
    order = np.argsort(batch.rep, kind="stable")
    bounds = np.searchsorted(batch.rep[order], np.arange(batch.n + 1))
    return order, bounds


def _replica_runs(rep: np.ndarray) -> tuple:
    """The runs of consecutive records that share a replica: (start,
    owner), where each run starts and its replica index.

    Every sampler writes its records in such runs, a few per replica,
    so a reduction over runs reads each record once, in order, without
    the float copy and the serial bin updates of ``np.bincount``.
    """
    new = np.empty(rep.size, dtype=bool)
    new[:1] = True
    np.not_equal(rep[1:], rep[:-1], out=new[1:])
    start = np.flatnonzero(new)
    return start, rep[start]


def _add_runs(n: int, owner: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Per-replica int64 sums of the run totals, shape (n,)."""
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, owner, totals)
    return out


def _int_sums(values, start, owner, n: int, replica=None) -> np.ndarray:
    """The one exact rule for sums of multiplicities: per-owner sums,
    shape (n,), of the runs of the integers ``values`` that begin at
    ``start``, run j owned by ``owner[j]``; in int64 while max(values)
    · values.size < 2**63, where no partial sum can leave it, else in
    Python ints.  A sum past int64 raises :class:`InvalidMeasureError`
    naming its replica, ``replica[owner]`` or else the owner."""
    if int(values.max(initial=0)) * values.size < 2 ** 63:
        return _add_runs(n, owner, np.add.reduceat(
            values, start, dtype=np.int64) if start.size else start)
    sums = [0] * n
    for o, run in zip(owner.tolist(), np.split(values, start[1:])):
        sums[o] += sum(run.tolist())
    i = sums.index(max(sums))
    if sums[i] >= 2 ** 63:
        raise InvalidMeasureError(
            f"replica {i if replica is None else replica[i]} holds "
            f"{sums[i]} points, past int64")
    return np.array(sums, dtype=np.int64)


def _split(batch, values: np.ndarray, cls) -> list:
    """One ``cls`` object per replica of ``batch``, its records in
    order; ``cls`` rejects a replica that repeats a location."""
    order, bounds = _by_replica(batch)
    window = batch.window
    coords = batch.coords[order].tolist()
    locs = ([window.sites[c] for c in coords] if window.mode == "sites"
            else list(map(tuple, coords)))
    points = list(zip(locs, values[order].tolist()))
    return [cls(window, tuple(points[a:b]))
            for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class ConfigurationBatch:
    """n point configurations as flat record arrays.

    One record per located point: replica index, flat cell index,
    multiplicity, and raw coordinates.  Every sampler merges the
    records of a replica at one location (``_merge``), so a sampled
    batch holds each location once per replica and ``distinct_counts``
    counts locations.  Converting a hand-built batch that repeats a
    location raises :class:`InvalidMeasureError`.
    """

    window: Window
    n: int
    rep: np.ndarray
    cell: np.ndarray
    mult: np.ndarray
    coords: np.ndarray

    def zeta(self, f: TestFunction) -> np.ndarray:
        """Per-replica integral of f, shape (n,); f on the batch's
        window."""
        _require_same_window(self, f)
        contrib = self.mult * f.values[self.cell]
        return np.bincount(self.rep, weights=contrib, minlength=self.n)

    def counts(self) -> np.ndarray:
        """Per-replica point counts with multiplicity, exact; the count
        in a region is ``zeta`` of its indicator.  A count past int64
        raises :class:`InvalidMeasureError` (``_int_sums``)."""
        return _int_sums(self.mult, *_replica_runs(self.rep), self.n)

    def distinct_counts(self) -> np.ndarray:
        """Per-replica counts of distinct locations."""
        start, owner = _replica_runs(self.rep)
        return _add_runs(self.n, owner, np.diff(start, append=self.rep.size))

    def to_configurations(self) -> list:
        return _split(self, self.mult, PointConfiguration)


@dataclass
class AtomicBatch:
    """n atomic measures as flat record arrays (rep, cell, weight, coords),
    one location once per replica as in :class:`ConfigurationBatch`."""

    window: Window
    n: int
    rep: np.ndarray
    cell: np.ndarray
    weight: np.ndarray
    coords: np.ndarray

    def zeta(self, h: TestFunction) -> np.ndarray:
        _require_same_window(self, h)
        contrib = self.weight * h.values[self.cell]
        return np.bincount(self.rep, weights=contrib, minlength=self.n)

    def masses(self) -> np.ndarray:
        return np.bincount(self.rep, weights=self.weight, minlength=self.n)

    def to_measures(self) -> list:
        return _split(self, self.weight, AtomicMeasure)


class _BatchWriter:
    """The columns of one sampled batch, each record written once.

    A sampler asks for the writable rows of its next k records
    (:meth:`rows`) and draws straight into them; a merge writes its
    shorter result back into the same rows (:meth:`merge`).  The
    columns start at ``capacity`` rows, a caller's estimate of the
    record count, and double only when a draw goes past them, so what
    is drawn and in which order never depends on the estimate.
    :meth:`batch` returns views of the rows written.
    """

    def __init__(self, cls, window: Window, n: int, capacity: int = 0):
        self.cls, self.window, self.n = cls, window, n
        self.size = 0
        self._cols = self._empty(capacity)

    def _empty(self, capacity: int) -> tuple:
        """Uninitialised columns of ``capacity`` rows, all views of one
        buffer.  glibc returns a freed block past its mmap threshold to
        the kernel, and raises that threshold (and the heap's trim
        threshold, to twice it) to the largest such block freed: one
        buffer per batch keeps a freed batch in the heap for the next,
        where four columns left it to be faulted in again.  For the
        same reason a check holds one sampled batch at a time and the
        Ferguson-Klass temporaries stay a fraction of a batch: when an
        operation frees more than twice its largest batch, glibc trims
        the heap and the next operation faults the pages in again
        (``verify-fk``: 2,417 minor faults a pass before, 440 now)."""
        width = 1 if self.window.mode == "sites" else self.window.dimension
        buf = np.empty((3 + width) * capacity, dtype=np.int64)
        rep, cell, value = (buf[i * capacity:(i + 1) * capacity]
                            for i in range(3))
        coords = buf[3 * capacity:]
        if self.cls is AtomicBatch:
            value = value.view(float)
        if self.window.mode != "sites":
            coords = coords.view(float).reshape(capacity, width)
        return rep, cell, value, coords

    def _grow(self, need: int) -> None:
        cols = self._empty(max(need, 2 * len(self._cols[0])))
        for new, old in zip(cols, self._cols):
            new[:self.size] = old[:self.size]
        self._cols = cols

    def _view(self, start: int, stop: int):
        return self.cls(self.window, self.n,
                        *(col[start:stop] for col in self._cols))

    def rows(self, k: int):
        """A batch over the next k rows, each column to be filled."""
        start = self.size
        if start + k > len(self._cols[0]):
            self._grow(start + k)
        self.size = start + k
        return self._view(start, self.size)

    def put(self, rep, cell, value, coords) -> None:
        """Copy the four columns of the next records in."""
        self._fill(self.rows(len(rep)), (rep, cell, value, coords))

    def merge(self, rows, at=(), key=()) -> None:
        """Merge the records of ``rows``, the last rows handed out (all
        of them from :meth:`batch`), as :func:`_merge` does, and write
        the shorter result back into their first rows."""
        merged = _merge(rows, at, key)
        if merged is not rows:
            self._fill(rows, _columns(merged))

    def keep(self, rows, mask):
        """Keep the records of ``rows``, the last rows handed out, where
        ``mask`` holds, in order, in their first rows; returns a batch
        over the rows kept."""
        return self._fill(rows, [col[mask] for col in _columns(rows)])

    def _fill(self, rows, cols):
        """Write the columns ``cols`` into the first rows of ``rows``,
        the last rows handed out, and drop the rows past them."""
        k = len(cols[0])
        for col, src in zip(_columns(rows), cols):
            col[:k] = src
        self.size -= rows.rep.size - k
        return self._view(self.size - k, self.size)

    def batch(self):
        """The batch of every row written so far (views)."""
        return self._view(0, self.size)


def _columns(batch) -> tuple:
    """(rep, cell, multiplicity or weight, coords) of a batch."""
    value = (batch.mult if isinstance(batch, ConfigurationBatch)
             else batch.weight)
    return batch.rep, batch.cell, value, batch.coords


def _merge(batch, at=(), key=()):
    """The one merge rule: ``batch`` with the records of one replica at
    one location merged.

    The records ``at`` (ascending) are grouped by (replica, ``key``):
    on a box window the draws on an atom by the atom drawn, as a
    diffuse draw bit-equal to an atom is a null event (chance at most
    2**-53 per draw); on a sites window every record by its cell.
    Other records keep their order; each group follows once, in
    (replica, key) order, with its first record's cell and coordinates
    and its values summed: multiplicities exactly, by the rule of
    ``counts()`` (``_int_sums``), weights in record order.  Nothing to
    group: ``batch``.
    """
    rep, cell, value, coords = _columns(batch)
    if batch.window.mode == "sites":
        at, key = np.arange(rep.size), cell
    if not len(at):
        return batch
    # stable, so each group lists its records in record order
    perm = np.lexsort((key, rep[at]))
    order, key = np.asarray(at)[perm], np.asarray(key)[perm]
    start = np.ones(order.size, dtype=bool)
    start[1:] = (rep[order][1:] != rep[order][:-1]) | (key[1:] != key[:-1])
    first = order[start]
    if value.dtype.kind == "f":
        summed = np.bincount(np.cumsum(start) - 1, weights=value[order])
    else:
        heads = np.flatnonzero(start)
        summed = _int_sums(value[order], heads, np.arange(heads.size),
                           heads.size, rep[first])
    groups = (rep[first], cell[first], summed.astype(value.dtype),
              coords[first])
    return type(batch)(batch.window, batch.n, *(
        np.concatenate([np.delete(col, order, axis=0), group])
        for col, group in zip((rep, cell, value, coords), groups)))


def _one_replica(measure: PointConfiguration | AtomicMeasure):
    """The batch of one replica holding ``measure``."""
    if isinstance(measure, PointConfiguration):
        return ConfigurationBatch(measure.window, 1,
                                  *_tile(measure.window, measure.points, 1))
    return AtomicBatch(measure.window, 1,
                       *_tile(measure.window, measure.atoms, 1))


def _integrate_cellwise(rho: ReferenceMeasure, values: np.ndarray) -> float:
    """Exact integral of a per-cell array against rho (atoms included).

    Infinite values on zero-mass cells contribute nothing.
    """
    mass = rho.cell_masses
    pos = mass > 0
    total = float(np.dot(mass[pos], values[pos])) if pos.any() else 0.0
    live = rho._atom_weight > 0
    return _add_in_order((rho._atom_weight[live]
                          * values[rho._atom_cell[live]]).tolist(), total)


def zeta(measure: Measure, f: TestFunction) -> float:
    """Evaluate the integral of ``f`` against ``measure``.

    Exact finite sum: multiplicities weight point evaluations, atom
    weights weight atom evaluations, and cell masses weight cell
    values.  Infinite f-values on zero-mass cells contribute nothing.
    """
    _require_same_window(measure, f)
    if isinstance(measure, ReferenceMeasure):
        return _integrate_cellwise(measure, f.values)
    if isinstance(measure, (PointConfiguration, AtomicMeasure)):
        return float(_one_replica(measure).zeta(f)[0])
    raise TypeError(f"cannot integrate against {type(measure).__name__}")


def superpose(rho: ReferenceMeasure, mu: PointConfiguration) -> ReferenceMeasure:
    """The measure rho + mu: each point of ``mu`` becomes added atom mass.

    Weights merge at coinciding locations; the diffuse part is
    untouched.
    """
    _require_same_window(rho, mu)
    merged = {loc: w for loc, w in rho.atoms}
    for loc, mult in mu.points:
        merged[loc] = merged.get(loc, 0.0) + float(mult)
    atoms = tuple(sorted(merged.items(), key=lambda kv: repr(kv[0])))
    return ReferenceMeasure(rho.window, rho.cell_masses, atoms)
