"""Discrete Hardy-Littlewood maximal operators and pointwise-estimate checks.

Measures are either atom lists (1D maximal values computed exactly: the sup
over radii is attained at an atom distance) or grid densities (radii restricted
to multiples of the grid spacing, a documented lower-bound bias). The weak-type
bound is checked against A_1 = 5^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter
from scipy.signal import fftconvolve

from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
)

WEAK_TYPE_A1_BASE = 5.0  # A_1 = 5^d


def ball_volume(d: int, s: float) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * s**d


# ---------------------------------------------------------------------------
# Grid containers
# ---------------------------------------------------------------------------


@dataclass
class GridField:
    """Uniform-grid samples on [lo, hi]^d with node coordinates lo + i*spacing."""

    d: int
    lo: float
    hi: float
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        if self.d not in (1, 2):
            raise InvalidArgumentError("only d in {1, 2} grids are supported")
        if self.spacing <= 0:
            raise InvalidArgumentError("spacing must be positive")
        if not self.hi > self.lo:
            raise InvalidArgumentError("box must be nondegenerate")
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("grid values must be finite")
        expected = self.n_nodes_per_axis
        if self.values.shape != (expected,) * self.d:
            raise InvalidArgumentError(
                f"values shape {self.values.shape} does not match "
                f"{(expected,) * self.d} nodes"
            )

    @property
    def n_nodes_per_axis(self) -> int:
        return int(round((self.hi - self.lo) / self.spacing)) + 1

    def axis_nodes(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n_nodes_per_axis)

    def node_coords(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, d), row-major."""
        ax = self.axis_nodes()
        if self.d == 1:
            return ax[:, None]
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=1)

    @classmethod
    def from_function(cls, fn, d: int, lo: float, hi: float, n_cells: int) -> "GridField":
        spacing = (hi - lo) / n_cells
        tmp = cls(d=d, lo=lo, hi=hi, spacing=spacing,
                  values=np.zeros((n_cells + 1,) * d))
        vals = fn(tmp.node_coords()).reshape((n_cells + 1,) * d)
        tmp.values = np.asarray(vals, dtype=float)
        return tmp

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("dim,lo,hi,spacing\n")
            fh.write(f"{self.d},{float(self.lo)!r},{float(self.hi)!r},{float(self.spacing)!r}\n")
            fh.write("value\n")
            for v in self.values.ravel():
                fh.write(f"{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "GridField":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header != ["dim", "lo", "hi", "spacing"]:
                raise InvalidArgumentError(f"unexpected grid CSV header {header}")
            d_s, lo_s, hi_s, sp_s = fh.readline().strip().split(",")
            fh.readline()  # value header
            vals = np.array([float(line) for line in fh if line.strip()])
        d = int(d_s)
        n = int(round(len(vals) ** (1.0 / d)))
        return cls(d=d, lo=float(lo_s), hi=float(hi_s), spacing=float(sp_s),
                   values=vals.reshape((n,) * d))


@dataclass
class GridMeasure:
    """Locally finite measure: point atoms plus an optional density field."""

    atoms: np.ndarray = field(default_factory=lambda: np.zeros((0, 1)))
    masses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    density: GridField | None = None
    total_mass: float = 0.0

    def __post_init__(self):
        self.atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        self.masses = np.asarray(self.masses, dtype=float)
        if self.atoms.shape[0] != self.masses.shape[0]:
            raise InvalidArgumentError("atoms and masses must have equal length")
        if np.any(self.masses <= 0) and self.masses.size:
            raise InvalidArgumentError("atom masses must be positive")
        if self.density is not None and np.any(self.density.values < 0):
            raise InvalidArgumentError("density values must be nonnegative")
        computed = float(self.masses.sum())
        if self.density is not None:
            computed += float(self.density.values.sum()) * self.density.spacing**self.density.d
        if self.total_mass == 0.0:
            self.total_mass = computed
        elif not math.isclose(self.total_mass, computed, rel_tol=1e-9, abs_tol=1e-12):
            raise InvalidArgumentError(
                f"declared total_mass {self.total_mass} != computed {computed}"
            )

    @property
    def d(self) -> int:
        if self.density is not None:
            return self.density.d
        return self.atoms.shape[1]

    @property
    def is_atomic(self) -> bool:
        return self.density is None


def measure_from_atoms(locations, masses) -> GridMeasure:
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    if locations.shape[0] == 1 and np.asarray(masses).size > 1:
        locations = locations.T
    return GridMeasure(atoms=locations, masses=np.asarray(masses, dtype=float))


def measure_from_density(density: GridField) -> GridMeasure:
    return GridMeasure(atoms=np.zeros((0, density.d)), masses=np.zeros(0),
                       density=density)


def random_atomic_measure(rng) -> GridMeasure:
    """1 to 25 atoms on [-5, 5] with masses in [0.1, 2]."""
    k = int(rng.integers(1, 26))
    locs = rng.uniform(-5.0, 5.0, size=(k, 1))
    masses = rng.uniform(0.1, 2.0, size=k)
    return measure_from_atoms(locs, masses)


def random_density_1d(rng) -> GridMeasure:
    """Step density on [-3, 3]: 16 random levels over 256 cells."""
    cells = 256
    vals = np.repeat(rng.uniform(0.0, 1.0, size=16), (cells + 1) // 16 + 1)[: cells + 1]
    return measure_from_density(
        GridField(d=1, lo=-3.0, hi=3.0, spacing=6.0 / cells, values=vals))


def random_density_2d(rng) -> GridMeasure:
    """Sum of 1 to 4 Gaussian bumps on a 48 x 48-cell grid over [-2, 2]^2."""
    cells = 48
    ax = np.linspace(-2.0, 2.0, cells + 1)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    vals = np.zeros_like(xx)
    for _ in range(int(rng.integers(1, 5))):
        cx, cy = rng.uniform(-1.5, 1.5, size=2)
        w = rng.uniform(0.2, 1.0)
        a = rng.uniform(0.2, 2.0)
        vals += a * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * w**2))
    return measure_from_density(
        GridField(d=2, lo=-2.0, hi=2.0, spacing=4.0 / cells, values=vals))


# ---------------------------------------------------------------------------
# Maximal values
# ---------------------------------------------------------------------------


def _atomic_maximal_at(measure: GridMeasure, x: np.ndarray, R: float) -> float:
    d = measure.d
    dist = np.linalg.norm(measure.atoms - x, axis=1)
    if np.any((dist == 0.0) & (measure.masses > 0)):
        return math.inf
    admissible = dist <= R
    if not np.any(admissible):
        return 0.0
    # closed-ball mass is right-continuous in s and mass/vol decreases between
    # atom distances, so the sup is attained at an admissible atom distance
    order = np.argsort(dist)
    dist_sorted = dist[order]
    cum = np.cumsum(measure.masses[order])
    keep = dist_sorted <= R
    ratios = cum[keep] / ball_volume(d, dist_sorted[keep])
    return float(ratios.max())


def _cell_boundaries(density: GridField) -> np.ndarray:
    """Cell boundaries of the piecewise-constant density (cells around nodes)."""
    h = density.spacing
    n = density.n_nodes_per_axis
    return density.lo - 0.5 * h + h * np.arange(n + 1)


def _cumulative_1d(density: GridField) -> tuple[np.ndarray, np.ndarray]:
    bounds = _cell_boundaries(density)
    prefix = np.concatenate([[0.0], np.cumsum(density.values * density.spacing)])
    return bounds, prefix


def _interval_mass_1d(bounds, prefix, a, b) -> np.ndarray:
    """Exact mass of [a, b] for the piecewise-constant density."""
    fa = np.interp(a, bounds, prefix)
    fb = np.interp(b, bounds, prefix)
    return fb - fa


def _density_maximal_1d(density: GridField, x: float, R: float) -> float:
    """Exact sup over 0 < s <= R: the ratio is monotone between the radii at
    which x +/- s crosses a cell boundary, so those radii are the candidates."""
    bounds, prefix = _cumulative_1d(density)
    cand = np.unique(np.abs(bounds - x))
    cand = cand[cand > 0]
    if math.isfinite(R):
        cand = np.concatenate([cand[cand < R], [R]])
    if cand.size == 0:
        return 0.0
    mass = _interval_mass_1d(bounds, prefix, x - cand, x + cand)
    return float(np.max(mass / (2.0 * cand)))


def _disk_cummass_2d(density: GridField, x: np.ndarray, k_max: int) -> np.ndarray:
    """cummass[k] = mass of cells with centers within k*spacing of x (k=0..k_max)."""
    h = density.spacing
    coords = density.node_coords()
    dist = np.linalg.norm(coords - x, axis=1)
    bins = np.ceil(dist / h - 1e-12).astype(int)
    np.clip(bins, 0, k_max + 1, out=bins)
    w = density.values.ravel() * h**density.d
    counts = np.bincount(bins, weights=w, minlength=k_max + 2)
    return np.cumsum(counts)[: k_max + 1]


def maximal_at(measure: GridMeasure, x, R: float = math.inf) -> float:
    """M_R nu(x): sup over 0 < s <= R of |nu|(B(x;s)) / Leb(B(x;s)).

    Exact for purely atomic measures and for 1D densities (piecewise-constant
    cell integration; the sup is attained at a cell-boundary radius). 2D
    densities restrict radii to spacing multiples and cover the included cell
    material with the ball of radius (k + 1/2) h, a conservative lower bound.
    """
    if R <= 0:
        raise InvalidArgumentError("radius bound must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if measure.total_mass == 0.0:
        return 0.0
    if measure.is_atomic:
        return _atomic_maximal_at(measure, x, R)
    density = measure.density
    atom_part = 0.0
    if measure.masses.size:
        dist = np.linalg.norm(measure.atoms - x, axis=1)
        if np.any(dist == 0.0):
            return math.inf
        atom_part = _atomic_maximal_at(
            GridMeasure(atoms=measure.atoms, masses=measure.masses), x, R
        )
    if density.d == 1:
        dens_part = _density_maximal_1d(density, float(x[0]), R)
        # lower bound for the combined measure: best of the two parts
        return max(dens_part, atom_part)
    h = density.spacing
    diam = (density.hi - density.lo) * math.sqrt(2.0) + float(np.max(np.abs(x)))
    k_cap = math.ceil(diam / h) + 1
    k_max = k_cap if math.isinf(R) else int(min(math.floor(R / h + 1e-12), k_cap))
    if k_max < 1:
        return atom_part
    cum = _disk_cummass_2d(density, x, k_max)
    ks = np.arange(1, k_max + 1)
    vols = ball_volume(2, (ks + 0.5) * h)
    best = float(np.max(cum[1:] / vols))
    return max(best, atom_part)


def maximal_field(measure: GridMeasure, R: float = math.inf) -> GridField:
    """Restricted maximal values at every grid node of the density's grid.

    1D fields use the exact cell-boundary candidate radii; 2D fields run one
    disk convolution per ladder radius with the (k + 1/2) h covering volume.
    Atoms are binned to their nearest node before convolution, which only
    matters for hybrid measures.
    """
    if measure.density is None:
        raise InvalidArgumentError("maximal_field requires a density grid")
    density = measure.density
    h, d = density.spacing, density.d
    cell_mass = density.values * h**d
    if measure.masses.size:
        idx = np.round((measure.atoms - density.lo) / h).astype(int)
        idx = np.clip(idx, 0, density.n_nodes_per_axis - 1)
        cell_mass = cell_mass.copy()
        for pos, m in zip(idx, measure.masses):
            cell_mass[tuple(pos)] += m
    out = np.zeros_like(cell_mass)
    if d == 1:
        work = GridField(d=1, lo=density.lo, hi=density.hi, spacing=h,
                         values=cell_mass / h)
        bounds, prefix = _cumulative_1d(work)
        nodes = work.axis_nodes()
        for b in bounds:
            s = np.abs(nodes - b)
            if math.isfinite(R):
                s = np.minimum(s, R)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(
                    s > 0,
                    _interval_mass_1d(bounds, prefix, nodes - s, nodes + s) / (2.0 * s),
                    0.0,
                )
            np.maximum(out, ratio, out=out)
        return GridField(d=1, lo=density.lo, hi=density.hi, spacing=h, values=out)
    diam_cells = int(math.ceil((density.hi - density.lo) / h * math.sqrt(2.0))) + 1
    k_max = int(min(math.floor(R / h + 1e-12), diam_cells)) if math.isfinite(R) else diam_cells
    if k_max < 1:
        return GridField(d=d, lo=density.lo, hi=density.hi, spacing=h, values=out)
    offs = np.arange(-k_max, k_max + 1)
    oi, oj = np.meshgrid(offs, offs, indexing="ij")
    rad2 = oi**2 + oj**2
    for k in range(1, k_max + 1):
        sel = rad2 <= k * k
        # restrict kernel support to the k-box to keep FFTs small
        kern = sel[k_max - k : k_max + k + 1, k_max - k : k_max + k + 1]
        mass = fftconvolve(cell_mass, kern.astype(float), mode="same")
        np.maximum(out, np.maximum(mass, 0.0) / ball_volume(2, (k + 0.5) * h), out=out)
    return GridField(d=d, lo=density.lo, hi=density.hi, spacing=h, values=out)


# ---------------------------------------------------------------------------
# Weak-type estimate
# ---------------------------------------------------------------------------


@dataclass
class MaximalReport:
    lambda_grid: np.ndarray
    superlevel_measures: np.ndarray
    bound_values: np.ndarray
    violations: int
    method: str


def superlevel_measure_atomic(measure: GridMeasure, lam: float) -> float:
    """Exact Leb{M nu > lam} for a 1D atomic measure via interval unions.

    M nu(x) > lam iff some ball covering a consecutive atom block i..j has
    mass/(2s) > lam, i.e. x lies in (a_j - rho, a_i + rho) with
    rho = m_ij / (2 lam).
    """
    if measure.d != 1 or not measure.is_atomic:
        raise InvalidArgumentError("exact superlevel needs a 1D atomic measure")
    if lam <= 0:
        raise InvalidArgumentError("lambda must be positive")
    if measure.masses.size == 0:
        return 0.0
    pos = measure.atoms[:, 0]
    order = np.argsort(pos)
    a = pos[order]
    m = measure.masses[order]
    prefix = np.concatenate([[0.0], np.cumsum(m)])
    intervals = []
    n = a.size
    for i in range(n):
        for j in range(i, n):
            rho = (prefix[j + 1] - prefix[i]) / (2.0 * lam)
            left, right = a[j] - rho, a[i] + rho
            if left < right:
                intervals.append((left, right))
    intervals.sort()
    total = 0.0
    cur_l, cur_r = intervals[0]
    for left, right in intervals[1:]:
        if left > cur_r:
            total += cur_r - cur_l
            cur_l, cur_r = left, right
        else:
            cur_r = max(cur_r, right)
    total += cur_r - cur_l
    return total


def weak_type_check(measure: GridMeasure, lambda_grid) -> MaximalReport:
    """Compare Leb{M nu > lam} against 5^d |nu|(R^d) / lam for each lambda."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if np.any(lambda_grid <= 0):
        raise InvalidArgumentError("lambda grid must be positive")
    d = measure.d
    bound = WEAK_TYPE_A1_BASE**d * measure.total_mass / lambda_grid
    if measure.is_atomic and d == 1:
        if measure.masses.size == 0:
            superlevel = np.zeros_like(lambda_grid)
        else:
            superlevel = np.array(
                [superlevel_measure_atomic(measure, lam) for lam in lambda_grid]
            )
        method = "exact-atomic"
    else:
        fld = maximal_field(measure)
        h = fld.spacing
        superlevel = np.array(
            [float(np.count_nonzero(fld.values > lam)) * h**d for lam in lambda_grid]
        )
        method = "grid-count"
    violations = int(np.count_nonzero(superlevel > bound))
    return MaximalReport(
        lambda_grid=lambda_grid, superlevel_measures=superlevel,
        bound_values=bound, violations=violations, method=method,
    )


def percentile_lambda_grid(values, count: int = 10,
                           lo_pct: float = 10.0, hi_pct: float = 99.0) -> np.ndarray:
    """Lambda grid spanning the [lo_pct, hi_pct] percentiles of maximal values."""
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values) & (values > 0)]
    if values.size == 0:
        raise InsufficientDataError("no positive finite maximal values to span")
    lo = np.percentile(values, lo_pct)
    hi = np.percentile(values, hi_pct)
    if hi <= lo:
        hi = lo * 2.0
    return np.geomspace(lo, hi, count)


# ---------------------------------------------------------------------------
# Fractional operator G_{s,p}
# ---------------------------------------------------------------------------


def gsp_field(f: GridField, s: float, p: float) -> GridField:
    """Node-wise (integral over the box of |f(x)-f(y)|^p / |x-y|^{d+sp} dy)^{1/p}.

    The singular cell |x-y| < spacing/2 is excluded; for grid nodes that is
    exactly the diagonal term.
    """
    if not 0.0 < s < 1.0:
        raise InvalidArgumentError("s must lie in (0,1)")
    if p < 1.0:
        raise InvalidArgumentError("p must be >= 1")
    h, d = f.spacing, f.d
    vals = f.values
    acc = np.zeros_like(vals)
    if d == 1:
        n = vals.size
        for o in range(1, n):
            w = h / (o * h) ** (1.0 + s * p)
            diff = np.abs(vals[o:] - vals[:-o]) ** p * w
            acc[o:] += diff
            acc[:-o] += diff
    else:
        n = vals.shape[0]
        for oi in range(0, n):
            oj_start = 1 if oi == 0 else -(n - 1)
            for oj in range(oj_start, n):
                if oi == 0 and oj <= 0:
                    continue
                dist = h * math.hypot(oi, oj)
                w = h * h / dist ** (2.0 + s * p)
                if oj >= 0:
                    a = vals[oi:, oj:] if oj else vals[oi:, :]
                    b = vals[: n - oi, : n - oj] if oj else vals[: n - oi, :]
                    diff = np.abs(a - b) ** p * w
                    if oj:
                        acc[oi:, oj:] += diff
                        acc[: n - oi, : n - oj] += diff
                    else:
                        acc[oi:, :] += diff
                        acc[: n - oi, :] += diff
                else:
                    a = vals[oi:, : n + oj]
                    b = vals[: n - oi, -oj:]
                    diff = np.abs(a - b) ** p * w
                    acc[oi:, : n + oj] += diff
                    acc[: n - oi, -oj:] += diff
    return GridField(d=d, lo=f.lo, hi=f.hi, spacing=h, values=acc ** (1.0 / p))


def gsp_stability(fn, lo: float, hi: float, s: float, p: float,
                  n_cells_list, growth_limit: float = 10.0) -> dict:
    """G_{s,p} under grid refinement: max-node growth > growth_limit flags divergence."""
    maxima = []
    fields = []
    for n_cells in n_cells_list:
        f = GridField.from_function(fn, 1, lo, hi, n_cells)
        g = gsp_field(f, s, p)
        fields.append(g)
        maxima.append(float(g.values.max()))
    growth = maxima[-1] / maxima[0] if maxima[0] > 0 else math.inf
    return {
        "n_cells": list(n_cells_list),
        "max_values": maxima,
        "growth": growth,
        "unstable": bool(growth > growth_limit),
        "fields": fields,
    }


# ---------------------------------------------------------------------------
# Pointwise estimates
# ---------------------------------------------------------------------------


@dataclass
class PointwiseReport:
    k0: float
    max_ratio: float
    max_nonsymmetric_ratio: float
    n_pairs: int
    n_used: int
    n_skipped: int
    violations: int
    gamma: float


def pointwise_check(
    f: GridField,
    source,
    pair_count: int,
    mode: str = "bv",
    s: float | None = None,
    seed: int = 0,
    pair_sampler=None,
) -> PointwiseReport:
    """Fit K0 as the max of |f(x)-f(y)| / (|x-y|^g (M_{2|x-y|}(x)+M_{2|x-y|}(y))).

    g = 1 in "bv" mode (source: gradient GridMeasure), g = s in "fractional"
    mode (source: G_{s,p}f GridField, used as a density). 0/0 pairs are
    skipped; a zero denominator against a nonzero numerator is a violation.
    The nonsymmetric ratio (denominator using only the x term) is reported as
    an empirical probe, never asserted.
    """
    if mode == "bv":
        gamma = 1.0
        measure = source
        if not isinstance(measure, GridMeasure):
            raise InvalidArgumentError("bv mode expects a GridMeasure source")
    elif mode == "fractional":
        if s is None or not 0 < s < 1:
            raise InvalidArgumentError("fractional mode needs s in (0,1)")
        gamma = s
        if isinstance(source, GridField):
            measure = measure_from_density(source)
        else:
            measure = source
    else:
        raise InvalidArgumentError("mode must be 'bv' or 'fractional'")

    rng = np.random.default_rng(seed)
    if pair_sampler is not None:
        xs, ys = pair_sampler(rng, pair_count)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
    else:
        coords = f.node_coords()
        ia = rng.integers(0, coords.shape[0], size=pair_count)
        ib = rng.integers(0, coords.shape[0], size=pair_count)
        keep = ia != ib
        xs, ys = coords[ia[keep]], coords[ib[keep]]

    max_ratio = 0.0
    max_nonsym = 0.0
    used = skipped = violations = 0
    for xv, yv in zip(xs, ys):
        num = abs(_grid_value(f, xv) - _grid_value(f, yv))
        dist = float(np.linalg.norm(xv - yv))
        if dist == 0.0:
            continue
        R = 2.0 * dist
        mx = maximal_at(measure, xv, R)
        my = maximal_at(measure, yv, R)
        den = dist**gamma * (mx + my)
        if den == 0.0:
            if num == 0.0:
                skipped += 1
            else:
                violations += 1
            continue
        used += 1
        max_ratio = max(max_ratio, num / den)
        if mx > 0.0:
            max_nonsym = max(max_nonsym, num / (dist**gamma * mx))
    if used == 0:
        raise InsufficientDataError("all sampled pairs were degenerate")
    return PointwiseReport(
        k0=max_ratio, max_ratio=max_ratio, max_nonsymmetric_ratio=max_nonsym,
        n_pairs=len(xs), n_used=used, n_skipped=skipped,
        violations=violations, gamma=gamma,
    )


def _grid_value(f: GridField, x: np.ndarray) -> float:
    idx = np.round((np.atleast_1d(x) - f.lo) / f.spacing).astype(int)
    idx = np.clip(idx, 0, f.n_nodes_per_axis - 1)
    return float(f.values[tuple(idx)])


def mollified_ball_gradient(
    radius: float, lo: float, hi: float, n_cells: int, width_cells: float = 2.0
) -> tuple[GridField, GridMeasure]:
    """Mollified 2D ball indicator and its |gradient| density.

    The surface measure of the sharp indicator has no grid-native
    representation; the Gaussian-mollified gradient converges to it in total
    mass (the perimeter).
    """
    h = (hi - lo) / n_cells
    ax = lo + h * np.arange(n_cells + 1)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    ind = (np.hypot(xx, yy) < radius).astype(float)
    smooth = gaussian_filter(ind, sigma=width_cells, mode="constant")
    gx, gy = np.gradient(smooth, h)
    grad_mag = np.hypot(gx, gy)
    f = GridField(d=2, lo=lo, hi=hi, spacing=h, values=smooth)
    grad = GridField(d=2, lo=lo, hi=hi, spacing=h, values=grad_mag)
    return f, measure_from_density(grad)
