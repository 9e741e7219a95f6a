"""Discrete Hardy-Littlewood maximal operators and pointwise-estimate checks.

A measure is either an atom list (maximal values computed exactly: the sup over
radii is attained at an atom distance) or a grid density, never both. 1D
densities are exact too (the sup is attained at a cell-boundary radius); 2D
densities restrict radii to multiples of the grid spacing, a documented
lower-bound bias. The weak-type bound is checked against A_1 = 5^d.

The 1D and atomic kernels work in blocks of at most KERNEL_ELEMENTS pairs, and
G_{s,p} in row blocks of at most GSP_BLOCK_PAIRS, so their memory does not
grow with the number of points or nodes. A 1D grid is exact when, with u = h /
2 = m 2^e for an odd m, lo = a u for an integer a and m (|a| + 4 N + 4) < 2^53
(checked once per call, in integers): then every node, bound, offset |x - b|
and reflection x +/- |x - b| of a node point is an integer multiple of u,
computed with no rounding, so np.interp at x +/- |x - b| returns a prefix
entry or an end value. Node points of exact grids read those entries by index
from a padded prefix, one candidate per distance, and other points
interpolate; the sums are the same. G_{s,p} goes through its row blocks in
ascending rows, so for each offset a node gets its row sum before its column
sum whatever the row blocks. A block is filled in two passes (copy x,
subtract y in place), and squared without |.| at p = 2; a pair of equal
constant rows (only +0.0 terms) is skipped, and a pair with one constant row
takes its powers once per row and one broadcast product with the weights. A 2D
maximal_field reuses one transform of the cell masses for every radius, and
gathers each disk's row transforms from one table of the transforms of the
interval rows |off| <= w. Its radius ladder stops once the total mass (times 1
+ 1e-6, for rounding) over the next disk's volume is no larger than the
smallest node value: a disk holds at most the total, so no later radius can
raise a node. A 2D maximal_at call finds the windows and ladders of all its
points at once, by np.searchsorted on the axis nodes: a point's ladder runs
from the bin of its nearest window node (smaller disks are empty) to that of
its farthest, capped by R (larger disks hold the same mass over a larger
volume). Its node points of an exact grid, found per axis by the 1D rule, read
their radius bins from one table over integer node offsets; pointwise_check
sends both ends of its pairs through one such call. Each of these forms does
the same floating-point operations in the same order as the plain form it
replaces, or skips only operations that cannot change a value, so its values
are the same bit for bit.

The layer needs numpy only. 2D maximal_field runs on numpy's pocketfft: the
inverse transforms are unscaled (norm="forward") and the kept block is then
multiplied by 1 / L^2, which is the normalisation, and the rounding, of
scipy.fft.irfft2. The mollifier of mollified_ball_gradient is scipy.ndimage's
Gaussian filter with zero padding, written out with the same weights and the
same summation order, so both give scipy's values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
)

WEAK_TYPE_A1_BASE = 5.0  # A_1 = 5^d
KERNEL_ELEMENTS = 1 << 15  # pairs per block of the 1D, atomic and G_{s,p} kernels
GSP_BLOCK_PAIRS = 1 << 17  # pairs per row block of G_{s,p}
GSP_RUN_PAIRS = 1 << 13  # fewest pairs per run of row pairs of one G_{s,p} form, on average
_FULL, _X_CONST, _Y_CONST, _SKIP = range(4)  # G_{s,p} row-pair forms


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


@dataclass
class GridMeasure:
    """Locally finite measure: point atoms or a density field, never both."""

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
        if self.density is not None and self.masses.size:
            raise InvalidArgumentError("a measure has atoms or a density, not both")
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
    return GridMeasure(density=density)


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


def _positive(values, what: str) -> np.ndarray:
    """values as a float array; every entry must be > 0 (written so NaN fails too)."""
    values = np.asarray(values, dtype=float)
    if not (values > 0).all():
        raise InvalidArgumentError(f"{what} must be positive, got {values}")
    return values


def _atomic_maximal(measure: GridMeasure, xs: np.ndarray, R) -> np.ndarray:
    """M_R of an atomic measure at each row of xs (P, d), shape (P,).

    Closed-ball mass is right-continuous in s and mass/vol decreases between
    atom distances, so the sup is attained at an admissible atom distance; a
    point on an atom gets inf. R is a scalar or one bound per point. Rows go
    through in blocks of at most KERNEL_ELEMENTS (point, atom) distances.
    """
    atoms, masses, d = measure.atoms, measure.masses, measure.d
    out = np.empty(len(xs))
    rows = max(1, KERNEL_ELEMENTS // atoms.shape[0])
    for i in range(0, len(xs), rows):
        # np.linalg.norm along the last axis: the root of the reduced squares,
        # where the sum of one square is that square
        sq = atoms - xs[i : i + rows, None, :]
        sq *= sq
        dist = np.sqrt(sq[..., 0] if d == 1 else np.add.reduce(sq, axis=2))
        cum = np.add.accumulate(masses[dist.argsort(axis=1)], axis=1)  # cumsum
        dist.sort(axis=1)
        # cum > 0, so cum / 0 is inf, as on an atom
        with np.errstate(divide="ignore"):
            cum /= ball_volume(d, dist)
        # ratios are positive, so 0 stands for "no admissible atom"
        cum[dist > (R if isinstance(R, float) else R[i : i + rows, None])] = 0.0
        out[i : i + rows] = cum.max(axis=1)
    return out


def _density_maximal_1d(density: GridField, xs: np.ndarray, R) -> np.ndarray:
    """M_R of a 1D piecewise-constant density at each point of xs, shape (P,).

    Exact: between the radii at which x +/- s crosses a cell boundary b the
    ratio mass / (2s) is monotone, so the sup over 0 < s <= R is attained at
    one of s = min(|x - b|, R), with mass from np.interp of the prefix sums
    at x +/- s. R is a scalar or one bound per point.

    On an exact grid (_node_index) every node, bound, offset and
    reflection of a node point is computed with no rounding, so at node i the
    interpolation of each bound's candidate returns prefix[min(i + o + 1, N)]
    and prefix[max(i - o, 0)] for an offset o, or an end value: such points
    read those entries by index (_node_maximal_1d) and give the same sums,
    and so the same values, bit for bit. Other points, every point of a grid
    that is not exact, and the point of a one-point call (the index path's
    set-up costs more than one interpolated row) interpolate. Points go
    through in row blocks of at most KERNEL_ELEMENTS candidates (or one row),
    so memory does not grow with P.
    """
    h = density.spacing
    n = density.n_nodes_per_axis
    bounds = density.lo - 0.5 * h + h * np.arange(n + 1)
    prefix = np.concatenate([[0.0], np.cumsum(density.values * h)])
    R = np.broadcast_to(R, xs.shape)
    out = np.empty(xs.size)
    node = _node_index(density, xs) if xs.size > 1 else np.full(xs.size, -1)
    on = np.flatnonzero(node >= 0)
    if on.size:
        with np.errstate(invalid="ignore"):  # inf - inf of an overflowed prefix, as below
            out[on] = _node_maximal_1d(prefix, bounds, h, xs[on], node[on], R[on])
    rest = np.flatnonzero(node < 0)
    rows = max(1, KERNEL_ELEMENTS // bounds.size)
    for i in range(0, rest.size, rows):
        p = rest[i : i + rows]
        x = xs[p, None]
        s = np.minimum(np.abs(x - bounds), R[p, None])
        mass = np.interp(x + s, bounds, prefix) - np.interp(x - s, bounds, prefix)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[p] = np.where(s > 0, mass / (2.0 * s), 0.0).max(axis=1)
    return out


def _node_index(density: GridField, xs: np.ndarray) -> np.ndarray:
    """The node index of each point of xs that equals a node of an exact grid
    bit for bit, -1 for other points and for every point of other grids; in
    2D, of each coordinate on its axis.

    A grid is exact when, with u = h / 2 = m 2^e for an odd integer m, lo is
    a u for an integer a and m (|a| + 4 N + 4) < 2^53, for N nodes: then every
    node, bound, offset |x - b|, reflection x +/- |x - b| and 2 |x - b| of a
    node point is an integer multiple of u below 2^53 m 2^e in magnitude, so
    computing it rounds nothing. The test is made once, in integers, with
    float.as_integer_ratio.
    """
    h, lo = float(density.spacing), float(density.lo)
    n = density.n_nodes_per_axis
    h_num, h_den = h.as_integer_ratio()  # u = h_num / (2 h_den)
    lo_num, lo_den = lo.as_integer_ratio()
    a, rest = divmod(lo_num * 2 * h_den, lo_den * h_num)
    m = h_num // (h_num & -h_num)
    size = abs(a) + 4 * n + 4
    # 0.5 * h rounds nothing unless h is subnormal, and the largest multiple
    # of u must not overflow
    if rest or m * size >= 2**53 or 0.5 * h * 2.0 != h or not math.isfinite(0.5 * h * size):
        return np.full(xs.size, -1)
    i = np.clip(np.rint((xs - lo) / h), 0, n - 1).astype(np.intp)
    # lo + h * i is node i as axis_nodes computes it
    return np.where(lo + h * i == xs, i, -1)


def _node_maximal_1d(prefix: np.ndarray, bounds: np.ndarray, h: float, xs: np.ndarray,
                     node: np.ndarray, R: np.ndarray) -> np.ndarray:
    """_density_maximal_1d at points xs that are nodes of an exact grid.

    At node i the bounds i - o and i + o + 1 both lie at |x - b| = (o + 1/2) h,
    so they give one candidate, and np.interp at x +/- (o + 1/2) h, which are
    bounds or lie beyond the ends, returns prefix[min(i + o + 1, N)] and
    prefix[max(i - o, 0)], read here from a padded prefix. A row's maximum
    runs over its offsets within R; offsets past max(i, N - 1 - i) add the
    total mass at a larger radius, which raises nothing. The bounds past R
    share the one candidate s = R, interpolated as before. Points go through
    sorted by their number of offsets, in blocks of at most KERNEL_ELEMENTS.
    """
    n = prefix.size - 1
    # padded[k + n + 1] = prefix[clip(k, 0, n)] for -n - 1 <= k <= 2n + 1, and
    # row j of the window view holds padded[j : j + n]
    padded = np.concatenate([np.zeros(n + 1), prefix, np.full(n + 1, prefix[-1])])
    window = sliding_window_view(padded, n)
    half = (np.arange(n) + 0.5) * h  # |x - b| at offset o, exactly
    reach = np.maximum(node, n - 1 - node) + 1  # the offsets that hold a bound
    free = np.searchsorted(half, R, side="right")  # the offsets within R
    need = np.minimum(reach, free)
    order = np.argsort(need)
    first = np.searchsorted(need[order], 1)
    out = np.empty(xs.size)
    out[order[:first]] = -math.inf  # every bound lies beyond R
    rows = max(1, KERNEL_ELEMENTS // n)
    for b in range(first, xs.size, rows):
        p = order[b : b + rows]
        width = int(need[p[-1]])
        at = node[p]
        mass = window[at + n + 2, :width]  # prefix[i + o + 1]
        mass -= window[at + 2, n - width :][:, ::-1]  # prefix[i - o]
        mass /= 2.0 * half[:width]
        # each row's maximum over its first min(free, width) >= 1 offsets; the
        # last row's run ends the array, as its free >= need = width
        runs = np.empty(2 * p.size, dtype=np.intp)
        runs[::2] = width * np.arange(p.size)
        runs[1::2] = runs[::2] + np.minimum(free[p], width)
        out[p] = np.maximum.reduceat(mass.ravel(), runs[:-1])[::2]
    clipped = np.flatnonzero(free < reach)
    if clipped.size:
        x, r = xs[clipped], R[clipped]
        mass = np.interp(x + r, bounds, prefix) - np.interp(x - r, bounds, prefix)
        out[clipped] = np.maximum(out[clipped], mass / (2.0 * r))
    return out


def _density_maximal_2d(density: GridField, xs: np.ndarray, R) -> np.ndarray:
    """M_R of a 2D density on the radius ladder k h at each row of xs, shape (P,).

    Cell masses are binned by ceil(|node - x| / h - 1e-12) into disk masses,
    and each point's ladder k = near..last (_ladders) takes the cumulative
    masses over the covering volumes of radius (k + 1/2) h. Only the point's
    window is binned. Every node left out of it lies beyond the ladder or
    holds no mass (masses are >= 0, so a disk's sum never changes by adding
    one), and the window keeps the row-major order of its nodes, so each disk
    sums the same nonzero weights in the same order as a whole-grid pass.
    Below bin near every disk is empty (0 / vol, and 0 + m == m for the disks
    after), so the counts start there; bins above last are never read.

    On an exact grid (_node_index, per axis) the offsets ax[r] - x[a] of a
    node point are h (r - i), computed with no rounding, so its bins depend
    only on r - i: all such points of a call slice one table of bins
    (_bin_table), as wide as the largest node offset of their windows. Other
    points compute the same bins from their offsets.
    """
    h = density.spacing
    ax = density.axis_nodes()
    n = ax.size
    weights = density.values * h**density.d
    nodes, windows, near, lasts = _ladders(density, xs, R, weights)
    on_grid = (nodes >= 0).all(axis=1) & (lasts > 0)
    # the largest |r - i| over the first and last row and column of the windows
    half = int(np.abs(windows - [0, 1, 0, 1] - nodes.repeat(2, axis=1))[on_grid].max(initial=0))
    table = _bin_table(h, half) if on_grid.any() else None
    # the covering volume of ladder radius k at [k - 1], for the ladders that
    # end within 2n radii (those of all points in the box); a longer one, of a
    # point outside, takes the volumes of its own radii
    top = int(lasts[lasts <= 2 * n].max(initial=0))
    volumes = ball_volume(2, (np.arange(1, top + 1) + 0.5) * h)
    out = np.zeros(len(xs))
    for p, (x, lo, last, (i, j), (r0, r1, c0, c1)) in enumerate(
            zip(xs, near.tolist(), lasts.tolist(), nodes.tolist(), windows.tolist())):
        first = max(lo, 1)
        if first > last:  # no disk up to the ladder's end holds a node
            continue
        rows, cols = slice(r0, r1), slice(c0, c1)
        if i < 0 or j < 0:
            dist = np.sqrt((ax[rows] - x[0])[:, None] ** 2 + (ax[cols] - x[1])[None, :] ** 2)
            bins = np.ceil(dist / h - 1e-12).astype(int)
        else:  # the window's offsets are h (r - i) and h (c - j), up to h half
            bins = table[r0 - i + half : r1 - i + half, c0 - j + half : c1 - j + half]
        # the disks below bin lo hold nothing, so their zeros are left out
        counts = np.bincount((bins - lo).ravel(), weights=weights[rows, cols].ravel(),
                             minlength=last + 1 - lo)
        cum = np.cumsum(counts[: last + 1 - lo])[first - lo :]
        vol = (volumes[first - 1 : last] if last <= top
               else ball_volume(2, (np.arange(first, last + 1) + 0.5) * h))
        out[p] = np.max(cum / vol)
    return out


def _ladders(density: GridField, xs: np.ndarray, R, weights: np.ndarray):
    """Each point's node indices, window and ladder, for all points at once.

    Returns nodes (P, 2), the index of x[a] among the nodes of an exact grid
    (_node_index), or -1; windows (P, 4), the row and the column start and
    stop of the window, (0, 0) if it is empty; and near and last (P,), the
    first and the last bin of the ladder, 1 and 0 for a point with none.

    On each axis the window holds the rows (columns) from the first to the
    last that hold mass and within (k_R + 1) h of x, k_R = floor(R / h + 1e-12)
    being the largest ladder radius within R, found by np.searchsorted on the
    axis nodes. The search bounds are widened by 2^-48 (|x| + reach), beyond
    their own rounding, so a window holds every node of bin <= k_R, and may
    hold nodes of larger bins, which no value reads. A bin grows with
    |ax[r] - x[0]| and |ax[c] - x[1]| (each step of
    ceil(sqrt(dr^2 + dc^2) / h - 1e-12) is monotone), so the window's nearest
    row and column give its smallest bin, near, and its farthest corner its
    largest, far. The ladder ends at min(k_R, max(far, 1)): from far on a
    disk holds the whole window, so its ratio only falls.
    """
    h = density.spacing
    ax = density.axis_nodes()
    k_R = np.floor(R / h + 1e-12)
    reach = (k_R + 1) * h
    dist = np.empty((2, len(xs), 2))  # the nearest and the farthest |ax - x[a]|
    nodes = np.empty((len(xs), 2), dtype=np.intp)
    windows = np.empty((len(xs), 4), dtype=np.intp)
    empty = np.zeros(len(xs), dtype=bool)
    for a in (0, 1):
        x = xs[:, a]
        held = np.flatnonzero(weights.any(axis=1 - a))
        first, end = (held[0], held[-1] + 1) if held.size else (0, 0)
        wide = reach + 2.0**-48 * (np.abs(x) + reach)
        start = np.maximum(np.searchsorted(ax, x - wide), first)
        stop = np.minimum(np.searchsorted(ax, x + wide, side="right"), end)
        gone = start >= stop
        start[gone] = stop[gone] = 0
        empty |= gone
        top = np.maximum(stop - 1, start)  # the last row or column
        j = np.searchsorted(ax, x)  # |ax - x| falls up to j - 1 and rises from j
        dist[0, :, a] = np.minimum(np.abs(ax[np.clip(j - 1, start, top)] - x),
                                   np.abs(ax[np.clip(j, start, top)] - x))
        dist[1, :, a] = np.maximum(np.abs(ax[start] - x), np.abs(ax[top] - x))
        windows[:, 2 * a], windows[:, 2 * a + 1] = start, stop
        nodes[:, a] = _node_index(density, x)
    near, far = np.ceil(np.sqrt(dist[..., 0] ** 2 + dist[..., 1] ** 2) / h - 1e-12)
    last = np.where(empty, 0.0, np.minimum(k_R, np.maximum(far, 1.0)))
    if not last.max(initial=0) < 2**62:  # no array holds such a ladder
        raise InvalidArgumentError("points lie too far from the grid for its radius ladder")
    # near of a point with no ladder may not fit an integer
    skip = np.maximum(near, 1.0) > last
    return (nodes, windows, np.where(skip, 1, near).astype(np.intp),
            np.where(skip, 0, last).astype(np.intp))


def _bin_table(h: float, c: int) -> np.ndarray:
    """ceil(|(h a, h b)| / h - 1e-12) at [a + c, b + c] for |a|, |b| <= c, as
    the per-point code computes it from the offsets h a and h b.

    Only the quadrant a, b >= 0 is computed; it is mirrored into the other
    three, which is exact because h * -a == -(h * a).
    """
    table = np.empty((2 * c + 1, 2 * c + 1), dtype=np.intp)
    d = h * np.arange(c + 1)
    quad = d[:, None] ** 2 + d[None, :] ** 2
    np.sqrt(quad, out=quad)
    quad /= h
    quad -= 1e-12
    np.ceil(quad, out=quad)
    table[c:, c:] = quad
    table[c:, :c] = quad[:, :0:-1]
    table[:c] = table[:c:-1]
    return table


def maximal_at(measure: GridMeasure, x, R=math.inf):
    """M_R nu(x): sup over 0 < s <= R of |nu|(B(x;s)) / Leb(B(x;s)).

    x is one point, shape (d,), or a batch of points, shape (P, d); R is a
    scalar or one bound per point, shape (P,). A single point gives a float,
    a batch an array of shape (P,), from the same kernels. Every point must
    be finite, whatever the measure.

    Exact for purely atomic measures and for 1D densities (piecewise-constant
    cell integration; the sup is attained at a cell-boundary radius). 2D
    densities restrict radii to spacing multiples and cover the included cell
    material with the ball of radius (k + 1/2) h, a conservative lower bound;
    a call sets up the windows and ladders of all its points at once and
    builds one bin table for all its node points of an exact grid (see
    _density_maximal_2d); the values do not depend on either.
    """
    # a scalar bound and one point are checked without array round trips
    if isinstance(R, (float, int)):
        if not R > 0:  # written so NaN fails too
            raise InvalidArgumentError(f"radius bound must be positive, got {float(R)}")
        R = float(R)
    else:
        R = _positive(R, "radius bound")
    x = np.asarray(x, dtype=float)
    single = x.ndim < 2
    xs = x.reshape(1, -1) if single else x
    if xs.ndim != 2 or xs.shape[1] != measure.d:
        raise InvalidArgumentError(
            f"points must have shape (d,) or (P, d) with d = {measure.d}, got {x.shape}")
    if not (all(map(math.isfinite, xs[0].tolist())) if single else np.isfinite(xs).all()):
        raise InvalidArgumentError("points must be finite")
    if isinstance(R, np.ndarray):
        if R.shape not in ((), (len(xs),)):
            raise InvalidArgumentError(f"R must be a scalar or have shape ({len(xs)},)")
        R = float(R) if R.ndim == 0 else R
    if measure.total_mass == 0.0:
        out = np.zeros(len(xs))
    elif measure.is_atomic:
        out = _atomic_maximal(measure, xs, R)
    elif measure.d == 1:
        out = _density_maximal_1d(measure.density, xs[:, 0], R)
    else:
        out = _density_maximal_2d(measure.density, xs, R)
    return float(out[0]) if single else out


def maximal_field(measure: GridMeasure, R: float = math.inf) -> GridField:
    """Restricted maximal values at every grid node of the density's grid.

    1D fields run the exact kernel of maximal_at over all nodes at once. 2D
    fields take one rfft2 of the cell masses, at a shape that holds the
    largest disk without wrap-around, and one rfft of every interval row
    |off| <= w, w = 0..reach, and of the empty row. Row i of the disk of
    radius k is the interval w = floor(sqrt(k^2 - i^2)), so each disk's row
    transforms are gathered from that table; one column transform and one
    inverse per radius follow, with the (k + 1/2) h covering volume.

    The ladder stops at the first k with total (1 + 1e-6) / vol_k <= the
    smallest node value: a disk holds at most the total mass, and vol_k grows
    with k, so no later radius can raise a node; the margin covers the
    rounding of the sum and of the transforms. An all-zero density
    transforms no disk.
    """
    R = float(_positive(R, "radius bound"))
    if measure.density is None:
        raise InvalidArgumentError("maximal_field requires a density grid")
    density = measure.density
    h = density.spacing
    if density.d == 1:
        values = _density_maximal_1d(density, density.axis_nodes(), R)
        return GridField(d=1, lo=density.lo, hi=density.hi, spacing=h, values=values)
    cell_mass = density.values * h**2
    n = cell_mass.shape[0]
    diam_cells = int(math.ceil((density.hi - density.lo) / h * math.sqrt(2.0))) + 1
    k_max = int(min(math.floor(R / h + 1e-12), diam_cells)) if math.isfinite(R) else diam_cells
    # offsets beyond n - 1 reach no node; L >= n + reach keeps the circular
    # convolution free of wrap-around on the n x n output
    reach = min(k_max, n - 1)
    L = _next_fast_len(n + reach)
    mass_hat = np.fft.rfft2(cell_mass, s=(L, L))
    # |off| of each column: off = j up to reach, j - L from L - reach on; the
    # columns between lie in no interval
    idx = np.arange(L)
    dist = np.minimum(idx, L - idx)
    # table[w] transforms the row of |off| <= w, and table[reach + 1] the empty row
    table = np.fft.rfft(dist <= np.append(np.arange(reach + 1), -1)[:, None], axis=1)
    # rows 0..min(k, reach) of disk k hold intervals, the rest up to L/2 none
    width = np.full(L // 2 + 1, reach + 1)
    out = np.zeros_like(cell_mass)
    scale = 1.0 / (L * L)
    bound = float(cell_mass.sum()) * (1.0 + 1e-6)
    for k in range(1, k_max + 1):
        volume = ball_volume(2, (k + 0.5) * h)
        if bound / volume <= out.min():
            break
        i = np.arange(min(k, reach) + 1)
        width[: i.size] = np.minimum(np.sqrt(k * k - i * i).astype(int), reach)
        # the disk's rows 0..L/2, with row L - i equal to row i
        kern_hat = np.fft.fft(table[np.concatenate([width, width[(L - 1) // 2 : 0 : -1]])],
                              axis=0)
        # the inverse of the n rows the output keeps, scaled as scipy.fft.irfft2
        # scales; the product keeps its operand order, since numpy may fuse a
        # complex product's multiply-adds and round b * a unlike a * b
        rows = np.fft.ifft(mass_hat * kern_hat, axis=0, norm="forward")[:n]
        mass = np.fft.irfft(rows, n=L, axis=1, norm="forward")[:, :n] * scale
        np.maximum(out, np.maximum(mass, 0.0) / volume, out=out)
    return GridField(d=2, lo=density.lo, hi=density.hi, spacing=h, values=out)


def _next_fast_len(target: int) -> int:
    """The smallest 5-smooth length (2^a 3^b 5^c) >= target, the real-input
    fast length of pocketfft."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


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
    lam = float(_positive(lam, "lambda"))
    if measure.masses.size == 0:
        return 0.0
    pos = measure.atoms[:, 0]
    order = np.argsort(pos)
    a = pos[order]
    m = measure.masses[order]
    prefix = np.concatenate([[0.0], np.cumsum(m)])
    # every block i <= j, in the order of a double loop over i and then j
    k = np.arange(a.size)
    i, j = np.nonzero(k[:, None] <= k)  # np.triu_indices(a.size)
    rho = (prefix[j + 1] - prefix[i]) / (2.0 * lam)
    left, right = a[j] - rho, a[i] + rho
    keep = left < right
    return _union_length(left[keep], right[keep])


def _union_length(left: np.ndarray, right: np.ndarray) -> float:
    """Lebesgue measure of the union of the intervals (left, right), left < right.

    The intervals are sorted by left, then by right. A component starts where
    left exceeds the running maximum of the right ends before it (touching
    intervals join), and ends at the running maximum before the next start.
    The lengths are added in order from 0.0 by one cumulative sum, the left
    fold of a merge loop that adds each component as it closes.
    """
    if left.size == 0:  # every ball is too light for lam
        return 0.0
    order = np.lexsort((right, left))  # by left, then by right
    left, right = left[order], right[order]
    cover = np.maximum.accumulate(right)
    start = np.empty(left.size, dtype=bool)
    start[0] = True
    np.greater(left[1:], cover[:-1], out=start[1:])
    end = np.empty_like(start)  # a component ends before the next starts
    end[:-1] = start[1:]
    end[-1] = True
    return float(np.cumsum(cover[end] - left[start])[-1])


def weak_type_check(measure: GridMeasure, lambda_grid,
                    field: GridField | None = None) -> MaximalReport:
    """Compare Leb{M nu > lam} against 5^d |nu|(R^d) / lam for each lambda.

    1D atomic measures are measured exactly; a density's superlevel sets are
    counted on the nodes of maximal_field(measure), or of ``field`` when the
    caller already holds it (it must lie on the density's grid).
    """
    lambda_grid = _positive(lambda_grid, "lambda grid")
    if lambda_grid.size == 0:
        raise InvalidArgumentError("lambda grid must not be empty")
    d = measure.d
    if measure.is_atomic and d != 1:
        raise InvalidArgumentError(
            f"weak_type_check supports 1D atomic measures (exact) and density grids "
            f"(grid count), got an atomic measure in d = {d}")
    if field is not None and (measure.is_atomic or _grid(field) != _grid(measure.density)):
        raise InvalidArgumentError("field must lie on the grid of the measure's density")
    bound = WEAK_TYPE_A1_BASE**d * measure.total_mass / lambda_grid
    if measure.is_atomic:
        if measure.masses.size == 0:
            superlevel = np.zeros_like(lambda_grid)
        else:
            superlevel = np.array(
                [superlevel_measure_atomic(measure, lam) for lam in lambda_grid]
            )
        method = "exact-atomic"
    else:
        fld = maximal_field(measure) if field is None else field
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


def _grid(f: GridField) -> tuple:
    """What fixes the nodes of a grid."""
    return f.d, f.lo, f.hi, f.spacing, f.values.shape


def percentile_lambda_grid(values, count: int = 10) -> np.ndarray:
    """Lambda grid spanning the 10th to 99th percentiles of maximal values."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise InvalidArgumentError(f"count must be an integer >= 1, got {count!r}")
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values) & (values > 0)]
    if values.size == 0:
        raise InsufficientDataError("no positive finite maximal values to span")
    lo = np.percentile(values, 10.0)
    hi = np.percentile(values, 99.0)
    if hi <= lo:
        hi = lo * 2.0
    return np.geomspace(lo, hi, count)


# ---------------------------------------------------------------------------
# Fractional operator G_{s,p}
# ---------------------------------------------------------------------------


def _row_pair_runs(vals: np.ndarray, skip: bool) -> list:
    """Per offset o1, the runs (a, b, form) of row pairs (o1 + i, i), a <= i < b,
    of one G_{s,p} form: _X_CONST if row o1 + i is constant, _Y_CONST if row i
    is, else _FULL. Pairs of equal constant rows are left out when skip. A
    constant row holds one finite value (+0.0 and -0.0 count as equal). An
    offset cut into runs of fewer than GSP_RUN_PAIRS pairs on average takes
    all its pairs in one _FULL run: the full block is right for any pair
    (equal constant rows give +0.0 terms), and a run costs numpy calls."""
    rows, n = vals.shape
    # inf - inf is nan, so a row of infinities is not constant
    const = np.all(vals == vals[:, :1], axis=1) & np.isfinite(vals[:, 0])
    if not const.any():
        return [[(0, rows - o1, _FULL)] for o1 in range(rows)]
    i = np.arange(rows)
    x = i[:, None] + i  # the x row of the pair (o1, i)
    past = x >= rows  # no pair
    x[past] = rows - 1
    form = np.where(const[x], _X_CONST, np.where(const, _Y_CONST, _FULL))
    if skip:
        form[const[x] & const & (vals[x, 0] == vals[:, 0])] = _SKIP
    form[past] = -1
    count = np.count_nonzero(np.diff(form, axis=1, prepend=-1), axis=1) - past[:, -1]
    fold = (count > 1) & ((rows - i) * n * n < GSP_RUN_PAIRS * count)
    form[fold] = np.where(past[fold], -1, _FULL)
    form[form == _SKIP] = -1  # -1 for no block: skipped or no pair
    o1, last = np.nonzero(np.diff(form, axis=1, append=-2))  # the last pair of each run
    first = np.zeros_like(last)
    first[1:] = np.where(o1[1:] == o1[:-1], last[:-1] + 1, 0)
    kind = form[o1, last]
    keep = kind >= 0
    runs = [[] for _ in range(rows)]
    for k, a, b, fk in zip(*(v[keep].tolist() for v in (o1, first, last + 1, kind))):
        runs[k].append((a, b, fk))
    return runs


def gsp_field(f: GridField, s: float, p: float) -> GridField:
    """Node-wise (integral over the box of |f(x)-f(y)|^p / |x-y|^{d+sp} dy)^{1/p}.

    The singular cell |x-y| < spacing/2 is excluded; for grid nodes that is
    exactly the diagonal term. The values are viewed as (rows, n), one row in
    1D; for each leading-axis offset o1 >= 0 every last-axis pair (j, j') of
    rows r and r - o1 is one block of |v[r, j] - v[r - o1, j']|^p weights,
    with the weight of the offset (o1, j - j'). At o1 = 0 only j > j' has
    weight, so each unordered pair counts once; a block's row sums go to its
    x nodes and its column sums to its y nodes. Column blocks hold at most
    KERNEL_ELEMENTS pairs of one row pair, and row blocks at most
    GSP_BLOCK_PAIRS pairs. Row blocks go in ascending rows, so for each
    offset and column block a node gets its row sum before its column sum,
    whatever the row blocks: only the column blocks fix bits.

    A row whose values are all equal is constant. A pair of equal constant
    rows has only +0.0 terms (with finite weights), which change no sum, so
    it makes no block. A pair with one constant row takes the powers
    |c - y|^p or |x - c|^p once per row and one broadcast product with the
    weights: the same terms as the full block, summed the same way.
    """
    if not 0.0 < s < 1.0:
        raise InvalidArgumentError("s must lie in (0,1)")
    if not 1.0 <= p < math.inf:
        raise InvalidArgumentError(f"p must lie in [1, inf), got {p}")
    h, d = f.spacing, f.d
    vals = f.values.reshape(-1, f.values.shape[-1])
    rows, n = vals.shape
    acc = np.zeros_like(vals)
    # weights[o1, o2 + n - 1] for the offset (o1, o2); none at o1 = 0, o2 <= 0
    lead, last = np.ogrid[:rows, 1 - n : n]
    with np.errstate(divide="ignore"):
        weights = h**d / (h * np.hypot(lead, last)) ** (d + s * p)
    weights[0, :n] = 0.0
    # toeplitz[o1][j, j'] is the weight of o2 = j - j' (a strided view)
    toeplitz = sliding_window_view(weights[:, ::-1], n, axis=1)[:, ::-1]
    cols = min(n, max(1, KERNEL_ELEMENTS // n))
    block_rows = max(1, GSP_BLOCK_PAIRS // (cols * n))
    buf = np.empty(min(rows, block_rows) * cols * n)
    powers = np.empty(min(rows, block_rows) * n)
    w_buf = np.empty(cols * n)
    ones = np.ones(n)
    square = p == 2.0

    def power(a):  # |a|^p in place
        if square:  # (x - y)^2 == |x - y|^2, and power at 2.0 is the square
            np.square(a, out=a)
        else:
            np.abs(a, out=a)
            a **= p

    first = vals[:, 0]
    # a zero difference times an infinite weight would be nan, not +0.0
    runs = _row_pair_runs(vals, skip=bool(np.isfinite(weights).all()))
    for o1 in range(rows):
        if not runs[o1]:
            continue  # every pair of the offset is skipped
        for j0 in range(0, n, cols):
            j1 = min(n, j0 + cols)
            c = j1 - j0
            width = j1 if o1 == 0 else n  # at o1 = 0 no y column j' >= j1 weighs
            w = w_buf[: c * width].reshape(c, width)
            np.copyto(w, toeplitz[o1, j0:j1, :width])
            for a, b, form in runs[o1]:
                for r0 in range(a, b, block_rows):
                    r1 = min(b, r0 + block_rows)
                    x, y = vals[o1 + r0 : o1 + r1, j0:j1], vals[r0:r1, :width]
                    pair = buf[: (r1 - r0) * c * width].reshape(r1 - r0, c, width)
                    if form == _FULL:
                        # x - y as a copy of x less y in place: the same differences,
                        # cheaper than one subtract that broadcasts both operands
                        np.copyto(pair, x[:, :, None])
                        pair -= y[:, None, :]
                        power(pair)
                        pair *= w
                    elif form == _X_CONST:
                        u = powers[: (r1 - r0) * width].reshape(r1 - r0, width)
                        np.subtract(first[o1 + r0 : o1 + r1, None], y, out=u)
                        power(u)
                        np.multiply(u[:, None, :], w, out=pair)
                    else:
                        u = powers[: (r1 - r0) * c].reshape(r1 - r0, c)
                        np.subtract(x, first[r0:r1, None], out=u)
                        power(u)
                        np.multiply(u[:, :, None], w, out=pair)
                    # the terms are nonnegative, so any summation order is accurate;
                    # products with ones are the fastest row and column sums
                    acc[o1 + r0 : o1 + r1, j0:j1] += pair @ ones[:width]
                    acc[r0:r1, :width] += ones[:c] @ pair
    return GridField(d=d, lo=f.lo, hi=f.hi, spacing=h,
                     values=(acc ** (1.0 / p)).reshape(f.values.shape))


# ---------------------------------------------------------------------------
# Pointwise estimates
# ---------------------------------------------------------------------------


@dataclass
class PointwiseReport:
    k0: float
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

    # pairs at distance 0 are dropped without being counted
    diff = xs - ys
    # np.linalg.norm of one vector is sqrt(v.dot(v)); vecdot takes that dot per row
    dist = np.sqrt(np.vecdot(diff, diff))
    keep = dist > 0.0
    xs, ys, dist = xs[keep], ys[keep], dist[keep]
    num = np.abs(_grid_value(f, xs) - _grid_value(f, ys))
    R = 2.0 * dist
    # both ends in one call, so a 2D density builds one bin table for both
    both = maximal_at(measure, np.concatenate([xs, ys]), np.concatenate([R, R]))
    mx, my = both[: len(xs)], both[len(xs) :]
    # Python float pow: numpy's power may take a different libm path
    den = np.array([v**gamma for v in dist.tolist()]) * (mx + my)
    zero = den == 0.0
    used = ~zero
    if not np.any(used):
        raise InsufficientDataError("all sampled pairs were degenerate")
    return PointwiseReport(
        k0=float(np.max(num[used] / den[used])), n_pairs=len(keep),
        n_used=int(np.count_nonzero(used)),
        n_skipped=int(np.count_nonzero(zero & (num == 0.0))),
        violations=int(np.count_nonzero(zero & (num != 0.0))), gamma=gamma,
    )


def _grid_value(f: GridField, xs: np.ndarray) -> np.ndarray:
    """Values of f at the nodes nearest to each row of xs (P, d), shape (P,)."""
    idx = np.round((xs - f.lo) / f.spacing).astype(int)
    idx = np.clip(idx, 0, f.n_nodes_per_axis - 1)
    return f.values[tuple(idx.T)]


def mollified_ball_gradient(
    radius: float, lo: float, hi: float, n_cells: int, width_cells: float = 2.0
) -> tuple[GridField, GridMeasure]:
    """Mollified 2D ball indicator and its |gradient| density.

    The surface measure of the sharp indicator has no grid-native
    representation; the Gaussian-mollified gradient converges to it in total
    mass (the perimeter).
    """
    width_cells = float(_positive(width_cells, "width_cells"))
    h = (hi - lo) / n_cells
    ax = lo + h * np.arange(n_cells + 1)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    ind = (np.hypot(xx, yy) < radius).astype(float)
    smooth = _gaussian_filter(_gaussian_filter(ind, width_cells, 0), width_cells, 1)
    gx, gy = np.gradient(smooth, h)
    grad_mag = np.hypot(gx, gy)
    f = GridField(d=2, lo=lo, hi=hi, spacing=h, values=smooth)
    grad = GridField(d=2, lo=lo, hi=hi, spacing=h, values=grad_mag)
    return f, measure_from_density(grad)


def _gaussian_filter(values: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    """Gaussian smoothing of values along one axis with zero padding.

    scipy.ndimage.gaussian_filter1d(mode="constant") written out: taps out to
    int(4 sigma + 0.5) cells, weights exp(-x^2 / (2 sigma^2)) over their sum,
    and its summation order for a symmetric kernel, the centre tap first and
    then (left + right) * w from the outermost pair inward.
    """
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = w / w.sum()
    n = values.shape[axis]
    widths = [(0, 0)] * values.ndim
    widths[axis] = (r, r)
    padded = np.pad(values, widths)

    def tap(k):  # the value k cells further along the axis, zero beyond the grid
        return padded[(slice(None),) * axis + (slice(r + k, r + k + n),)]

    out = tap(0) * w[r]
    for k in range(r, 0, -1):
        out += (tap(-k) + tap(k)) * w[r - k]
    return out
