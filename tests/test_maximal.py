import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy.ndimage import gaussian_filter
from scipy.signal import fftconvolve

from irregmc import maximal as mx
from irregmc.errors import InsufficientDataError, InvalidArgumentError
from irregmc.maximal import (
    GridField,
    GridMeasure,
    ball_volume,
    gsp_field,
    maximal_at,
    maximal_field,
    measure_from_atoms,
    measure_from_density,
    mollified_ball_gradient,
    percentile_lambda_grid,
    pointwise_check,
    random_atomic_measure,
    random_density_1d,
    random_density_2d,
    superlevel_measure_atomic,
    weak_type_check,
)


def _box_density(fn, lo=-4.0, hi=4.0, cells=1024):
    return measure_from_density(GridField.from_function(fn, 1, lo, hi, cells))


@pytest.fixture(scope="module")
def slab():
    return _box_density(lambda x: (np.abs(x[..., 0]) <= 1.0).astype(float))


def test_maximal_slab_center(slab):
    # averaging 1_[-1,1] over [-s,s] is 1 for every s <= 1
    assert maximal_at(slab, [0.0]) == pytest.approx(1.0, abs=1e-12)


def test_maximal_slab_outside(slab):
    # best ball at x=2 covers the slab: mass 2 over length 6
    assert maximal_at(slab, [2.0]) == pytest.approx(1.0 / 3.0, abs=0.01)


def test_maximal_slab_restricted(slab):
    assert maximal_at(slab, [2.0], R=0.5) == 0.0


def test_maximal_dense_radius_scan_oracle(slab):
    # independent oracle: dense radius scan with exact cell-overlap interval mass
    density = slab.density
    h = density.spacing
    nodes = density.axis_nodes()
    vals = density.values
    cell_lo, cell_hi = nodes - h / 2, nodes + h / 2
    for x in (0.3, 1.4, 2.6):
        best = 0.0
        for s in np.linspace(h / 4, 8.0, 8000):
            overlap = np.clip(np.minimum(cell_hi, x + s) - np.maximum(cell_lo, x - s),
                              0.0, None)
            mass = float(np.sum(vals * overlap))
            best = max(best, mass / (2 * s))
        assert maximal_at(slab, [x]) == pytest.approx(best, rel=0.005)


def test_atom_maximal_exact():
    nu = measure_from_atoms([[0.0]], [1.0])
    # M nu(x) = 1 / (2|x|) in one dimension
    assert maximal_at(nu, [0.25]) == pytest.approx(2.0, rel=1e-12)
    assert maximal_at(nu, [-2.0]) == pytest.approx(0.25, rel=1e-12)
    assert maximal_at(nu, [0.0]) == math.inf
    assert maximal_at(nu, [2.0], R=0.5) == 0.0


def test_empty_measure():
    nu = GridMeasure(atoms=np.zeros((0, 1)), masses=np.zeros(0))
    assert maximal_at(nu, [1.0]) == 0.0
    rep = weak_type_check(nu, [0.5, 1.0])
    assert np.all(rep.superlevel_measures == 0.0)
    assert rep.violations == 0


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 4.0])
def test_single_atom_superlevel_closed_form(lam):
    # {M nu > lam} = {|x| < 1/(2 lam)}, so its measure is 1/lam
    nu = measure_from_atoms([[0.0]], [1.0])
    assert superlevel_measure_atomic(nu, lam) == pytest.approx(1.0 / lam, rel=1e-12)


def test_two_atom_superlevel_against_scan():
    nu = measure_from_atoms([[-1.0], [2.0]], [1.0, 0.5])
    xs = np.linspace(-12, 14, 200_001)
    vals = maximal_at(nu, xs[:, None])
    for lam in (0.2, 0.5, 1.5):
        exact = superlevel_measure_atomic(nu, lam)
        scan = float(np.count_nonzero(vals > lam)) * (xs[1] - xs[0])
        assert exact == pytest.approx(scan, abs=3 * (xs[1] - xs[0]))


@pytest.mark.parametrize("lam", [0.0, -1.0, -math.inf, math.nan])
@pytest.mark.parametrize("maker", [random_atomic_measure, random_density_1d,
                                   random_density_2d])
def test_nonpositive_lambda_rejected(maker, lam):
    nu = maker(np.random.default_rng(6))
    with pytest.raises(InvalidArgumentError, match="lambda"):
        weak_type_check(nu, [lam, 1.0])
    if nu.is_atomic:
        with pytest.raises(InvalidArgumentError, match="lambda"):
            superlevel_measure_atomic(nu, lam)


def test_weak_type_slab(slab):
    rep = weak_type_check(slab, [0.5])
    # example: Leb{M > 1/2} = 2 <= 5 * 2 / (1/2) = 20
    assert rep.superlevel_measures[0] == pytest.approx(2.0, rel=0.05)
    assert rep.bound_values[0] == pytest.approx(5 * slab.total_mass / 0.5)
    assert rep.violations == 0


@pytest.mark.parametrize("maker", [random_density_1d, random_density_2d])
def test_weak_type_check_takes_the_callers_field(maker):
    nu = maker(np.random.default_rng(8))
    fld = maximal_field(nu)
    lams = percentile_lambda_grid(fld.values.ravel(), 6)
    given, computed = weak_type_check(nu, lams, fld), weak_type_check(nu, lams)
    assert np.array_equal(given.superlevel_measures, computed.superlevel_measures)
    assert given.method == computed.method == "grid-count"
    other = maker(np.random.default_rng(9)).density
    shifted = GridField(d=other.d, lo=other.lo + 1.0, hi=other.hi + 1.0,
                        spacing=other.spacing, values=other.values)
    coarse = GridField.from_function(lambda x: x[..., 0] ** 2, nu.d, other.lo, other.hi, 12)
    for wrong in (shifted, coarse):
        with pytest.raises(InvalidArgumentError, match="grid"):
            weak_type_check(nu, lams, wrong)
    with pytest.raises(InvalidArgumentError, match="grid"):
        weak_type_check(random_atomic_measure(np.random.default_rng(8)), lams, fld)


def test_weak_type_check_rejects_atomic_measures_in_2d():
    nu = measure_from_atoms([[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0])
    with pytest.raises(InvalidArgumentError,
                       match=r"1D atomic measures \(exact\) and density grids"):
        weak_type_check(nu, [0.5, 1.0])


def test_superlevel_of_a_lambda_no_ball_exceeds_is_zero():
    # m / (2 lam) vanishes next to 3.0, so no interval (3 - rho, 3 + rho) is left
    nu = measure_from_atoms([[3.0]], [1.0])
    assert superlevel_measure_atomic(nu, 1e20) == 0.0
    assert weak_type_check(nu, [1.0, 1e20]).superlevel_measures.tolist() == [1.0, 0.0]


def test_restriction_monotonicity(slab):
    for x in (0.0, 1.2, 3.0):
        v1 = maximal_at(slab, [x], R=0.25)
        v2 = maximal_at(slab, [x], R=1.0)
        v3 = maximal_at(slab, [x])
        assert v1 <= v2 + 1e-12
        assert v2 <= v3 + 1e-12


def test_sublinearity_atomic():
    rng = np.random.default_rng(7)
    a1 = measure_from_atoms(rng.uniform(-3, 3, (5, 1)), rng.uniform(0.1, 1, 5))
    a2 = measure_from_atoms(rng.uniform(-3, 3, (4, 1)), rng.uniform(0.1, 1, 4))
    both = measure_from_atoms(
        np.vstack([a1.atoms, a2.atoms]), np.concatenate([a1.masses, a2.masses])
    )
    for x in rng.uniform(-4, 4, 50):
        assert maximal_at(both, [x]) <= maximal_at(a1, [x]) + maximal_at(a2, [x]) + 1e-12


def test_mass_scaling():
    rng = np.random.default_rng(8)
    locs, masses = rng.uniform(-3, 3, (6, 1)), rng.uniform(0.1, 1, 6)
    nu = measure_from_atoms(locs, masses)
    nu3 = measure_from_atoms(locs, 3.0 * masses)
    for x in rng.uniform(-4, 4, 25):
        assert maximal_at(nu3, [x]) == pytest.approx(3.0 * maximal_at(nu, [x]), rel=1e-12)


def test_maximal_field_matches_pointwise(slab):
    # one kernel serves both forms, so every node agrees exactly
    for R in (math.inf, 0.3):
        fld = maximal_field(slab, R)
        point = [maximal_at(slab, [x], R) for x in slab.density.axis_nodes()]
        assert fld.values.tolist() == point


# The scalar maximal_at as it was before points were batched: one point, one
# radius, and a 2D kernel that bins every node of the grid. The batched kernels
# must reproduce it bit for bit.


def _ref_disk_cummass_2d(density, x, k_max):
    h = density.spacing
    dist = np.linalg.norm(density.node_coords() - x, axis=1)
    bins = np.ceil(dist / h - 1e-12).astype(int)
    np.clip(bins, 0, k_max + 1, out=bins)
    w = density.values.ravel() * h**density.d
    counts = np.bincount(bins, weights=w, minlength=k_max + 2)
    return np.cumsum(counts)[: k_max + 1]


def _ladder_top(density, x, r):
    """The largest k with k h <= r, capped at ceil(D / h) + 1 for the distance
    D from x to the farthest corner of the node box: no node lies beyond it."""
    h = density.spacing
    ax = density.axis_nodes()
    corner = [max(abs(x[a] - ax[0]), abs(x[a] - ax[-1])) for a in (0, 1)]
    k_cap = math.ceil(float(np.hypot(*corner)) / h) + 1
    return k_cap if math.isinf(r) else int(min(math.floor(r / h + 1e-12), k_cap))


def _ref_maximal_at(measure, x, R=math.inf):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if measure.total_mass == 0.0:
        return 0.0
    if measure.is_atomic:
        dist = np.linalg.norm(measure.atoms - x, axis=1)
        if np.any(dist == 0.0):
            return math.inf
        if not np.any(dist <= R):
            return 0.0
        order = np.argsort(dist)
        dist_sorted = dist[order]
        cum = np.cumsum(measure.masses[order])
        keep = dist_sorted <= R
        return float(np.max(cum[keep] / ball_volume(measure.d, dist_sorted[keep])))
    density = measure.density
    h = density.spacing
    if density.d == 1:
        bounds = density.lo - 0.5 * h + h * np.arange(density.n_nodes_per_axis + 1)
        prefix = np.concatenate([[0.0], np.cumsum(density.values * h)])
        s = np.minimum(np.abs(x[0] - bounds), R)
        mass = np.interp(x[0] + s, bounds, prefix) - np.interp(x[0] - s, bounds, prefix)
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.max(np.where(s > 0, mass / (2.0 * s), 0.0)))
    k_max = _ladder_top(density, x, R)
    if k_max < 1:
        return 0.0
    cum = _ref_disk_cummass_2d(density, x, k_max)
    ks = np.arange(1, k_max + 1)
    return float(np.max(cum[1:] / ball_volume(2, (ks + 0.5) * h)))


def dyadic_ball_2d(rng):
    """|Df| of the mollified unit ball on a 64-cell grid over [-2, 2]^2: the
    spacing 1/16 is dyadic, so the node offsets are exact multiples of it."""
    return mollified_ball_gradient(1.0, -2.0, 2.0, 64)[1]


def _probe_points(nu, rng):
    """Nodes, off-node points and far points for a density; random points and
    the atoms themselves for an atomic measure."""
    if nu.is_atomic:
        return np.concatenate([rng.uniform(-6.0, 6.0, (40, 1)), nu.atoms])
    nodes = nu.density.node_coords()
    return np.concatenate([nodes[rng.integers(0, len(nodes), 30)],
                           rng.uniform(-2.5, 2.5, (30, nu.d)),
                           np.full((2, nu.d), 9.0)])


@pytest.mark.parametrize("maker", [random_atomic_measure, random_density_1d,
                                   random_density_2d, dyadic_ball_2d])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_maximal_at_equals_scalar_reference(maker, seed):
    rng = np.random.default_rng(seed)
    nu = maker(rng)
    xs = _probe_points(nu, rng)
    spacing = math.inf if nu.is_atomic else nu.density.spacing
    radii = [np.full(len(xs), math.inf), np.full(len(xs), 0.5),
             rng.uniform(0.01, 3.0, len(xs))]
    if not nu.is_atomic:
        radii.append(np.full(len(xs), 0.5 * spacing))
    for R in radii:
        ref = np.array([_ref_maximal_at(nu, x, r) for x, r in zip(xs, R)])
        assert np.array_equal(maximal_at(nu, xs, R), ref)
        assert [maximal_at(nu, x, r) for x, r in zip(xs, R)] == ref.tolist()
        if np.all(R == R[0]):
            assert np.array_equal(maximal_at(nu, xs, float(R[0])), ref)
    if nu.is_atomic:  # the probes end with the atoms themselves
        assert np.all(maximal_at(nu, xs[-nu.atoms.shape[0]:]) == math.inf)
    elif nu.d == 2:  # no ladder radius fits below one spacing
        assert np.all(maximal_at(nu, xs, 0.5 * spacing) == 0.0)


def _count_table_builds(monkeypatch):
    """Wrap the 2D kernel's bin-table builder; returns the list of built tables."""
    built = []
    build = mx._bin_table

    def counting(h, c):
        built.append(build(h, c))
        return built[-1]

    monkeypatch.setattr(mx, "_bin_table", counting)
    return built


def _table_size(density, xs, R):
    """2 c + 1 for the largest node offset c over the windows of the node
    points of xs that run a ladder: each window holds the rows and columns
    that hold mass within (k_R + 1) h of the point, k_R = floor(R / h + 1e-12),
    and a point runs a ladder when k_R >= 1 and a window node lies within
    radius k_R. Per point, from the offsets; 1 (c = 0) if none runs one."""
    h = density.spacing
    ax = density.axis_nodes()
    held = [np.flatnonzero(density.values.any(axis=1 - a)) for a in (0, 1)]
    k_R = math.inf if math.isinf(R) else math.floor(R / h + 1e-12)
    c = 0
    for x in xs:
        at = [int(np.flatnonzero(ax == x[a])[0]) for a in (0, 1)]
        rows = [held[a][np.abs(ax[held[a]] - x[a]) <= (k_R + 1) * h] for a in (0, 1)]
        if k_R < 1 or not (rows[0].size and rows[1].size):
            continue
        dist = np.sqrt((ax[rows[0]] - x[0])[:, None] ** 2 + (ax[rows[1]] - x[1])[None, :] ** 2)
        if np.ceil(dist / h - 1e-12).min() <= k_R:
            c = max(c, *(int(np.abs(r - i).max()) for r, i in zip(rows, at)))
    return 2 * c + 1


def test_bin_table_built_once_per_call_for_node_points(monkeypatch):
    built = _count_table_builds(monkeypatch)
    rng = np.random.default_rng(7)
    dyadic = dyadic_ball_2d(rng)
    nodes = dyadic.density.node_coords()
    on_grid = nodes[rng.integers(0, len(nodes), 20)]
    off_grid = rng.uniform(-2.5, 2.5, (20, 2))
    sizes = []
    for R in (math.inf, 0.5):
        maximal_at(dyadic, np.concatenate([on_grid, off_grid]), R)
        maximal_at(dyadic, on_grid[0], R)
        sizes += [_table_size(dyadic.density, on_grid, R),
                  _table_size(dyadic.density, on_grid[:1], R)]
    assert len(built) == 4
    # each table spans the largest node offset of its call's windows: the
    # rows and columns that hold mass at R = inf, 0.5 / h + 1 at R = 0.5
    assert [t.shape for t in built] == [(s, s) for s in sizes]
    assert sizes[0] < 2 * dyadic.density.n_nodes_per_axis - 1
    maximal_at(dyadic, off_grid)
    maximal_at(dyadic, on_grid, 0.5 * dyadic.density.spacing)  # no ladder radius
    coarse = random_density_2d(rng)  # spacing 1/12: not an exact grid
    maximal_at(coarse, coarse.density.node_coords()[::7])
    assert len(built) == 4


def _peak_bytes(fn, *args):
    """fn(*args) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bin_table_memory_is_the_table(monkeypatch):
    _, grad = mollified_ball_gradient(1.0, -2.0, 2.0, 512)
    density = grad.density
    n = density.n_nodes_per_axis
    # the widest table a 2D call can build, c = n - 1: a (2n - 1)^2 float
    # temporary next to it would take 2x its bytes
    table, peak = _peak_bytes(mx._bin_table, density.spacing, n - 1)
    assert table.shape == (2 * n - 1, 2 * n - 1)
    assert peak <= 1.6 * table.nbytes
    built = _count_table_builds(monkeypatch)
    # a corner node's table spans the rows and columns that hold mass
    x = density.node_coords()[0]
    value, peak = _peak_bytes(maximal_at, grad, x)
    assert value == _ref_maximal_at(grad, x)
    assert peak <= 10 << 20
    # an inner node's table is narrower than a corner node's
    y = density.node_coords()[n * 200 + 300]
    assert maximal_at(grad, y) == _ref_maximal_at(grad, y)
    sizes = [_table_size(density, [z], math.inf) for z in (x, y)]
    assert [t.shape for t in built] == [(s, s) for s in sizes]
    assert sizes[1] < sizes[0] < 2 * n - 1


def _zero_rows_and_columns(density):
    values = density.values.copy()
    values[:9] = values[:, -5:] = 0.0
    return GridField(d=2, lo=density.lo, hi=density.hi, spacing=density.spacing,
                     values=values)


@pytest.mark.parametrize("case", ["dyadic", "random", "zero-edges", "empty"])
def test_ladder_setup_equals_the_per_point_helpers(case):
    """The set-up of all points at once (_ladders) gives every point the value
    of the per-point reference, which bins every node of the grid."""
    rng = np.random.default_rng(17)
    density = (dyadic_ball_2d(rng) if case == "dyadic" else random_density_2d(rng)).density
    if case == "zero-edges":
        density = _zero_rows_and_columns(density)
    elif case == "empty":  # no row or column holds mass
        density = GridField(d=2, lo=density.lo, hi=density.hi, spacing=density.spacing,
                            values=np.zeros_like(density.values))
    h = density.spacing
    nodes = density.node_coords()
    nu = measure_from_density(density)
    # on nodes, off nodes and outside the box
    xs = np.concatenate([nodes[rng.integers(0, len(nodes), 300)],
                         rng.uniform(-2.5, 2.5, (300, 2)),
                         rng.uniform(-9.0, 9.0, (40, 2)), [[9.0, -9.0], [0.0, 40.0]]])
    for R in (np.full(len(xs), math.inf), np.full(len(xs), 0.5 * h),
              np.full(len(xs), 0.5), rng.uniform(0.01, 3.0, len(xs))):
        ref = [_ref_maximal_at(nu, x, r) for x, r in zip(xs, R)]
        # maximal_at returns zeros for a measure without mass before any set-up
        assert mx._density_maximal_2d(density, xs, R).tolist() == ref
    if case == "empty":
        assert not any(ref)


def _nonfinite_measures():
    rng = np.random.default_rng(8)
    return [random_atomic_measure(rng), random_density_1d(rng), random_density_2d(rng)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("nu", _nonfinite_measures(), ids=["atomic", "1d", "2d"])
def test_nonfinite_points_rejected(nu, bad):
    x = np.zeros(nu.d)
    x[-1] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        maximal_at(nu, x)
    with pytest.raises(InvalidArgumentError, match="finite"):
        maximal_at(nu, np.stack([np.zeros(nu.d), x]), 1.0)


def test_a_ladder_top_beyond_any_array_is_rejected():
    # its top does not fit an integer; cast anyway, it would read 0.0
    nu = random_density_2d(np.random.default_rng(8))
    with pytest.raises(InvalidArgumentError, match="too far"):
        maximal_at(nu, [1e20, 0.0])


def test_maximal_at_shapes():
    nu = random_density_2d(np.random.default_rng(3))
    assert isinstance(maximal_at(nu, [0.1, 0.2]), float)
    assert maximal_at(nu, [[0.1, 0.2]]).shape == (1,)
    assert maximal_at(nu, np.zeros((0, 2)), np.ones(0)).shape == (0,)
    with pytest.raises(InvalidArgumentError):
        maximal_at(nu, [0.1, 0.2, 0.3])
    with pytest.raises(InvalidArgumentError):
        maximal_at(nu, np.zeros((3, 2)), np.ones(2))


@pytest.mark.parametrize("R", [0.0, -1.0, -math.inf, math.nan])
@pytest.mark.parametrize("maker", [random_density_1d, random_density_2d])
def test_nonpositive_radius_rejected(maker, R):
    nu = maker(np.random.default_rng(4))
    x = np.zeros(nu.d)
    with pytest.raises(InvalidArgumentError):
        maximal_field(nu, R)
    with pytest.raises(InvalidArgumentError):
        maximal_at(nu, x, R)
    with pytest.raises(InvalidArgumentError):
        maximal_at(nu, np.zeros((3, nu.d)), np.array([1.0, R, 1.0]))


@pytest.mark.parametrize("R", [0.0, -1.0, -math.inf, math.nan])
def test_nonpositive_radius_rejected_atomic(R):
    nu = random_atomic_measure(np.random.default_rng(5))
    with pytest.raises(InvalidArgumentError):
        maximal_at(nu, [0.5], R)
    with pytest.raises(InvalidArgumentError):
        maximal_at(nu, np.zeros((2, 1)), np.array([R, 1.0]))


def test_grid_field_validation():
    with pytest.raises(InvalidArgumentError):
        GridField(d=3, lo=0.0, hi=1.0, spacing=0.5, values=np.zeros((3, 3, 3)))
    with pytest.raises(InvalidArgumentError):
        GridField(d=1, lo=0.0, hi=1.0, spacing=-0.5, values=np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        GridField(d=1, lo=1.0, hi=1.0, spacing=0.5, values=np.zeros(1))
    with pytest.raises(InvalidArgumentError):
        GridField(d=1, lo=0.0, hi=1.0, spacing=0.5, values=np.array([0.0, np.inf, 0.0]))
    with pytest.raises(InvalidArgumentError):
        GridField(d=1, lo=0.0, hi=1.0, spacing=0.5, values=np.zeros(7))


def test_total_mass_consistency_check():
    f = GridField(d=1, lo=0.0, hi=1.0, spacing=0.25, values=np.ones(5))
    with pytest.raises(InvalidArgumentError):
        GridMeasure(atoms=np.zeros((0, 1)), masses=np.zeros(0), density=f,
                    total_mass=99.0)


def test_measure_with_atoms_and_density_rejected():
    f = GridField(d=1, lo=0.0, hi=1.0, spacing=0.25, values=np.ones(5))
    with pytest.raises(InvalidArgumentError, match="not both"):
        GridMeasure(atoms=[[0.5]], masses=[1.0], density=f)


def test_percentile_lambda_grid():
    lams = percentile_lambda_grid(np.geomspace(0.1, 10, 100), 5)
    assert lams.shape == (5,)
    assert np.all(np.diff(lams) > 0)
    with pytest.raises(InsufficientDataError):
        percentile_lambda_grid(np.zeros(10), 5)
    for count in (0, -3, 2.5, True, False):
        with pytest.raises(InvalidArgumentError, match="count"):
            percentile_lambda_grid(np.geomspace(0.1, 10, 100), count)


@pytest.mark.parametrize("maker", [random_atomic_measure, random_density_1d,
                                   random_density_2d])
def test_empty_lambda_grid_rejected(maker):
    nu = maker(np.random.default_rng(6))
    with pytest.raises(InvalidArgumentError, match="empty"):
        weak_type_check(nu, [])


# ---------------------------------------------------------------------------
# G_{s,p}
# ---------------------------------------------------------------------------


def test_gsp_zero_function():
    f = GridField(d=1, lo=-1.0, hi=1.0, spacing=0.125, values=np.zeros(17))
    assert np.all(gsp_field(f, 0.5, 2.0).values == 0.0)
    const = GridField(d=2, lo=-1.0, hi=1.0, spacing=0.25, values=np.full((9, 9), 3.7))
    for s, p in ((0.5, 2.0), (0.3, 1.5)):
        assert np.all(gsp_field(const, s, p).values == 0.0)


def test_gsp_brute_force_1d():
    f = GridField.from_function(
        lambda x: np.maximum(0.0, 1.0 - np.abs(x[..., 0])), 1, -2.0, 2.0, 32
    )
    g = gsp_field(f, 0.5, 2.0)
    nodes = f.axis_nodes()
    h = f.spacing
    for i in (0, 7, 16, 30):
        acc = 0.0
        for j in range(nodes.size):
            if j == i:
                continue
            acc += abs(f.values[i] - f.values[j]) ** 2 / abs(nodes[i] - nodes[j]) ** 2 * h
        assert g.values[i] == pytest.approx(math.sqrt(acc), rel=1e-12)


def test_gsp_brute_force_2d():
    fn = lambda x: np.exp(-np.sum(x**2, axis=-1))
    f = GridField.from_function(fn, 2, -1.0, 1.0, 8)
    g = gsp_field(f, 0.5, 2.0)
    nodes = f.node_coords()
    vals = f.values.ravel()
    h = f.spacing
    for i in (0, 12, 40, 80):
        acc = 0.0
        for j in range(nodes.shape[0]):
            if i == j:
                continue
            d = np.linalg.norm(nodes[i] - nodes[j])
            acc += abs(vals[i] - vals[j]) ** 2 / d**3 * h * h
        assert g.values.ravel()[i] == pytest.approx(math.sqrt(acc), rel=1e-10)


def test_gsp_tent_refinement_stable():
    tent = lambda x: np.maximum(0.0, 1.0 - np.abs(x[..., 0]))
    vals = []
    for cells in (512, 1024):  # h = 1/128 and 1/256 on [-2, 2]
        f = GridField.from_function(tent, 1, -2.0, 2.0, cells)
        g = gsp_field(f, 0.5, 2.0)
        vals.append(g.values[cells // 2])  # node at x = 0
    assert abs(vals[1] - vals[0]) / vals[0] < 0.10


def _gsp_stability(fn, lo, hi, s, p, n_cells_list, growth_limit=10.0):
    """G_{s,p} under grid refinement: max-node growth > growth_limit flags divergence."""
    maxima = [float(gsp_field(GridField.from_function(fn, 1, lo, hi, n), s, p).values.max())
              for n in n_cells_list]
    growth = maxima[-1] / maxima[0] if maxima[0] > 0 else math.inf
    return {"max_values": maxima, "growth": growth, "unstable": bool(growth > growth_limit)}


def test_gsp_indicator_divergence_flag():
    # sp = 1.5 > 1: the seminorm diverges for a jump; refinement blows up
    ind = lambda x: ((x[..., 0] > 0) & (x[..., 0] < 1)).astype(float)
    res = _gsp_stability(ind, -1.0, 2.0, 0.75, 2.0, [24, 48, 96, 192, 384, 768])
    assert res["unstable"]
    smooth = _gsp_stability(
        lambda x: np.maximum(0.0, 1.0 - np.abs(x[..., 0])), -2.0, 2.0, 0.5, 2.0,
        [24, 48, 96, 192, 384, 768],
    )
    assert not smooth["unstable"]


def test_gsp_argument_validation():
    f = GridField(d=1, lo=0.0, hi=1.0, spacing=0.5, values=np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        gsp_field(f, 1.5, 2.0)
    with pytest.raises(InvalidArgumentError):
        gsp_field(f, 0.5, 0.5)
    for p in (math.nan, math.inf):
        with pytest.raises(InvalidArgumentError, match="p must"):
            gsp_field(f, 0.5, p)


# Reference forms of two kernels: the G_{s,p} loop over every offset and the
# 2D maximal ladder of one fftconvolve per radius. The library kernels sum in
# another order, so they must agree to rounding, not bit for bit.


def _ref_gsp_field(f, s, p):
    h, d = f.spacing, f.d
    vals = f.values
    n = vals.shape[0]
    acc = np.zeros_like(vals)
    cell = math.prod([h] * d)
    at_x = {k: slice(k, n) if k >= 0 else slice(0, n + k) for k in range(1 - n, n)}
    at_y = {k: slice(0, n - k) if k >= 0 else slice(-k, n) for k in range(1 - n, n)}
    zero = (0,) * d
    for o in itertools.product(range(1 - n, n), repeat=d):
        if o <= zero:
            continue
        w = cell / (h * math.hypot(*o)) ** (d + s * p)
        x = tuple(at_x[k] for k in o)
        y = tuple(at_y[k] for k in o)
        diff = np.abs(vals[x] - vals[y]) ** p * w
        acc[x] += diff
        acc[y] += diff
    return acc ** (1.0 / p)


def _ref_maximal_field_2d(density, R):
    h = density.spacing
    cell_mass = density.values * h**2
    out = np.zeros_like(cell_mass)
    diam_cells = int(math.ceil((density.hi - density.lo) / h * math.sqrt(2.0))) + 1
    k_max = int(min(math.floor(R / h + 1e-12), diam_cells)) if math.isfinite(R) else diam_cells
    offs = np.arange(-k_max, k_max + 1)
    oi, oj = np.meshgrid(offs, offs, indexing="ij")
    rad2 = oi**2 + oj**2
    for k in range(1, k_max + 1):
        kern = (rad2 <= k * k)[k_max - k : k_max + k + 1, k_max - k : k_max + k + 1]
        mass = fftconvolve(cell_mass, kern.astype(float), mode="same")
        np.maximum(out, np.maximum(mass, 0.0) / ball_volume(2, (k + 0.5) * h), out=out)
    return out


def _assert_close(new, ref):
    """rel 1e-12, or 1e-15 of the largest value for nodes near zero."""
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-15 * np.max(np.abs(ref)))


@pytest.mark.parametrize("s, p", [(0.5, 2.0), (0.3, 1.5), (0.8, 1.0)])
@pytest.mark.parametrize("maker", [random_density_1d, random_density_2d])
@pytest.mark.parametrize("seed", [0, 1])
def test_gsp_field_matches_offset_loop(maker, seed, s, p):
    f = maker(np.random.default_rng(seed)).density
    _assert_close(gsp_field(f, s, p).values, _ref_gsp_field(f, s, p))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximal_field_2d_matches_fftconvolve_ladder(seed):
    nu = random_density_2d(np.random.default_rng(seed))
    for R in (math.inf, 0.3, 0.5 * nu.density.spacing):
        _assert_close(maximal_field(nu, R).values, _ref_maximal_field_2d(nu.density, R))


# 2D maximal_field as it was before the interval table and the stop rule:
# one rfft of the disk mask per radius, and every radius of the ladder. The
# new field must equal it bit for bit.


def _maximal_field_2d_before(density, R):
    h = density.spacing
    cell_mass = density.values * h**2
    n = cell_mass.shape[0]
    diam_cells = int(math.ceil((density.hi - density.lo) / h * math.sqrt(2.0))) + 1
    k_max = int(min(math.floor(R / h + 1e-12), diam_cells)) if math.isfinite(R) else diam_cells
    reach = min(k_max, n - 1)
    L = mx._next_fast_len(n + reach)
    mass_hat = np.fft.rfft2(cell_mass, s=(L, L))
    idx = np.arange(L)
    off = np.where(idx <= reach, idx, idx - L).astype(float)
    off[reach + 1 : L - reach] = math.inf
    rad2 = off[: L // 2 + 1, None] ** 2 + off[None, :] ** 2
    out = np.zeros_like(cell_mass)
    scale = 1.0 / (L * L)
    for k in range(1, k_max + 1):
        top = np.fft.rfft(rad2 <= k * k, axis=1)
        kern_hat = np.fft.fft(np.concatenate([top, top[(L - 1) // 2 : 0 : -1]]), axis=0)
        rows = np.fft.ifft(mass_hat * kern_hat, axis=0, norm="forward")[:n]
        mass = np.fft.irfft(rows, n=L, axis=1, norm="forward")[:, :n] * scale
        np.maximum(out, np.maximum(mass, 0.0) / ball_volume(2, (k + 0.5) * h), out=out)
    return out


@st.composite
def densities_2d(draw):
    """2D densities on 2 to 60 cells: random masses with zero rows and
    columns, one hot cell, all mass in a corner, uniform, or all zero."""
    cells = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(["zeroed", "hot", "corner", "uniform", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = cells + 1
    values = np.zeros((n, n))
    if kind == "zeroed":
        values = rng.uniform(0.0, 2.0, (n, n))
        values[rng.random(n) < 0.3] = 0.0
        values[:, rng.random(n) < 0.3] = 0.0
    elif kind == "hot":
        values[tuple(rng.integers(0, n, 2))] = rng.uniform(0.1, 100.0)
    elif kind == "corner":
        m = int(rng.integers(1, n + 1))
        values[:m, :m] = rng.uniform(0.0, 1.0, (m, m))
    elif kind == "uniform":
        values[:] = rng.uniform(0.1, 2.0)
    return measure_from_density(
        GridField(d=2, lo=-2.0, hi=2.0, spacing=4.0 / cells, values=values))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(nu=densities_2d(), between=st.floats(0.0, 1.0))
def test_maximal_field_2d_equals_the_per_radius_loop(nu, between):
    h = nu.density.spacing
    for R in (0.5 * h, h + between * (4.0 * math.sqrt(2.0) - h), math.inf):
        new = maximal_field(nu, R).values
        ref = _maximal_field_2d_before(nu.density, R)
        assert np.array_equal(new, ref)
        assert not np.signbit(new).any()


def _count_inverse_transforms(monkeypatch):
    calls = []
    irfft = np.fft.irfft

    def counting(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    return calls


def test_maximal_field_ladder_stops_early(monkeypatch):
    calls = _count_inverse_transforms(monkeypatch)
    nu = random_density_2d(np.random.default_rng(5))
    values = maximal_field(nu).values
    k_max = math.ceil(48 * math.sqrt(2.0)) + 1  # the ladder of the 48-cell grid
    assert 0 < len(calls) < k_max
    assert np.array_equal(values, _maximal_field_2d_before(nu.density, math.inf))
    calls.clear()
    zero = GridField(d=2, lo=-2.0, hi=2.0, spacing=4.0 / 48, values=np.zeros((49, 49)))
    assert not maximal_field(measure_from_density(zero)).values.any()
    assert calls == []  # an all-zero density transforms no disk


# scipy oracles: the layer runs on numpy alone, and must give what these scipy
# calls give bit for bit


def _scipy_maximal_field_2d(density, R):
    """maximal_field's 2D ladder on scipy.fft, at scipy's fast length."""
    h = density.spacing
    cell_mass = density.values * h**2
    n = cell_mass.shape[0]
    diam_cells = int(math.ceil((density.hi - density.lo) / h * math.sqrt(2.0))) + 1
    k_max = int(min(math.floor(R / h + 1e-12), diam_cells)) if math.isfinite(R) else diam_cells
    reach = min(k_max, n - 1)
    L = sp_fft.next_fast_len(n + reach, real=True)
    mass_hat = sp_fft.rfft2(cell_mass, s=(L, L))
    idx = np.arange(L)
    off = np.where(idx <= reach, idx, idx - L).astype(float)
    off[reach + 1 : L - reach] = math.inf
    rad2 = off[:, None] ** 2 + off[None, :] ** 2
    out = np.zeros_like(cell_mass)
    for k in range(1, k_max + 1):
        # named, so the product keeps its operand order: numpy may fuse a
        # complex product's multiply-adds, and then a * b and b * a can differ
        kern_hat = sp_fft.rfft2(rad2 <= k * k)
        mass = sp_fft.irfft2(mass_hat * kern_hat, s=(L, L))[:n, :n]
        np.maximum(out, np.maximum(mass, 0.0) / ball_volume(2, (k + 0.5) * h), out=out)
    return out, L


@pytest.mark.parametrize("nu", [random_density_2d(np.random.default_rng(3)),
                                mollified_ball_gradient(1.0, -2.0, 2.0, 96)[1]],
                         ids=["random48", "ball96"])
def test_maximal_field_2d_equals_scipy_fft(nu):
    for R in (math.inf, 0.3):  # L = 100 and 54 at 48 cells, 200 and 108 at 96
        ref, L = _scipy_maximal_field_2d(nu.density, R)
        assert L & (L - 1)  # not a power of two
        assert np.array_equal(maximal_field(nu, R).values, ref)


def test_fast_length_equals_scipy():
    assert [mx._next_fast_len(t) for t in range(1, 5000)] == [
        sp_fft.next_fast_len(t, real=True) for t in range(1, 5000)]


@pytest.mark.parametrize("cells", [64, 96, 256])
@pytest.mark.parametrize("sigma", [1.0, 2.0, 2.5, 3.0])
def test_mollifier_equals_scipy_gaussian_filter(cells, sigma):
    f, _ = mollified_ball_gradient(1.0, -2.0, 2.0, cells, sigma)
    ax = -2.0 + (4.0 / cells) * np.arange(cells + 1)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    ind = (np.hypot(xx, yy) < 1.0).astype(float)
    assert np.array_equal(f.values, gaussian_filter(ind, sigma=sigma, mode="constant"))
    # an input with no symmetry, one axis at a time
    values = np.random.default_rng(cells).uniform(-1.0, 1.0, (cells + 1, cells // 2))
    for axis in (0, 1):
        assert np.array_equal(
            mx._gaussian_filter(values, sigma, axis),
            gaussian_filter(values, sigma=(sigma, 0.0)[:: 1 - 2 * axis], mode="constant"))


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_mollifier_width_must_be_positive(width):
    # scipy's filter skipped a width <= 1e-15; the numpy one would divide by it
    with pytest.raises(InvalidArgumentError, match="width_cells must be positive"):
        mollified_ball_gradient(1.0, -2.0, 2.0, 16, width)


def test_gsp_field_never_builds_the_pair_matrix():
    tent = lambda x: np.maximum(0.0, 1.0 - np.abs(x[..., 0]))
    f = GridField.from_function(tent, 1, -2.0, 2.0, 1024)
    n = f.n_nodes_per_axis
    for kernel in (gsp_field, mx._gsp_field_direct):
        tracemalloc.start()
        try:
            kernel(f, 0.5, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x n float pair matrix alone is 8.4 MB; blocks hold 2**15 pairs,
        # and the transforms a few arrays of L = 2160 entries
        assert peak < n * n * 8 // 4


# Oracles: the kernels as they were before their blocks were made cheaper. The
# library's direct G_{s,p} kernel must give what they give bit for bit, and so
# must gsp_field at p != 2, which is that kernel.


def _gsp_field_before(f, s, p):
    """gsp_field with one broadcast subtract per pair block, and |.| at every p."""
    h, d = f.spacing, f.d
    vals = f.values.reshape(-1, f.values.shape[-1])
    rows, n = vals.shape
    acc = np.zeros_like(vals)
    lead, last = np.ogrid[:rows, 1 - n : n]
    with np.errstate(divide="ignore"):
        weights = h**d / (h * np.hypot(lead, last)) ** (d + s * p)
    weights[0, :n] = 0.0
    toeplitz = sliding_window_view(weights[:, ::-1], n, axis=1)[:, ::-1]
    cols = min(n, max(1, mx.KERNEL_ELEMENTS // n))
    block_rows = max(1, mx.KERNEL_ELEMENTS // (cols * n))
    buf = np.empty(block_rows * cols * n)
    ones = np.ones(n)
    for o1 in range(rows):
        for j0 in range(0, n, cols):
            j1 = min(n, j0 + cols)
            width = j1 if o1 == 0 else n
            w = np.ascontiguousarray(toeplitz[o1, j0:j1, :width])
            for r0 in range(o1, rows, block_rows):
                r1 = min(rows, r0 + block_rows)
                pair = buf[: (r1 - r0) * (j1 - j0) * width].reshape(r1 - r0, j1 - j0, width)
                np.subtract(vals[r0:r1, j0:j1, None], vals[r0 - o1 : r1 - o1, None, :width],
                            out=pair)
                np.abs(pair, out=pair)
                pair **= p
                pair *= w
                acc[r0:r1, j0:j1] += pair @ ones[:width]
                acc[r0 - o1 : r1 - o1, :width] += ones[: j1 - j0] @ pair
    return (acc ** (1.0 / p)).reshape(f.values.shape)


def _grids_for_gsp():
    rng = np.random.default_rng(19)
    # 1D: 300 nodes make 109-column blocks; 2D: 33 x 33 nodes make 30-row blocks
    for d, nodes in ((1, 300), (2, 33)):
        shape = (nodes,) * d
        yield GridField(d=d, lo=-1.0, hi=1.0, spacing=2.0 / (nodes - 1),
                        values=rng.uniform(-1.0, 1.0, shape))
        yield GridField(d=d, lo=-1.0, hi=1.0, spacing=2.0 / (nodes - 1),
                        values=np.full(shape, 0.75))
    yield random_density_2d(rng).density


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_gsp_field_equals_the_broadcast_subtract_blocks(p):
    for f in _grids_for_gsp():
        for s in (0.3, 0.5):
            before = _gsp_field_before(f, s, p)
            assert np.array_equal(mx._gsp_field_direct(f, s, p).values, before)
            if p != 2.0:
                assert np.array_equal(gsp_field(f, s, p).values, before)


@st.composite
def piecewise_constant_grids(draw):
    """Grids whose rows are constant (equal or not, +-0.0 mixed) or not; some
    are constant throughout, and 1D grids are one row."""
    d = draw(st.sampled_from([1, 2]))
    nodes = draw(st.integers(2, 33))
    level = st.sampled_from([0.0, -0.0, 0.75, -1.5, 2.0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 4)) == 0:
        values = np.full((nodes,) * d, draw(level))
    else:
        values = np.empty((nodes,) * (d - 1) + (nodes,))
        for row in values.reshape(-1, nodes):
            kind = draw(st.sampled_from(["constant", "zeros", "varied"]))
            if kind == "constant":
                row[:] = draw(level)
            elif kind == "zeros":  # -0.0 beside +0.0: a constant row by ==
                row[:] = np.where(rng.random(nodes) < 0.5, -0.0, 0.0)
            else:
                row[:] = rng.choice([0.0, 0.75, -1.5, rng.uniform(-1.0, 1.0)], nodes)
    return GridField(d=d, lo=-1.0, hi=1.0, spacing=2.0 / (nodes - 1), values=values)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(f=piecewise_constant_grids(), s=st.sampled_from([0.3, 0.5]),
       kernel=st.sampled_from([64, 256, 1 << 15]), pairs=st.sampled_from([1, 500, 1 << 17]),
       run=st.sampled_from([0, 1 << 13]))
def test_gsp_field_on_constant_rows_equals_the_broadcast_subtract_blocks(f, s, kernel, pairs,
                                                                          run):
    # small KERNEL_ELEMENTS cut 33 x 33 grids into several column blocks, small
    # GSP_BLOCK_PAIRS cut each run of row pairs into several row blocks, and
    # GSP_RUN_PAIRS = 0 keeps every run in its own form, however short
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mx, "KERNEL_ELEMENTS", kernel)
        mp.setattr(mx, "GSP_BLOCK_PAIRS", pairs)
        mp.setattr(mx, "GSP_RUN_PAIRS", run)
        for p in (1.0, 1.5, 2.0, 3.0):
            new = mx._gsp_field_direct(f, s, p).values
            assert np.array_equal(new, _gsp_field_before(f, s, p))
            assert not np.signbit(new).any()


def test_gsp_row_pair_runs_fold_short_runs_into_one_full_run(monkeypatch):
    # zero rows between varied ones: each offset alternates forms pair by pair
    vals = np.zeros((8, 4))
    vals[1::2] = np.arange(4.0)
    F, X, Y = mx._FULL, mx._X_CONST, mx._Y_CONST
    runs = mx._row_pair_runs(vals, skip=True)
    assert runs[0] == [(0, 8, F)] and runs[1] == [(0, 7, F)]
    assert runs[7] == [(0, 1, Y)]  # one run is never folded
    monkeypatch.setattr(mx, "GSP_RUN_PAIRS", 0)
    runs = mx._row_pair_runs(vals, skip=True)
    assert runs[0] == [(1, 2, F), (3, 4, F), (5, 6, F), (7, 8, F)]  # equal zero rows skipped
    assert runs[1] == [(a, a + 1, Y if a % 2 == 0 else X) for a in range(7)]
    assert mx._row_pair_runs(np.zeros((8, 4)), skip=True) == [[]] * 8


def test_gsp_field_makes_no_pair_block_for_equal_constant_rows(monkeypatch):
    calls = collections.Counter()
    for name in ("copyto", "subtract", "multiply"):
        def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    for d in (1, 2):
        for level in (0.0, -0.0, 0.75):
            f = GridField(d=d, lo=-1.0, hi=1.0, spacing=1.0 / 16, values=np.full((33,) * d, level))
            assert np.array_equal(mx._gsp_field_direct(f, 0.5, 2.0).values, np.zeros((33,) * d))
    assert not calls
    half = GridField(d=2, lo=-1.0, hi=1.0, spacing=1.0 / 16,
                     values=np.repeat([[0.0], [1.0]], [16, 17], axis=0) * np.ones(33))
    mx._gsp_field_direct(half, 0.5, 2.0)
    assert calls["multiply"] > 0  # pairs of unequal rows make blocks


def test_gsp_field_takes_no_row_of_infinities_for_constant():
    # infinities set past the grid's own check; inf - inf is nan, not a skipped +0.0
    f = GridField.from_function(lambda x: np.zeros(len(x)), 2, -1.0, 1.0, 8)
    f.values = np.full_like(f.values, np.inf)
    for kernel in (gsp_field, mx._gsp_field_direct):
        with pytest.raises(InvalidArgumentError, match="finite"), np.errstate(invalid="ignore"):
            kernel(f, 0.5, 2.0)


# G_{s,2} by FFT correlations: the direct kernel's values to rounding


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(f=piecewise_constant_grids(), s=st.sampled_from([0.3, 0.5]))
def test_gsp_field_fft_matches_the_direct_kernel_on_constant_rows(f, s):
    new = gsp_field(f, s, 2.0).values
    _assert_close(new, _ref_gsp_field(f, s, 2.0))
    _assert_close(new, mx._gsp_field_direct(f, s, 2.0).values)
    assert not np.signbit(new).any()


def test_gsp_field_fft_matches_the_direct_kernel_on_the_mollified_ball():
    f, _ = mollified_ball_gradient(1.0, -2.0, 2.0, 96)
    new = gsp_field(f, 0.5, 2.0).values
    _assert_close(new, _ref_gsp_field(f, 0.5, 2.0))
    _assert_close(new, mx._gsp_field_direct(f, 0.5, 2.0).values)


def test_gsp_field_fft_gives_plus_zero_on_constant_grids(monkeypatch):
    monkeypatch.setattr(mx, "_gsp_field_direct", None)  # p = 2 takes the transforms
    for d in (1, 2):
        for level in (0.0, -0.0, 0.75, -1.5, 1e300):
            f = GridField(d=d, lo=-1.0, hi=1.0, spacing=1.0 / 16, values=np.full((33,) * d, level))
            for s in (0.3, 0.5):
                g = gsp_field(f, s, 2.0).values
                assert not g.any() and not np.signbit(g).any()


def test_gsp_field_with_infinite_weights_takes_the_direct_kernel(monkeypatch):
    calls = []
    direct = mx._gsp_field_direct

    def counted(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(mx, "_gsp_field_fft", None)
    monkeypatch.setattr(mx, "_gsp_field_direct", counted)
    # a subnormal spacing: (h |o|)^2 underflows to 0, so every weight is inf,
    # and inf times the differences gives no finite value on either kernel
    f = GridField(d=1, lo=0.0, hi=4e-310, spacing=1e-310, values=[0.0, 1.0, 0.0, 2.0, 0.0])
    with pytest.raises(InvalidArgumentError, match="finite"), np.errstate(all="ignore"):
        gsp_field(f, 0.5, 2.0)
    assert len(calls) == 1


def test_gsp_field_fft_refuses_an_infinite_value(monkeypatch):
    monkeypatch.setattr(mx, "_gsp_field_direct", None)  # p = 2 takes the transforms
    f = GridField.from_function(lambda x: np.exp(-np.sum(x**2, axis=-1)), 2, -1.0, 1.0, 8)
    f.values[3, 5] = np.inf  # past the grid's own check
    with pytest.raises(InvalidArgumentError, match="finite"), np.errstate(invalid="ignore"):
        gsp_field(f, 0.5, 2.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_gsp_field_takes_differences_whose_powers_overflow(p):
    # 1e200 ** p overflows, but G is finite: 1e200 times G of the unit bump
    def bump(top):
        return GridField(d=1, lo=0.0, hi=1.0, spacing=0.25, values=[0.0, 0.0, top, 0.0, 0.0])

    for name in ("gsp_field", "_gsp_field_direct"):
        kernel = getattr(mx, name)
        np.testing.assert_allclose(kernel(bump(1e200), 0.5, p).values,
                                   1e200 * kernel(bump(1.0), 0.5, p).values, rtol=1e-13)


def test_from_function_checks_the_values_of_fn():
    def half_infinite(x):
        return np.where(x[..., 0] > 0.5, np.inf, 0.0)

    with pytest.raises(InvalidArgumentError, match="finite"):
        GridField.from_function(half_infinite, 2, -1.0, 1.0, 8)
    with pytest.raises(InvalidArgumentError, match="shape"):
        GridField.from_function(lambda x: np.zeros(len(x) - 1), 2, -1.0, 1.0, 8)


def _superlevel_before(measure, lam):
    """superlevel_measure_atomic with its candidate intervals from a double loop."""
    order = np.argsort(measure.atoms[:, 0])
    a = measure.atoms[:, 0][order]
    m = measure.masses[order]
    prefix = np.concatenate([[0.0], np.cumsum(m)])
    intervals = []
    for i in range(a.size):
        for j in range(i, a.size):
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


def test_superlevel_equals_the_double_loop():
    rng = np.random.default_rng(23)
    measures = [random_atomic_measure(rng) for _ in range(6)]
    # duplicate atoms, equal masses and equal gaps give equal intervals
    measures.append(measure_from_atoms([[0.0], [0.0], [1.0], [2.0], [2.0], [3.0]],
                                       [0.5, 0.5, 1.0, 0.5, 0.5, 1.0]))
    measures.append(measure_from_atoms([[1.5], [1.5], [1.5]], [1.0, 1.0, 1.0]))
    for nu in measures:
        for lam in np.geomspace(0.01, 50.0, 9):
            assert superlevel_measure_atomic(nu, lam) == _superlevel_before(nu, lam)


def _union_loop(left, right):
    """The interval union as a merge loop over the intervals sorted by left,
    then by right."""
    order = np.lexsort((right, left))
    intervals = zip(left[order].tolist(), right[order].tolist())
    total = 0.0
    cur_l, cur_r = next(intervals)
    for left, right in intervals:
        if left > cur_r:
            total += cur_r - cur_l
            cur_l, cur_r = left, right
        else:
            cur_r = max(cur_r, right)
    total += cur_r - cur_l
    return total


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 30)), min_size=1, max_size=60),
       st.floats(0.001, 10.0))
def test_union_length_equals_the_merge_loop(spans, scale):
    # integer ends nest, touch (left == the running right end) and part often
    left = np.array([a for a, _ in spans], dtype=float)
    right = left + np.array([w for _, w in spans], dtype=float)
    for lo, hi in ((left, right), (left * scale, right * scale + 1e-3)):
        assert mx._union_length(lo, hi) == _union_loop(lo, hi)


def test_union_length_joins_touching_and_nested_intervals():
    left = np.array([0.0, 1.0, 0.5, 5.0, 2.0, 7.5])
    right = np.array([1.0, 2.0, 0.75, 6.0, 3.0, 8.0])
    # [0, 2] touches [2, 3]; [0.5, 0.75] nests in [0, 1]; [5, 6] and [7.5, 8] part
    assert mx._union_length(left, right) == _union_loop(left, right) == 4.5
    # touching intervals join: (1.985 - 0.908) + (4.046 - 1.985) rounds above
    # 4.046 - 0.908, so splitting them would change the sum
    left, right = np.array([0.908, 1.985]), np.array([1.985, 4.046])
    assert (1.985 - 0.908) + (4.046 - 1.985) != 4.046 - 0.908
    assert mx._union_length(left, right) == _union_loop(left, right) == 4.046 - 0.908
    assert mx._union_length(np.zeros(0), np.zeros(0)) == 0.0


def _atomic_maximal_before(measure, xs, R):
    """_atomic_maximal with np.linalg.norm and a division under errstate."""
    atoms, masses = measure.atoms, measure.masses
    out = np.empty(len(xs))
    rows = max(1, mx.KERNEL_ELEMENTS // atoms.shape[0])
    for i in range(0, len(xs), rows):
        dist = np.linalg.norm(atoms - xs[i : i + rows, None, :], axis=2)
        cum = np.cumsum(masses[np.argsort(dist, axis=1)], axis=1)
        dist.sort(axis=1)
        with np.errstate(divide="ignore"):
            ratios = cum / ball_volume(measure.d, dist)
        block = np.where(dist <= R[i : i + rows, None], ratios, 0.0).max(axis=1)
        block[dist[:, 0] == 0.0] = math.inf
        out[i : i + rows] = block
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_atomic_maximal_equals_the_norm_and_errstate_kernel(d):
    rng = np.random.default_rng(29 + d)
    for _ in range(4):
        k = int(rng.integers(1, 30))
        nu = measure_from_atoms(rng.uniform(-5.0, 5.0, (k, d)), rng.uniform(0.1, 2.0, k))
        # random points, the atoms, and points 1e-3 and 1e-170 off them: in 2D
        # the volume at 1e-170 underflows to 0, so the ratio there is inf
        xs = np.concatenate([rng.uniform(-6.0, 6.0, (50, d)), nu.atoms,
                             nu.atoms + 1e-3, nu.atoms + 1e-170])
        for R in (np.full(len(xs), math.inf), rng.uniform(1e-180, 3.0, len(xs)),
                  np.full(len(xs), 1e-175)):
            ref = _atomic_maximal_before(nu, xs, R)
            assert np.array_equal(mx._atomic_maximal(nu, xs, R), ref)
            assert np.array_equal(maximal_at(nu, xs, R), ref)
            assert [maximal_at(nu, x, r) for x, r in zip(xs, R)] == ref.tolist()


# The 1D and atomic kernels as they were before node points of exact grids
# read the prefix by index and the atomic kernel lost its per-call overhead;
# the kernels must reproduce them bit for bit.


def _density_maximal_1d_interp(density, xs, R):
    h = density.spacing
    bounds = density.lo - 0.5 * h + h * np.arange(density.n_nodes_per_axis + 1)
    prefix = np.concatenate([[0.0], np.cumsum(density.values * h)])
    R = np.broadcast_to(R, xs.shape)
    out = np.empty(xs.size)
    rows = max(1, mx.KERNEL_ELEMENTS // bounds.size)
    for i in range(0, xs.size, rows):
        x = xs[i : i + rows, None]
        s = np.minimum(np.abs(x - bounds), R[i : i + rows, None])
        mass = np.interp(x + s, bounds, prefix) - np.interp(x - s, bounds, prefix)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[i : i + rows] = np.where(s > 0, mass / (2.0 * s), 0.0).max(axis=1)
    return out


def _atomic_maximal_where(measure, xs, R):
    atoms, masses = measure.atoms, measure.masses
    out = np.empty(len(xs))
    rows = max(1, mx.KERNEL_ELEMENTS // atoms.shape[0])
    for i in range(0, len(xs), rows):
        sq = atoms - xs[i : i + rows, None, :]
        sq *= sq
        dist = np.sqrt(np.add.reduce(sq, axis=2))
        cum = masses[dist.argsort(axis=1)].cumsum(axis=1)
        dist.sort(axis=1)
        vol = ball_volume(measure.d, dist)
        ratios = np.divide(cum, vol, out=np.full_like(cum, math.inf), where=vol > 0.0)
        out[i : i + rows] = np.where(dist <= R[i : i + rows, None], ratios, 0.0).max(axis=1)
    return out


@st.composite
def grids_1d(draw):
    """1D densities on 1 to 600 nodes: spacing 2^-k or 3 2^-k with lo a
    multiple of h / 2 (an exact grid), or h = 0.01 and lo = -3 (not exact);
    all zero, one hot node, or steps."""
    kind = draw(st.sampled_from(["dyadic", "triadic", "decimal", "shifted"]))
    cells = draw(st.integers(0, 599))
    if kind == "decimal":
        h, lo = 0.01, -3.0
    else:
        h = (3.0 if kind == "triadic" else 1.0) * 2.0 ** -draw(st.integers(0, 12))
        lo = 0.5 * h * draw(st.integers(-3000, 3000))
        if kind == "shifted":  # lo is no multiple of h / 2
            lo += 0.1
    hi = lo + h * (cells if cells else 0.25)  # one node when the box is below h / 2
    n = cells + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(n)
    fill = draw(st.sampled_from(["zero", "hot", "steps"]))
    if fill == "hot":
        values[draw(st.sampled_from([0, n - 1, int(rng.integers(0, n))]))] = rng.uniform(0.1, 9.0)
    elif fill == "steps":
        levels = rng.uniform(0.0, 1.0, int(rng.integers(1, 17)))
        values = np.repeat(levels, n // levels.size + 1)[:n]
        values[rng.random(n) < 0.1] = 0.0
    return GridField(d=1, lo=lo, hi=hi, spacing=h, values=values), kind in ("dyadic", "triadic")


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(grid=grids_1d(), seed=st.integers(0, 2**32 - 1))
def test_density_maximal_1d_equals_the_interp_kernel(grid, seed):
    density, exact = grid
    rng = np.random.default_rng(seed)
    h, n = density.spacing, density.n_nodes_per_axis
    nodes = density.axis_nodes()
    width = density.hi - density.lo
    # the first, last and interior nodes; off-node points, the bounds among them
    xs = np.concatenate([nodes[[0, -1]], nodes[rng.integers(0, n, 40)],
                         rng.uniform(density.lo - h, density.hi + h, 12),
                         nodes[:3] + 0.5 * h])
    if exact:  # the nodes read the prefix by index
        assert (mx._node_index(density, xs)[:42] >= 0).all()
    else:  # every point takes the interpolation
        assert (mx._node_index(density, xs) == -1).all()
    choices = np.array([0.25 * h, h + rng.uniform() * (width + h), math.inf])
    for R in [*choices, choices[rng.integers(0, 3, xs.size)],
              rng.uniform(0.1 * h, 2.0 * width + h, xs.size)]:
        ref = _density_maximal_1d_interp(density, xs, R)
        assert np.array_equal(mx._density_maximal_1d(density, xs, R), ref)
        if density.values.any():
            assert np.array_equal(maximal_at(measure_from_density(density), xs[:, None], R), ref)
    if density.values.any():
        ref = _density_maximal_1d_interp(density, nodes, math.inf)
        assert np.array_equal(maximal_field(measure_from_density(density)).values, ref)


@pytest.mark.parametrize("lo, hi, h", [
    (0.1, 4.1, 0.25),  # lo is no multiple of h / 2
    (2.0**52, 2.0**52 + 4.0, 1.0),  # m (|a| + 4 N + 4) reaches 2^53
    (0.0, 6e-323, 1.5e-323),  # h / 2 rounds: h is subnormal with an odd last bit
    (-(2.0**1020), 3 * 2.0**1020, 2.0**1021),  # the largest multiple of h / 2 overflows
])
def test_grids_that_are_not_exact_take_the_interpolation(lo, hi, h):
    density = GridField(d=1, lo=lo, hi=hi, spacing=h, values=np.ones(round((hi - lo) / h) + 1))
    assert (mx._node_index(density, density.axis_nodes()) == -1).all()


def test_node_rows_mask_the_offsets_beyond_their_own_bound():
    # one block holds an edge node whose bound stops short of the mass at the
    # other end, next to nodes that reach every offset: its row must not
    # count the offsets past its bound
    values = np.zeros(65)
    values[0] = 1.0
    density = GridField(d=1, lo=0.0, hi=1.0, spacing=1 / 64, values=values)
    xs = density.axis_nodes()[[64, 32, 0]]
    R = np.array([0.75, math.inf, math.inf])
    out = mx._density_maximal_1d(density, xs, R)
    assert np.array_equal(out, _density_maximal_1d_interp(density, xs, R))
    assert out[0] == 0.0


def _count_interp_calls(monkeypatch):
    """Wrap np.interp; returns the sizes of the arrays it was asked for."""
    calls = []
    interp = np.interp

    def counting(x, xp, fp):
        calls.append(np.size(x))
        return interp(x, xp, fp)

    monkeypatch.setattr(np, "interp", counting)
    return calls


def test_node_points_of_an_exact_grid_read_the_prefix_by_index(monkeypatch):
    calls = _count_interp_calls(monkeypatch)
    nu = random_density_1d(np.random.default_rng(4))  # h = 3 2^-7, lo = -3: exact
    nodes = nu.density.axis_nodes()
    assert (mx._node_index(nu.density, nodes) == np.arange(nodes.size)).all()
    maximal_at(nu, nodes[:, None])
    maximal_field(nu)
    maximal_at(nu, nodes[:, None], np.full(nodes.size, 100.0))
    assert calls == []  # no bound lies beyond R
    maximal_at(nu, nodes[:, None], 0.5)  # every node has bounds beyond 0.5
    assert calls == [nodes.size, nodes.size]  # one pair, for s = R
    calls.clear()
    maximal_at(nu, [0.01])  # off the nodes: every bound is interpolated
    assert calls == [nodes.size + 1, nodes.size + 1]
    calls.clear()
    # the node of a one-point call reads the prefix by index too, to the same value
    assert maximal_at(nu, nodes[7]) == maximal_at(nu, nodes[:, None])[7]
    assert calls == []
    decimal = GridField(d=1, lo=-3.0, hi=3.0, spacing=0.01, values=np.ones(601))
    assert (mx._node_index(decimal, decimal.axis_nodes()) == -1).all()
    maximal_field(measure_from_density(decimal))
    rows = mx.KERNEL_ELEMENTS // 602  # points per block of the interpolation
    assert calls == [rows * 602] * (2 * (601 // rows)) + [601 % rows * 602] * 2


@st.composite
def atomic_cases(draw):
    """Atoms in d = 1 or 2, some as mirror pairs about a point (distance
    ties), and points: random, on the atoms, at the mirror centre."""
    d = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.uniform(-5.0, 5.0, (draw(st.integers(1, 30)), d))
    centre = rng.uniform(-1.0, 1.0, (1, d))
    if draw(st.booleans()):
        atoms = np.concatenate([centre + atoms, centre - atoms])
    nu = measure_from_atoms(atoms, rng.uniform(0.1, 2.0, len(atoms)))
    xs = np.concatenate([rng.uniform(-6.0, 6.0, (20, d)), atoms, centre])
    return nu, xs, rng


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=atomic_cases())
def test_atomic_maximal_equals_the_where_kernel(case):
    nu, xs, rng = case
    nearest = np.sqrt(((nu.atoms - xs[:, None, :]) ** 2).sum(axis=2)).min(axis=1)
    # R = inf, one bound per point, a bound below each point's nearest atom and
    # one equal to that distance (closed balls: the atom counts)
    for R in (np.full(len(xs), math.inf), rng.uniform(0.01, 8.0, len(xs)), 0.5 * nearest,
              nearest):
        R = np.where(R > 0.0, R, 1.0)  # points on atoms keep a positive bound
        ref = _atomic_maximal_where(nu, xs, R)
        assert np.array_equal(mx._atomic_maximal(nu, xs, R), ref)
        assert np.array_equal(maximal_at(nu, xs, R), ref)
        assert [maximal_at(nu, x, r) for x, r in zip(xs[::7], R[::7])] == ref[::7].tolist()
    below = (nearest > 0.0) & (0.5 * nearest < 1.0)
    assert (maximal_at(nu, xs, np.where(below, 0.5 * nearest, 1.0))[below] == 0.0).all()
    assert (maximal_at(nu, nu.atoms) == math.inf).all()


def test_one_point_calls_validate_as_batches():
    nu = random_atomic_measure(np.random.default_rng(9))
    x = [0.25]
    assert maximal_at(nu, x) == maximal_at(nu, np.array([x]))[0]
    two = maximal_at(nu, x, 2)
    assert two == maximal_at(nu, x, np.float64(2.0)) == maximal_at(nu, x, np.array(2.0))
    assert maximal_at(nu, 0.25) == maximal_at(nu, x)  # a scalar is a point in d = 1
    for bad in (0, -1.0, math.nan, np.float64(-2.0)):
        with pytest.raises(InvalidArgumentError, match="radius bound must be positive"):
            maximal_at(nu, x, bad)
    with pytest.raises(InvalidArgumentError, match="finite"):
        maximal_at(nu, [math.inf])
    with pytest.raises(InvalidArgumentError, match="shape"):
        maximal_at(nu, [0.1, 0.2])


# 2D ladders of points far from the mass: they start at the nearest held bin


def test_a_far_point_holds_no_ladder_as_long_as_its_distance():
    nu = random_density_2d(np.random.default_rng(8))
    tracemalloc.start()
    try:
        value = maximal_at(nu, [1e5, 0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value and peak < 1 << 20  # a ladder from the origin holds 1.2e6 radii
    assert maximal_at(nu, [1e3, 0.0]) == _ref_maximal_at(nu, [1e3, 0.0])
    assert 0.0 < maximal_at(nu, [1e17, 0.0]) < math.inf


def test_a_batch_with_far_points_equals_the_reference():
    rng = np.random.default_rng(12)
    hot = np.zeros((49, 49))
    hot[40, 7] = 3.0  # the nearest and the farthest held node are one node
    one = measure_from_density(GridField(d=2, lo=-2.0, hi=2.0, spacing=4.0 / 48, values=hot))
    hot = np.zeros((49, 49))
    hot[0, 0] = 3.0  # at (-2, -2): 15.56 from (9, 9), beyond the box diagonal + max |x|
    corner = measure_from_density(GridField(d=2, lo=-2.0, hi=2.0, spacing=4.0 / 48,
                                            values=hot))
    assert maximal_at(corner, [9.0, 9.0]) == maximal_at(corner, [9.0, 9.0], 16.0) > 0.0
    for nu in (random_density_2d(rng), dyadic_ball_2d(rng), one, corner):
        nodes = nu.density.node_coords()
        # the far points set every point's ladder top by their distance
        xs = np.concatenate([nodes[rng.integers(0, len(nodes), 20)],
                             rng.uniform(-3.0, 3.0, (10, 2)),
                             [[1e3, 0.0], [0.0, -1.5e3], [40.0, 40.0], [9.0, 9.0]]])
        for R in (np.full(len(xs), math.inf), rng.uniform(0.01, 3.0, len(xs)),
                  np.full(len(xs), 1e3), np.full(len(xs), 16.0)):
            ref = [_ref_maximal_at(nu, x, r) for x, r in zip(xs, R)]
            assert maximal_at(nu, xs, R).tolist() == ref


@st.composite
def densities_2d(draw):
    """2D densities on 2 to 24 cells per axis: spacing 2^-k, 3 2^-k, 0.1 or
    1/12, with lo on the lattice of h / 2 or off it; masses with zero rows and
    columns, in one hot cell (a corner among them), uniform, or sparse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = draw(st.sampled_from([2.0**-1, 2.0**-3, 3 * 2.0**-2, 3 * 2.0**-4, 0.1, 1 / 12]))
    lo = 0.5 * h * draw(st.integers(-40, 10))
    if draw(st.booleans()):  # off the lattice
        lo += 0.1
    cells = draw(st.integers(2, 24))
    n = cells + 1
    fill = draw(st.sampled_from(["zero-edges", "hot", "corner", "uniform", "sparse"]))
    values = np.zeros((n, n)) if fill in ("hot", "corner") else np.ones((n, n))
    if fill == "zero-edges":
        values = rng.uniform(0.0, 2.0, (n, n))
        values[: rng.integers(0, n)] = values[:, rng.integers(1, n + 1) :] = 0.0
    elif fill in ("hot", "corner"):
        at = rng.integers(0, n, 2) if fill == "hot" else rng.choice([0, n - 1], 2)
        values[tuple(at)] = rng.uniform(0.1, 9.0)
    elif fill == "sparse":
        values = np.where(rng.random((n, n)) < 0.1, rng.uniform(0.0, 2.0, (n, n)), 0.0)
    return GridField(d=2, lo=lo, hi=lo + cells * h, spacing=h, values=values), rng


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=densities_2d())
def test_density_maximal_2d_equals_the_reference(case):
    density, rng = case
    nu = measure_from_density(density)
    h, width = density.spacing, density.hi - density.lo
    nodes = density.node_coords()
    # nodes, off-node points, points outside the box and one at about 1e5
    xs = np.concatenate([nodes[rng.integers(0, len(nodes), 12)],
                         rng.uniform(density.lo, density.hi, (8, 2)),
                         density.lo + rng.uniform(-2.0, 3.0, (6, 2)) * width,
                         [[1e5 * (1.0 + rng.uniform()), density.lo]]])
    k = int(rng.integers(1, 3 * (len(density.values) - 1)))
    for R in (math.inf, 0.5 * h, k * h, float(rng.uniform(0.1, 2.0) * width),
              rng.uniform(0.1 * h, 2.0 * width, len(xs))):
        ref = [_ref_maximal_at(nu, x, r) for x, r in zip(xs, np.broadcast_to(R, len(xs)))]
        assert maximal_at(nu, xs, R).tolist() == ref
        assert [maximal_at(nu, x, r) for x, r in zip(xs, np.broadcast_to(R, len(xs)))] == ref


def _far_reference(density, x, R):
    """_ref_maximal_at in 2D for ladders too long for its arrays: the ratio
    falls between the bins that hold nodes, so the maximum is read at those
    bins only, with each bin's mass summed in node order, as np.bincount sums."""
    h = density.spacing
    dist = np.linalg.norm(density.node_coords() - x, axis=1)
    bins = np.ceil(dist / h - 1e-12)
    keep = bins <= np.floor(R / h + 1e-12)
    used, where = np.unique(bins[keep], return_inverse=True)
    if not used.size:
        return 0.0
    cum = np.cumsum(np.bincount(where, weights=density.values.ravel()[keep] * h**2))
    k = np.maximum(used, 1.0)
    return float(np.max(cum / ball_volume(2, (k + 0.5) * h)))


def test_a_window_holds_every_node_where_its_search_bounds_round():
    # at |x| ~ R ~ 1e16 a unit in the last place of x - R exceeds h, so the
    # rounded search bounds alone would cut nodes within radius R out
    nu = random_density_2d(np.random.default_rng(0))
    for x, R in (([3.0, 0.0], math.inf), ([0.1, 9.0], 16.0), ([-1.0, 0.5], 0.7)):
        assert _far_reference(nu.density, x, R) == _ref_maximal_at(nu, x, R)
    for s in (1e14, 3e15, 1e16, 1e17):
        xs = np.array([[s, 0.0], [0.0, -s]])
        for R in s * np.linspace(1.0 - 1e-5, 1.0 + 1e-5, 11):
            ref = [_far_reference(nu.density, x, R) for x in xs]
            assert maximal_at(nu, xs, R).tolist() == ref


# ---------------------------------------------------------------------------
# Pointwise checks
# ---------------------------------------------------------------------------


def test_pointwise_check_one_maximal_at_call_equals_two(monkeypatch):
    """Both ends of the pairs go through one maximal_at call; split into one
    call per end, as before, every report is the same."""
    tent = lambda x: np.maximum(0.0, 1.0 - np.abs(x[..., 0]))  # noqa: E731
    f_tent = GridField.from_function(tent, 1, -2.0, 2.0, 256)
    f_ball, grad_ball = mollified_ball_gradient(1.0, -2.0, 2.0, 64)  # dyadic: one table
    nu_2d = random_density_2d(np.random.default_rng(31))
    f_2d = GridField.from_function(lambda x: x[..., 0] * x[..., 1], 2, -2.0, 2.0, 48)
    heavi, atom = _heaviside_setup()

    def cross(rng, count):
        return -rng.uniform(0.01, 3.0, (count, 1)), rng.uniform(0.01, 3.0, (count, 1))

    def checks():
        return [
            pointwise_check(f_ball, grad_ball, 300, mode="bv", seed=1),
            pointwise_check(f_2d, nu_2d, 300, mode="bv", seed=2),
            pointwise_check(f_tent, gsp_field(f_tent, 0.5, 2.0), 500, mode="fractional",
                            s=0.5, seed=3),
            pointwise_check(heavi, atom, 500, mode="bv", seed=4, pair_sampler=cross),
        ]

    calls = []
    whole = mx.maximal_at

    def counted(measure, x, R=math.inf):
        calls.append(len(x))
        return whole(measure, x, R)

    monkeypatch.setattr(mx, "maximal_at", counted)
    one = checks()
    assert len(calls) == 4

    def per_end(measure, x, R=math.inf):
        half = len(x) // 2
        return np.concatenate([whole(measure, x[:half], R[:half]),
                               whole(measure, x[half:], R[half:])])

    monkeypatch.setattr(mx, "maximal_at", per_end)
    assert one == checks()



def _heaviside_setup():
    f = GridField.from_function(lambda x: (x[..., 0] >= 0).astype(float),
                                1, -3.0, 3.0, 300)
    return f, measure_from_atoms([[0.0]], [1.0])


def test_pointwise_heaviside_bound():
    f, df = _heaviside_setup()

    def cross(rng, count):
        return (-rng.uniform(0.01, 3.0, (count, 1)), rng.uniform(0.01, 3.0, (count, 1)))

    rep = pointwise_check(f, df, 2000, mode="bv", seed=3, pair_sampler=cross)
    assert rep.violations == 0
    assert rep.k0 <= 0.5 + 1e-12
    # AM-GM oracle: 2|x|y / (|x|+y)^2 maximized at |x| = y
    assert rep.k0 == pytest.approx(0.5, abs=0.05)


def test_pointwise_same_side_skipped():
    f, df = _heaviside_setup()

    def same_side(rng, count):
        a = -rng.uniform(2.0, 3.0, (count, 1))
        return a, a - 0.05  # far from the atom: maximal windows are empty

    rep_err = None
    try:
        rep = pointwise_check(f, df, 50, mode="bv", seed=4, pair_sampler=same_side)
    except InsufficientDataError as exc:
        rep_err = exc
    assert rep_err is not None  # all pairs are 0/0 and skipped


def test_pointwise_2d_ball_stability():
    k0s = []
    for cells in (128, 256):
        f, grad = mollified_ball_gradient(1.0, -2.0, 2.0, cells)
        rep = pointwise_check(f, grad, 300, mode="bv", seed=5 + cells)
        assert rep.violations == 0
        k0s.append(rep.k0)
    assert max(k0s) / min(k0s) < 2.0


def test_pointwise_fractional_mode():
    tent = lambda x: np.maximum(0.0, 1.0 - np.abs(x[..., 0]))
    f = GridField.from_function(tent, 1, -2.0, 2.0, 256)
    g = gsp_field(f, 0.5, 2.0)
    rep = pointwise_check(f, g, 500, mode="fractional", s=0.5, seed=6)
    assert math.isfinite(rep.k0) and rep.k0 > 0
    assert rep.gamma == 0.5
    with pytest.raises(InvalidArgumentError):
        pointwise_check(f, g, 10, mode="fractional")


def test_mollified_gradient_mass_converges_to_perimeter():
    masses = []
    for cells in (128, 256):
        _, grad = mollified_ball_gradient(1.0, -2.0, 2.0, cells)
        masses.append(grad.total_mass)
    assert masses[1] == pytest.approx(2 * math.pi, rel=0.02)


def test_strong_type_boundedness_property():
    # ||Mf||_p <= A_p ||f||_p probed on grid norms; the constant is not
    # estimated sharply, only required to stay modest
    rng = np.random.default_rng(12)
    for _ in range(5):
        vals = np.repeat(rng.uniform(0.0, 1.0, 16), 17)[:257]
        f = GridField(d=1, lo=-3.0, hi=3.0, spacing=6.0 / 256, values=vals)
        nu = measure_from_density(f)
        mf = maximal_field(nu).values
        h = f.spacing
        for p in (2.0, 4.0):
            norm_f = (np.sum(f.values**p) * h) ** (1 / p)
            norm_mf = (np.sum(mf**p) * h) ** (1 / p)
            assert norm_mf <= 10.0 * norm_f


def test_orlicz_maximal_boundedness_probe():
    # modular-level probe of the Orlicz maximal estimate for x^2 log(e+x)
    phi = lambda x: x**2 * np.log(np.e + x)
    rng = np.random.default_rng(13)
    vals = np.repeat(rng.uniform(0.0, 1.0, 16), 17)[:257]
    f = GridField(d=1, lo=-3.0, hi=3.0, spacing=6.0 / 256, values=vals)
    mf = maximal_field(measure_from_density(f)).values
    h = f.spacing
    assert float(np.sum(phi(mf)) * h) <= 10.0 * float(np.sum(phi(f.values)) * h)


def test_weak_type_random_suite_small():
    rng = np.random.default_rng(10)
    for _ in range(10):
        k = int(rng.integers(1, 20))
        nu = measure_from_atoms(rng.uniform(-5, 5, (k, 1)), rng.uniform(0.1, 2, k))
        probes = rng.uniform(-6, 6, 100)
        lams = percentile_lambda_grid(maximal_at(nu, probes[:, None]), 8)
        assert weak_type_check(nu, lams).violations == 0
