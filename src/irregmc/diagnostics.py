"""Terminal-law histograms and Gaussian-envelope fits.

Histograms (not kernel estimates) keep the density estimate conservative and
bias-transparent for envelope checks; bins with fewer than 5 counts are
excluded from fitting to keep Poisson noise out of the max-ratio.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FitFailureError, InvalidArgumentError
from .randomkit import increment_batch
from .sde import SdeModel, StepCounter, path_terminals
from .sde import em_terminal_batch  # benchmarks/tracing.py rebinds it here

MIN_BIN_COUNT = 5
MIN_PATHS = 10_000  # fewest paths terminal_histogram takes
MIN_BINS = 20  # fewest bins terminal_histogram takes


@dataclass
class Histogram:
    dim: int
    edges: np.ndarray
    counts: np.ndarray
    N: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.N:
            raise InvalidArgumentError("histogram counts must sum to N")

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def density(self) -> np.ndarray:
        return self.counts / (self.N * self.widths)

    def mass(self) -> float:
        return float(np.sum(self.density * self.widths))

    def csv_rows(self) -> list[str]:
        rows = ["bin_center,density,count"]
        for c, d, k in zip(self.centers, self.density, self.counts):
            rows.append(f"{float(c)!r},{float(d)!r},{int(k)}")
        return rows


@dataclass
class GaussianEnvelope:
    C_plus: float
    c_plus: float
    residual: float
    n_bins_used: int

    def to_dict(self) -> dict:
        return asdict(self)


def gaussian_kernel(c: float, T: float, x0: float, y) -> np.ndarray:
    """Heat kernel g_{cT}(x0, y) in one dimension."""
    var = c * T
    y = np.asarray(y, dtype=float)
    # far from x0 on a tiny c T the exponent overflows to -inf: the kernel is 0
    with np.errstate(over="ignore"):
        return np.exp(-((y - x0) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _binned(values: np.ndarray, bins: int, value_range: tuple[float, float]):
    """np.histogram; a range it cannot cut into bins of finite nonzero width
    (wider than the largest float, or too narrow) is an InvalidArgumentError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the ValueError tells
            return np.histogram(values, bins=bins, range=value_range)
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot bin the range {value_range}: {exc}") from exc


def terminal_histogram(
    model: SdeModel, n: int, N: int, bins: int, seed: int,
    value_range: tuple[float, float] | None = None,
    counter: StepCounter | None = None,
) -> Histogram:
    """Histogram of the first coordinate of X^(n)(T) over N paths.

    ``sde.path_terminals`` steps the paths as ``randomkit.path_layout`` cuts
    them, so memory does not grow with n; ``counter`` counts their steps.
    With a ``value_range`` each window's terminals are binned as they come
    and the integer counts added up, so memory does not grow with N either;
    a terminal's bin does not depend on the others, so the counts are those
    of one pass over all N. With ``value_range`` None the range is the
    terminals' min and max, so all N terminals are held until it is known.
    """
    if N < MIN_PATHS:
        raise InvalidArgumentError(f"N must be >= {MIN_PATHS}")
    if bins < MIN_BINS:
        raise InvalidArgumentError(f"need at least {MIN_BINS} bins")
    windows = path_terminals(model, increment_batch, seed, n, 0, N, counter=counter)
    if value_range is None:
        samples = np.empty(N)
        for first, b, x, _ in windows:
            samples[first : first + b] = x[:, 0]
        lo, hi = float(samples.min()), float(samples.max())
        if lo == hi:
            raise InvalidArgumentError("degenerate sample range")
        counts, edges = _binned(samples, bins, (lo, hi))
    else:
        counts = 0
        for _, _, x, _ in windows:
            binned, edges = _binned(x[:, 0], bins, value_range)
            counts = counts + binned
    inside = int(counts.sum())
    if inside == 0:
        raise InvalidArgumentError("empty histogram range")
    return Histogram(dim=1, edges=edges, counts=counts, N=inside)


def fit_gaussian_envelope(
    hist: Histogram, x0: float, T: float,
    c_grid=None, min_count: int = MIN_BIN_COUNT,
) -> GaussianEnvelope:
    """Smallest C+ over the c+ grid with density <= C+ g_{c+T}(x0, center).

    Only bins with at least min_count counts participate. Enlarging the c+
    grid can only decrease the fitted C+.
    """
    if c_grid is None:
        c_grid = np.geomspace(0.5, 4.0, 41)
    use = hist.counts >= min_count
    if not np.any(use):
        raise FitFailureError(
            "no bins above the count threshold",
            diagnostics={"max_count": int(hist.counts.max())},
        )
    centers = hist.centers[use]
    dens = hist.density[use]
    best_c = None
    best_C = math.inf
    for c in np.asarray(c_grid, dtype=float):
        g = gaussian_kernel(c, T, x0, centers)
        with np.errstate(divide="ignore"):  # g = 0 gives an inf ratio: no envelope at c
            ratio = float(np.max(dens / g))
        if ratio < best_C:
            best_C, best_c = ratio, float(c)
    if not math.isfinite(best_C):
        raise FitFailureError(
            "no admissible envelope in the search box",
            diagnostics={"c_grid": list(map(float, np.asarray(c_grid)))},
        )
    slack = 1.0 - dens / (best_C * gaussian_kernel(best_c, T, x0, centers))
    return GaussianEnvelope(
        C_plus=best_C, c_plus=best_c,
        residual=float(np.mean(slack)), n_bins_used=int(np.count_nonzero(use)),
    )


def lower_bound_positive(hist: Histogram, x0: float, T: float) -> bool:
    """Qualitative lower-bound check: density positive on the central 2-sigma band."""
    centers = hist.centers
    band = np.abs(centers - x0) <= 2.0 * math.sqrt(T)
    if not np.any(band):
        return False
    return bool(np.all(hist.density[band] > 0))
