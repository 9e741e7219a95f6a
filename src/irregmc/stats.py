"""Streaming moment accumulation and log-log rate regression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .randomkit import BLOCK_PATHS


class Welford:
    """Online mean/variance of per-path values, folded block by block.

    ``update(values, first)`` takes the values of paths first, first+1, ...
    and folds them in pieces cut at multiples of ``BLOCK_PATHS``, in path
    order, with the pairwise rule of Chan, Golub & LeVeque (1979). Windows
    whose edges are block edges give the same folds however they cut the
    paths, so the moments are bit-identical.
    """

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, values, first: int) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        edges = np.arange(-first % BLOCK_PATHS, values.size, BLOCK_PATHS)
        starts = np.unique(np.r_[0, edges])
        counts = np.diff(np.r_[starts, values.size])
        means = np.add.reduceat(values, starts) / counts
        m2s = np.add.reduceat((values - np.repeat(means, counts)) ** 2, starts)
        for n_b, mean_b, m2_b in zip(counts.tolist(), means.tolist(), m2s.tolist()):
            self.update_from_moments(n_b, mean_b, m2_b)

    def update_from_moments(self, n_b: int, mean_b: float, m2_b: float) -> None:
        if n_b == 0:
            return
        if self.count == 0:
            self.count, self.mean, self._m2 = n_b, mean_b, m2_b
            return
        n_a, mean_a, m2_a = self.count, self.mean, self._m2
        n = n_a + n_b
        delta = mean_b - mean_a
        self.mean = mean_a + delta * (n_b / n)
        self._m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
        self.count = n

    @property
    def variance(self) -> float:
        """Unbiased sample variance (ddof=1); 0.0 when count < 2."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.count < 2:
            return 0.0
        return float(np.sqrt(self.variance / self.count))


@dataclass(frozen=True)
class LineFit:
    """OLS line fit y = slope*x + intercept with residual-based slope error."""

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    n_points: int


def ols_line(x, y) -> LineFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise InvalidArgumentError("need >= 2 paired points for a line fit")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise InvalidArgumentError("degenerate abscissa: all x equal")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    rss = float(np.sum(resid**2))
    tss = float(np.sum((y - ym) ** 2))
    r_squared = 1.0 if tss == 0.0 else max(0.0, min(1.0, 1.0 - rss / tss))
    if x.size > 2:
        sigma2 = rss / (x.size - 2)
        slope_stderr = float(np.sqrt(sigma2 / sxx))
    else:
        slope_stderr = 0.0
    return LineFit(slope, intercept, r_squared, slope_stderr, int(x.size))


def loglog_fit(x, y) -> LineFit:
    """OLS on (log x, log y); inputs must be strictly positive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise InvalidArgumentError("log-log fit requires positive values")
    return ols_line(np.log(x), np.log(y))
