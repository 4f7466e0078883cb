"""The three worked examples, used as golden oracles by the test suite.

1. Blurred elasticity: the linear law y = Kx with sync
   c(x, y) = K/2 ||x||^2 + ||y||^2 / (2K) - <x, y> admits every y-ball blur,
   with the closed form c_A(x, y) = ((||y - Kx|| - eps)_+)^2 / (2K).
2. A two-point law {(x1, y1), (x2, y2)}: a BB-graph whose blur stops being
   bi-convex exactly when ||y1 - y2|| <= 2 eps.
3. A cone law in R^2: phi* the indicator of F = {|y2| <= alpha y1}. For a
   probe y* on the boundary ray and eps inside the admissibility window
   the subdifferential union is two rays, which is not convex, so the blur
   admits no bipotential.

Defaults are the keyword defaults of the builders below; the two-point
law, built from grids, takes its defaults from ``bipot example two-point``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bipotentials import GraphSet
from .blur import BlurSpec
from .errors import InvalidInputError
from .extreal import INF
from .grids import Grid, SampledBivariate, SampledFunction
from .legendre import conjugate


# --- Example 1: blurred elasticity ------------------------------------------


@dataclass(frozen=True)
class ElasticityFixture:
    k: float
    eps: float
    xgrid: Grid
    ygrid: Grid

    def __post_init__(self):
        if self.k <= 0:
            raise InvalidInputError("elastic modulus K must be > 0")
        if self.eps != 0 and self.eps < max(self.ygrid.h):
            raise InvalidInputError("eps must be 0 or at least one y spacing")

    @property
    def spec(self) -> BlurSpec:
        return BlurSpec(self.eps)


def elasticity_fixture(k: float = 1.0, eps: float = 0.5, lo: float = -2.0,
                       hi: float = 2.0, n: int = 401,
                       dim: int = 1) -> ElasticityFixture:
    """1-D by default; dim=2 samples the same norm-based law on a box."""
    if dim == 1:
        g = Grid.line(lo, hi, n)
    elif dim == 2:
        g = Grid.box(lo, hi, n)
    else:
        raise InvalidInputError("dim must be 1 or 2")
    return ElasticityFixture(k, eps, g, g)


def elasticity_phi(fix: ElasticityFixture) -> SampledFunction:
    """phi(x) = (K/2) ||x||^2, whose subdifferential graph is y = Kx."""
    k = fix.k
    if fix.xgrid.dim == 1:
        return SampledFunction.from_callable(fix.xgrid, lambda x: 0.5 * k * x * x)
    return SampledFunction.from_callable(
        fix.xgrid, lambda x1, x2: 0.5 * k * (x1 * x1 + x2 * x2))


def elasticity_sync(fix: ElasticityFixture) -> SampledBivariate:
    """c(x, y) = K/2 ||x||^2 + ||y||^2/(2K) - <x, y>, zero exactly on y = Kx."""
    k = fix.k
    if fix.xgrid.dim == 1:
        fn = lambda x, y: 0.5 * k * x * x + y * y / (2.0 * k) - x * y
        return SampledBivariate.from_callable(fix.xgrid, fix.ygrid, fn)

    def fn(x1, x2, y1, y2):
        return (0.5 * k * (x1 * x1 + x2 * x2)
                + (y1 * y1 + y2 * y2) / (2.0 * k) - (x1 * y1 + x2 * y2))
    return SampledBivariate.from_callable(fix.xgrid, fix.ygrid, fn)


def elasticity_closed_form_ca(fix: ElasticityFixture) -> SampledBivariate:
    """c_A(x, y) = ((||y - Kx|| - eps)_+)^2 / (2K), the blur in closed form."""
    k, eps = fix.k, fix.eps
    if fix.xgrid.dim == 1:
        def fn(x, y):
            return np.maximum(np.abs(y - k * x) - eps, 0.0) ** 2 / (2.0 * k)
        return SampledBivariate.from_callable(fix.xgrid, fix.ygrid, fn)

    def fn(x1, x2, y1, y2):
        nrm = np.sqrt((y1 - k * x1) ** 2 + (y2 - k * x2) ** 2)
        return np.maximum(nrm - eps, 0.0) ** 2 / (2.0 * k)
    return SampledBivariate.from_callable(fix.xgrid, fix.ygrid, fn)


# --- Example 2: a two-point BB-graph ----------------------------------------


def two_point_fixture(x1: float, y1: float, x2: float, y2: float, eps: float,
                      xgrid: Grid, ygrid: Grid):
    """The two-point graph M = {(x1, y1), (x2, y2)} plus its y-ball blur.

    Points snap to nodes and must stay distinct in both coordinates;
    whether M admits the blur follows the ||y1 - y2|| <= 2 eps threshold.
    """
    if xgrid.dim != 1:
        raise InvalidInputError("the two-point fixture is one-dimensional")
    i1, i2 = xgrid.snap([x1]), xgrid.snap([x2])
    j1, j2 = ygrid.snap([y1]), ygrid.snap([y2])
    if i1 == i2 or j1 == j2:
        raise InvalidInputError(
            "the two points must differ in both coordinates after snapping")
    M = GraphSet.from_pairs(xgrid, ygrid, [(i1, j1), (i2, j2)])
    return M, BlurSpec(eps)


# --- Example 3: the cone law ------------------------------------------------


@dataclass(frozen=True)
class ConeFixture:
    """phi* = indicator of F = {(y1, y2) : |y2| <= alpha * y1}, probed at
    y* = (y1, alpha * y1) with eps inside the admissibility window

        2 alpha / sqrt(1 + alpha^2) * y1  <  eps  <  y1 * sqrt(1 + alpha^2),

    which makes the eps-ball of y* meet both boundary rays of F while
    excluding the origin."""

    alpha: float
    y1: float
    eps: float
    xgrid: Grid
    ygrid: Grid

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError("alpha must lie in (0, 1)")
        if self.y1 <= 0:
            raise InvalidInputError("y1 must be > 0")
        lo, hi = self.window
        if not lo < self.eps < hi:
            raise InvalidInputError(
                f"eps={self.eps} outside the admissibility window "
                f"({lo:.6f}, {hi:.6f})")
        if self.xgrid.dim != 2 or self.ygrid.dim != 2:
            raise InvalidInputError("the cone fixture lives in R^2")

    @property
    def window(self) -> tuple[float, float]:
        root = math.sqrt(1.0 + self.alpha * self.alpha)
        return (2.0 * self.alpha / root * self.y1, self.y1 * root)

    @property
    def y_star(self) -> tuple[float, float]:
        return (self.y1, self.alpha * self.y1)

    @property
    def spec(self) -> BlurSpec:
        return BlurSpec(self.eps)


def cone_fixture_params(alpha: float = 0.5, y1: float = 1.0, eps: float = 1.0,
                        lo: float = -2.0, hi: float = 2.0,
                        n: int = 81) -> ConeFixture:
    g = Grid.box(lo, hi, n)
    return ConeFixture(alpha, y1, eps, g, g)


@dataclass(frozen=True)
class ConeLaw:
    fixture: ConeFixture
    phistar: SampledFunction   # indicator of F on the y-grid
    phi: SampledFunction       # support function of F (cap the box) on x
    y_star_index: tuple[int, int]


def cone_fixture(fix: ConeFixture) -> ConeLaw:
    """Sample phi* = chi_F and derive phi by conjugation."""
    a = fix.alpha

    def chi(y1m, y2m):
        return np.where(np.abs(y2m) <= a * y1m, 0.0, INF)

    phistar = SampledFunction.from_callable(fix.ygrid, chi)
    phi = conjugate(phistar, fix.xgrid)
    return ConeLaw(fix, phistar, phi, fix.ygrid.snap(fix.y_star))
