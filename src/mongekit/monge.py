"""End-to-end check that pairwise homothety centers share a hyperplane.

Given n+1 pairwise homothetic shapes in E^n, indexed by strictly
decreasing size, each pair (i, j) with i < j has a homothety with ratio
above 1 taking shape j to shape i.  MongeConfig.build finds that order:
it detects the homothety from the first input shape to each other one,
whatever its ratio, and sorts by those ratios, largest first (index 1 is
the largest shape).  run_monge detects the n homotheties onto shape 1,
gets every other pair's by composition (the classical proof of Monge's
theorem), and fits a hyperplane through the n(n+1)/2 centers on the maps'
backend; the fit gives their span too, and for genuinely homothetic input
families a tiny residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BackendMixError,
    DimensionMismatch,
    GeometryError,
    InvalidInput,
    NonCoplanar,
    NotHomothetic,
    RatioNotGreaterThanOne,
)
from .kernel import DEFAULT_TOLERANCE, Hyperplane, Tolerance, _fit
from .menelaus import all_pairs
from .shapes import _homothety, detect_homothety

__all__ = ["MongeConfig", "MongeReport", "run_monge"]


@dataclass(frozen=True)
class MongeConfig:
    """n+1 same-kind shapes in E^n, largest first."""

    dimension: int
    shapes: tuple

    @classmethod
    def build(cls, shapes, tol: Tolerance = DEFAULT_TOLERANCE):
        """Validate the shapes and order them by ratio, largest first.

        The ratio of shape k is that of the homothety from the first input
        shape onto it, so bounded and unbounded shapes order alike.  Errors
        carry the input positions: (1, k) when shape k is not a homothet of
        shape 1, (k, l) when shapes k and l have equal ratios (a translation
        pair, RatioNotGreaterThanOne).
        """
        shapes = tuple(shapes)
        if not shapes:
            raise InvalidInput("need at least one shape")
        n = shapes[0].dimension
        if len(shapes) != n + 1:
            raise DimensionMismatch(f"need {n + 1} shapes in dimension {n}, got {len(shapes)}")
        if any(s.dimension != n for s in shapes):
            raise DimensionMismatch("shapes must share one dimension")
        kinds = {s.kind for s in shapes}
        if len(kinds) > 1:
            raise InvalidInput("shapes must all have the same kind")
        ratios = [1]
        for k in range(1, n + 1):
            try:
                ratio = _homothety(shapes[0], shapes[k], tol).ratio
            except GeometryError as e:
                raise _with_pair(e, (1, k + 1))
            if ratio < 0:
                raise NotHomothetic("no homothety with a positive ratio relates the shapes",
                                    pair=(1, k + 1))
            ratios.append(ratio)
        order = sorted(range(n + 1), key=lambda k: ratios[k], reverse=True)
        for a, b in zip(order, order[1:]):
            gap = ratios[a] / ratios[b] - 1
            if gap == 0 or (isinstance(gap, float) and gap <= tol.scaled(1.0)):
                raise RatioNotGreaterThanOne("two shapes have equal size (translation pair)",
                                             pair=tuple(sorted((a + 1, b + 1))))
        return cls(dimension=n, shapes=tuple(shapes[k] for k in order))


def _with_pair(e: GeometryError, pair):
    """``e`` tagged with the 1-based shape pair it concerns, unless it has one."""
    if e.pair is None:
        e.pair = pair
        e.args = (f"pair {pair}: {e.args[0]}",) if e.args else (f"pair {pair}",)
    return e


@dataclass(frozen=True)
class MongeReport:
    centers: dict
    ratios: dict
    hyperplane: Hyperplane | None
    residual: object
    degenerate: bool
    span_dim: int | None
    verdict: bool


def run_monge(config: MongeConfig, tol: Tolerance = DEFAULT_TOLERANCE) -> MongeReport:
    """Find all pairwise homothety centers and test their coplanarity.

    Shape k is detected onto shape 1 once, g_k(x) = s_k x + u_k (errors
    carry the pair (1, k)); pair (i, j) is g_i^-1 o g_j, with ratio
    s_j / s_i and center (u_i - u_j) / (s_j - s_i), where s_j > s_i holds
    in the order MongeConfig.build gives the shapes.  The verdict is true
    when the centers fit a hyperplane within tolerance.  Centers spanning
    fewer than n-1 dimensions pass too: the report sets its degenerate
    flag and span_dim and returns the plane through them that the same
    fit found (x_1 = c_1 when they are one point).
    """
    n = config.dimension
    g = {}
    for k in range(2, n + 2):
        try:
            g[k] = detect_homothety(config.shapes[k - 1], config.shapes[0], tol)
        except GeometryError as e:
            raise _with_pair(e, (1, k))
    u = {k: tuple((1 - h.ratio) * c for c in h.center) for k, h in g.items()}
    centers = {(1, k): h.center for k, h in g.items()}
    ratios = {(1, k): h.ratio for k, h in g.items()}
    for (i, j) in all_pairs(n + 1)[n:]:
        # divide by the positive s_j - s_i: a zero coordinate stays 0.0, not -0.0
        gap = g[j].ratio - g[i].ratio
        if not gap > 0:
            raise RatioNotGreaterThanOne("shapes are not in decreasing size", pair=(i, j))
        centers[(i, j)] = tuple((a - b) / gap for a, b in zip(u[i], u[j]))
        ratios[(i, j)] = g[j].ratio / g[i].ratio
    # exact detections give Fraction ratios: the backend the fit runs on
    backends = {isinstance(h.ratio, Fraction) for h in g.values()}
    if len(backends) > 1:
        raise BackendMixError("cannot mix Fraction and float scalars in one input")
    exact = backends.pop()
    plane = residual = span = None
    try:
        plane, residual, span = _fit(list(centers.values()), tol, exact)
        # centers spanning fewer than n-1 dimensions always lie on a hyperplane
        span = span if span < n - 1 else None
        verdict = span is not None or residual <= (0 if exact else tol.scaled(1.0))
    except NonCoplanar:
        verdict = False
    return MongeReport(
        centers=centers, ratios=ratios, hyperplane=plane, residual=residual,
        degenerate=span is not None, span_dim=span, verdict=bool(verdict),
    )
