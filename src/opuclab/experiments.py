"""Invariant suites over a built family, with CSV tables and a JSON report.

Five suites group the module invariants: ``mnt`` (density recovery and the
Cesaro sandwich), ``entropy`` (outer function and entropy identities),
``schur_identities`` (parameter routes and polynomial algebra),
``summability`` (CMV Fourier analysis), ``scattering`` (recurrence
solutions at the boundary).  ``all`` runs every suite; each invariant
appears in exactly one suite, so the combined verdict list covers each of
them exactly once.

Verdicts never crash the run: any exception inside a check becomes a
failed verdict carrying the exception text.  Skips are reserved for checks
whose hypotheses the family genuinely does not satisfy (for example
quadrature refinement on a density with jumps); the detail string says
why.

Scale conventions: verdicts run at the scales their invariants pin
(for instance Fejer recovery at n = 256, route agreement at depth 64),
capped by what the grid and the built parameter depth support.  The CSV
tables, by contrast, sweep the configured n_list at the configured test
points.  Randomized sweeps draw from the seeded generator in
:mod:`opuclab.lcg`, so identical configs reproduce identical output.

A :class:`RunContext` holds what several checks and tables read, each
computed once per run in ``ctx._memo``.  The polynomials at the boundary
come from one transfer table over every point the run reads
(``RunContext.boundary_table``): the sandwich rows, the CMV values chi
and the Jost solutions take their columns, since a column is bitwise the
one-point pass.  The context is also the one holder of the grid nodes
its angles snap to and of D and F there (``RunContext.nodes``,
``outer_values`` and ``herglotz_values``): D by one boundary pass per grid,
F only on the run's own grid, where the Jost solutions read it.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, astuple, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import (
    SandwichRow,
    cd_at_zero_residual,
    cmv_coefficients,
    partial_sum_deviation,
    sandwich_rows,
    summability_conditions,
)
from .config import SUITE_NAMES, ExperimentConfig
from .families import (
    FAMILIES,
    FEJER_LIMIT_TOLERANCE,
    REFINEMENT_PROBES,
    REFINEMENT_TOLERANCE,
    SERIES_CASCADE,
    FamilyInstance,
    build_family,
    fejer_top_order,
)
from .lcg import Lcg
from .measure import (
    CircleMeasure,
    _as_boundary,
    fejer_mean,
    max_trusted_moment,
    moments,
    poisson,
    poisson_log_weight,
    poisson_route,
    snap,
    weighted_poisson,
)
from .opuc import (
    MonicTable,
    cd_laurent,
    cd_quotient,
    chi_grid_table,
    coefficient_route,
    dual_parameters,
    eval_grid_table,
    gram_from_moments,
    gram_matrix,
    monic_from_moments,
    verblunsky_from_measure,
)
from .scattering import JostSolution, _herglotz_at, jost_pairs, jost_step_defects
from .schur import (
    ROUTE_DEPTH,
    Z_MIN,
    _pointwise_iterates,
    entropy_products,
    schur_eval,
    schur_parameters_from_measure,
    schur_sum_bound,
    szego_formula_residuals,
    iterate_noise_horizon,
)
from .szego import entropy, szego_boundary, szego_interior

_TREND_SLACK = 1e-12


# -----------------------------------------------------------------------------
# Verdicts
# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class Verdict:
    """One named invariant check: pass, fail, or skip with a reason."""

    name: str
    status: str
    residual: Optional[float]
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_json(self) -> dict:
        return asdict(self)


# A check returns its status, residual and detail; suite_verdicts adds the
# name it was registered under.
Result = Tuple[str, Optional[float], str]

# The checks of each suite as (name, check) pairs, in report order, which
# is the order the @check decorators below run in.
CHECKS: Dict[str, List[Tuple[str, Callable[["RunContext"], Result]]]] = {
    suite: [] for suite in SUITE_NAMES
}


def check(suite: str, name: str):
    """Register the decorated function as the next check of ``suite``."""

    def register(fn):
        CHECKS[suite].append((name, fn))
        return fn

    return register


def _judged(ok: bool, residual: float, detail: str) -> Result:
    return ("pass" if ok else "fail", float(residual), detail)


def _within(residual: float, tol: float, detail: str) -> Result:
    return _judged(residual <= tol, residual, detail)


def _skip(detail: str) -> Result:
    return ("skip", None, detail)


def _failed(name: str, exc: Exception) -> Verdict:
    return Verdict(name, "fail", None, f"{type(exc).__name__}: {exc}")


def _guarded(name: str, run: Callable[[], Result]) -> Verdict:
    try:
        status, residual, detail = run()
    except Exception as exc:  # computation errors become failed verdicts
        return _failed(name, exc)
    return Verdict(name, status, residual, detail)


def _nonincreasing_violation(values: Sequence[float]) -> float:
    """Largest uphill step in a sequence expected to be non-increasing."""
    return max(
        [b - a for a, b in zip(values, values[1:])] or [0.0], default=0.0
    )


def _shortfall(value: float) -> float:
    """How far value lies below 0; +0.0, never -0.0, when it does not."""
    return 0.0 if value >= 0.0 else -value


def _fmt_seq(values: Sequence[float]) -> str:
    return "[" + ", ".join(format(v, ".3g") for v in values) + "]"


# -----------------------------------------------------------------------------
# Run context: one built family plus caches shared between checks and tables
# -----------------------------------------------------------------------------
def _cached(method):
    """The context's one memo rule: method(ctx, *args) runs once per args,
    and later calls read ``ctx._memo``."""

    @functools.wraps(method)
    def read(ctx: "RunContext", *args):
        key = (method.__name__, *args)
        if key not in ctx._memo:
            ctx._memo[key] = method(ctx, *args)
        return ctx._memo[key]

    return read


class RunContext:
    """One built family and a run's config, plus the values its checks and
    tables share, each computed once (``_cached``).

    Every boundary angle the run reads (``read_angles``: the certified
    ones, then the swept test points) is evaluated in one transfer pass,
    ``boundary_table``, at its point and at its grid node; ``sandwich``,
    ``chi`` and ``jost`` read their columns by prefix.  ``nodes`` holds
    the angles' grid nodes on a grid size, ``outer_values`` D there, which
    the radial limit and the Jost solutions read, and ``herglotz_values``
    F on the run's own grid, which only the Jost solutions read.
    """

    def __init__(self, config: ExperimentConfig, instance: FamilyInstance):
        self.config = config
        self.instance = instance
        self.family = FAMILIES[instance.kind]
        self.mu = instance.measure
        self.params = instance.params
        self.depth = instance.build_depth
        self.n_list = config.n_list
        self.certified = instance.test_angles
        self.sweep_angles = (
            config.test_points
            if config.test_points is not None
            else instance.test_angles
        )
        # every CMV order the summability checks and tables read
        self.cmv_top = min(max(self.n_list), self.depth)
        self._memo: dict = {}

    def rng(self, stream: int) -> Lcg:
        return Lcg(self.config.seed * 1_000_003 + stream)

    def interior_radius(self, radius: float) -> float:
        """The radius, capped at 10^(-16/N) so that r^N <= 1e-16: the grid's
        Poisson weights at z sum to 1 + 2 Re(z^N / (1 - z^N)), and the
        discrete measure keeps positivity and Jensen only to about 2 |z|^N."""
        return min(radius, 10.0 ** (-16.0 / self.mu.grid_size))

    def interior_points(self, stream: int, count: int, radius: float):
        """``count`` points drawn in the disk of ``interior_radius(radius)``."""
        radius = self.interior_radius(radius)
        rng = self.rng(stream)
        return [
            radius * math.sqrt(rng.uniform()) * complex(np.exp(1j * rng.angle()))
            for _ in range(count)
        ]

    def annulus_points(self, stream: int, count: int):
        """``count`` points (0.1 + 0.8 u) e^{i theta}, drawn in order."""
        rng = self.rng(stream)
        return [
            (0.1 + 0.8 * rng.uniform()) * complex(np.exp(1j * rng.angle()))
            for _ in range(count)
        ]

    @property
    def read_angles(self) -> Tuple[float, ...]:
        """Every boundary angle the run reads, certified then swept, once."""
        return tuple(dict.fromkeys((*self.certified, *self.sweep_angles)))

    def boundary_point(self, angle: float) -> complex:
        """e^{i angle} scaled to modulus 1, as every boundary reader scales
        it: the point where the run reads phi and chi."""
        return _as_boundary(np.exp(1j * angle))

    @_cached
    def nodes(self, grid_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The grid node ``snap`` picks on ``grid_size`` nodes for the
        ``boundary_point`` of each read angle, as an index array and a
        point array in ``read_angles`` order."""
        snapped = (snap(grid_size, self.boundary_point(a)) for a in self.read_angles)
        return tuple(map(np.array, zip(*snapped)))

    @_cached
    def outer_values(self, grid_size: int) -> np.ndarray:
        """D at ``nodes(grid_size)`` of the family's measure on that grid,
        from one boundary pass: the radial limit reads it on at least 8192
        nodes, the Jost solutions on the run's own grid."""
        indices, _ = self.nodes(grid_size)
        return szego_boundary(self.rebuilt(grid_size))[indices]

    @_cached
    def herglotz_values(self) -> np.ndarray:
        """F at ``nodes`` of the run's own grid, the one grid where it is
        read (by the Jost solutions)."""
        return _herglotz_at(self.mu, *self.nodes(self.mu.grid_size))

    @_cached
    def boundary_table(self) -> Tuple[Dict[complex, int], np.ndarray, np.ndarray]:
        """phi_k and phi*_k, k <= max(n_list), at every boundary point the
        run reads, from one transfer pass: ``boundary_point`` of each read
        angle and its grid node (``nodes``), once each by value.  Returns
        the column of each point and the two (n+1, points) tables; a
        column is bitwise the one-point pass at its point."""
        _, nodes = self.nodes(self.mu.grid_size)
        pairs = zip(map(self.boundary_point, self.read_angles), nodes.tolist())
        points = list(dict.fromkeys(z for pair in pairs for z in pair))
        phi, phis = eval_grid_table(self.params, np.array(points), max(self.n_list))
        return {z: j for j, z in enumerate(points)}, phi, phis

    def _column(self, table: np.ndarray, angle: float) -> np.ndarray:
        """The column of ``table`` at the angle's boundary point, copied to
        one contiguous row, so that numpy runs the loops a one-point table's
        column takes."""
        column, _, _ = self.boundary_table()
        return table[:, column[self.boundary_point(angle)]].copy()

    @_cached
    def sandwich(self, angle: float) -> Tuple[SandwichRow, ...]:
        _, phi, _ = self.boundary_table()
        return sandwich_rows(
            self.mu,
            self._column(phi, angle),
            complex(np.exp(1j * angle)),
            self.n_list,
            self.config.delta_grid_size,
        )

    @_cached
    def _chi_table(self) -> np.ndarray:
        column, phi, phis = self.boundary_table()
        return chi_grid_table(phi, phis, np.array(list(column)))

    def chi(self, angle: float) -> np.ndarray:
        """chi_0..chi_{max(n_list)} at the angle, read by prefix like ``cmv``."""
        return self._column(self._chi_table(), angle)

    @_cached
    def _jost(self) -> dict:
        """Both solutions at the grid node of every angle the run reads, with
        phi and phi* from the boundary table."""
        column, phi, phis = self.boundary_table()
        _, nodes = self.nodes(self.mu.grid_size)
        cols = [column[node] for node in nodes.tolist()]
        d, f = self.outer_values(self.mu.grid_size), self.herglotz_values()
        pairs = jost_pairs(self.params, nodes, phi[:, cols], phis[:, cols], d, f)
        return dict(zip(self.read_angles, pairs))

    def jost(self, angle: float) -> Tuple[JostSolution, JostSolution]:
        """The two solutions at a read angle."""
        return self._jost()[angle]

    @_cached
    def jost_defects(self, angle: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-step recurrence defects of the two ``jost(angle)`` solutions,
        as ``solution_space_closure`` and the scattering table read them."""
        return tuple(jost_step_defects(self.params, sol) for sol in self.jost(angle))

    @_cached
    def rebuilt(self, grid_size: int) -> CircleMeasure:
        if grid_size == self.mu.grid_size:
            return self.mu
        return self.instance.measure_on(grid_size)

    @_cached
    def routes(self):
        """(stored, cascade, levinson): the parameters to depth
        min(ROUTE_DEPTH, depth) as the builder stored them, by the
        power-series cascade from the measure, and by the moment recursion.

        Where the build took the series cascade, its stored prefix is this
        cascade's own bits, so the value recursion to that depth stands in
        for it and the three routes stay independent."""
        d = min(ROUTE_DEPTH, self.depth)
        if self.instance.route == SERIES_CASCADE:
            stored = verblunsky_from_measure(self.mu, d).values
        else:
            stored = self.params.values[:d]
        cascade = schur_parameters_from_measure(self.mu, d).values
        levinson = self.moment_table().params.values
        return (stored, cascade, levinson)

    @_cached
    def moment_table(self) -> MonicTable:
        """The moment recursion at depth min(ROUTE_DEPTH, depth), as
        ``routes`` and ``norm_telescoping`` read it."""
        d = min(ROUTE_DEPTH, self.depth)
        return monic_from_moments(moments(self.mu, d), d)

    @_cached
    def cmv(self) -> Tuple[np.ndarray, np.ndarray]:
        """CMV coefficients c_0..c_{cmv_top} of f = 1 and of f = Re xi, from
        one ``cmv_coefficients`` call, which summability checks and tables
        read by prefix."""
        mu = self.mu
        f = np.stack([np.ones(mu.grid_size), np.cos(mu.angles)])
        atom_values = (
            np.array([[1.0, math.cos(t)] for t, _ in mu.atoms]).T
            if mu.atoms
            else None
        )
        return tuple(cmv_coefficients(mu, self.params, f, self.cmv_top, atom_values))

    def horizon(self, z: complex) -> int:
        """Safe pointwise-iterate depth at z, capped by the build depth."""
        if abs(z) < Z_MIN:
            return self.depth
        return min(iterate_noise_horizon(z), self.depth)

    @property
    def finite_param(self) -> bool:
        return self.family.finite_parameters


# -----------------------------------------------------------------------------
# mnt suite: density recovery and the Cesaro sandwich
# -----------------------------------------------------------------------------
@check("mnt", "poisson_positivity")
def _poisson_positivity(ctx: RunContext) -> Result:
    values = poisson(ctx.mu, [0.0] + ctx.interior_points(11, 32, 0.99))
    at_zero = abs(values[0] - 1.0)
    low = np.min(values[1:])
    residual = max(at_zero, 0.0 if low > 0.0 else 1.0)
    return _within(
        residual,
        1e-12,
        f"|P(mu,0) - 1| = {at_zero:.3g}; min over 32 interior points "
        f"|z| <= {ctx.interior_radius(0.99):g} is {low:.6g} (must stay positive)",
    )


@check("mnt", "fejer_density_limit")
def _fejer_density_limit(ctx: RunContext) -> Result:
    n_top = fejer_top_order(ctx.mu.grid_size)
    n_values = [n for n in (16, 32, 64, 128, 256) if n <= n_top]
    worst_last = 0.0
    worst_uphill = -math.inf
    targets = ctx.instance.density_at(np.array(ctx.certified)).tolist()
    for angle, target in zip(ctx.certified, targets):
        xi0 = complex(np.exp(1j * angle))
        rels = [
            abs(fejer_mean(ctx.mu, xi0, n) - target) / target for n in n_values
        ]
        worst_last = max(worst_last, rels[-1])
        worst_uphill = max(worst_uphill, _nonincreasing_violation(rels))
    detail = (
        f"relative error at n = {n_values[-1]}: {worst_last:.3g} over "
        f"certified angles {_fmt_seq(ctx.certified)}; largest uphill step "
        f"{worst_uphill:.3g}"
    )
    return _judged(
        worst_last <= FEJER_LIMIT_TOLERANCE or worst_uphill <= _TREND_SLACK,
        worst_last,
        detail,
    )


@check("mnt", "quadrature_refinement")
def _quadrature_refinement(ctx: RunContext) -> Result:
    if ctx.family.refinement_skip:
        return _skip(ctx.family.refinement_skip)
    fine = ctx.rebuilt(2 * ctx.mu.grid_size)
    residual = np.max(
        np.abs(
            poisson(ctx.mu, REFINEMENT_PROBES)
            - poisson(fine, REFINEMENT_PROBES)
        )
    )
    return _within(
        residual,
        REFINEMENT_TOLERANCE,
        f"max poisson change under grid doubling to {2 * ctx.mu.grid_size} "
        f"over {len(REFINEMENT_PROBES)} probes with |z| <= 0.9",
    )


@check("mnt", "cesaro_sandwich")
def _cesaro_sandwich(ctx: RunContext) -> Result:
    worst = 0.0
    judged = 0
    exempt = 0
    for angle in ctx.certified:
        for row in ctx.sandwich(angle):
            if not row.hypothesis_met:
                exempt += 1
                continue
            judged += 1
            worst = max(worst, row.lower - row.cesaro, row.cesaro - row.upper)
    route = f"Poisson means: {poisson_route(ctx.mu)}"
    if judged == 0:
        return _skip(
            f"no rows with K_n <= 1 at the certified angles ({exempt} exempt); "
            f"{route}",
        )
    return _within(
        worst,
        1e-9,
        f"worst bound violation over {judged} rows with K_n <= 1 "
        f"({exempt} exempt) at certified angles; {route}",
    )


@check("mnt", "fejer_lower_bound")
def _fejer_lower_bound(ctx: RunContext) -> Result:
    worst = 0.0
    rows = 0
    for angle in ctx.certified:
        for row in ctx.sandwich(angle):
            rows += 1
            worst = max(worst, 1.0 / row.f_n - row.cesaro)
    return _within(
        worst,
        1e-9,
        f"worst (1/F_n - cesaro) over {rows} rows; this half of the "
        "sandwich needs no hypothesis on K_n",
    )


# -----------------------------------------------------------------------------
# entropy suite: outer function and entropy identities
# -----------------------------------------------------------------------------
@check("entropy", "entropy_nonnegative")
def _entropy_nonnegative(ctx: RunContext) -> Result:
    low = np.min(entropy(ctx.mu, ctx.interior_points(21, 24, 0.99)))
    return _within(
        _shortfall(low),
        1e-10,
        f"min entropy over 24 interior points "
        f"|z| <= {ctx.interior_radius(0.99):g} is {low:.3g}",
    )


@check("entropy", "outer_consistency")
def _outer_consistency(ctx: RunContext) -> Result:
    points = ctx.interior_points(22, 24, 0.99)
    residual = max(
        abs(2.0 * math.log(abs(d_value)) - p_log)
        for d_value, p_log in zip(
            szego_interior(ctx.mu, points).tolist(),
            poisson_log_weight(ctx.mu, points),
        )
    )
    return _within(
        residual,
        1e-10,
        "max |log|D(z)|^2 - P(log w, z)| over 24 interior points",
    )


_RADIAL_GRID = 8192
_RADII = (0.95, 0.99, 0.999)


@check("entropy", "radial_limit")
def _radial_limit(ctx: RunContext) -> Result:
    mu = ctx.rebuilt(max(_RADIAL_GRID, ctx.mu.grid_size))
    # D at every node the run reads, which on the run's own grid the Jost
    # solutions read too
    certified = [ctx.read_angles.index(a) for a in ctx.certified]
    nodes = ctx.nodes(mu.grid_size)[1][certified]
    boundary = ctx.outer_values(mu.grid_size)
    points = [r * node for node in nodes.tolist() for r in _RADII]
    interior = szego_interior(mu, points).reshape(len(nodes), len(_RADII))
    worst_last = 0.0
    worst_uphill = -math.inf
    for d_value, values in zip(boundary[certified], interior):
        devs = [abs(value - d_value) for value in values.tolist()]
        worst_last = max(worst_last, devs[-1])
        worst_uphill = max(worst_uphill, _nonincreasing_violation(devs))
    detail = (
        f"|D(r xi) - D(xi)| at r = {_RADII[-1]}: {worst_last:.3g} on a "
        f"{mu.grid_size}-point grid; largest uphill step along "
        f"r = {_RADII} is {worst_uphill:.3g}"
    )
    return _judged(
        worst_last <= 1e-2 or worst_uphill <= _TREND_SLACK, worst_last, detail
    )


@check("entropy", "jensen_direction")
def _jensen_direction(ctx: RunContext) -> Result:
    points = ctx.interior_points(23, 24, 0.99)
    slack = min(
        math.log(p_mu) - p_log
        for p_mu, p_log in zip(
            poisson(ctx.mu, points), poisson_log_weight(ctx.mu, points)
        )
    )
    return _within(
        _shortfall(slack),
        1e-12,
        f"min (log P(mu,z) - P(log w, z)) over 24 interior points is "
        f"{slack:.3g}; must be >= 0",
    )


_EQ_MODULI = (0.0, 0.3, 0.6, 0.9)
_EQ_ANGLES = tuple(2.0 * math.pi * j / 8.0 for j in range(8))
_EQ_POINTS = [0.0 + 0.0j] + [
    mag * complex(np.exp(1j * theta)) for mag in _EQ_MODULI[1:] for theta in _EQ_ANGLES
]


@check("entropy", "entropy_product_identity")
def _entropy_product_identity(ctx: RunContext) -> Result:
    entropies = entropy(ctx.mu, _EQ_POINTS)
    f_values = schur_eval(ctx.mu, _EQ_POINTS).tolist()
    worst_gap = worst_overshoot = 0.0
    worst_uphill = -math.inf
    for z, k_value, f0 in zip(_EQ_POINTS, entropies, f_values):
        h = ctx.horizon(z)
        if ctx.finite_param:
            n_grid = [min(8, h)]
        else:
            n_grid = [n for n in (2, 4, 8, 16, 32, 64, 128, 256) if n <= h] or [h]
        products = entropy_products(ctx.params, z, f0, n_grid)
        gaps = [k_value - product for product in products]
        worst_gap = max(worst_gap, abs(gaps[-1]))
        worst_overshoot = max(worst_overshoot, -min(gaps))
        worst_uphill = max(worst_uphill, _nonincreasing_violation(gaps))
    if ctx.finite_param:
        return _within(
            worst_gap,
            1e-8,
            "max |entropy - log-product| over moduli "
            f"{_EQ_MODULI} x 8 angles; the parameter tail vanishes, so "
            "8 factors carry the whole product",
        )
    # Infinite-parameter families: the partial log-products increase toward
    # the entropy (every factor is >= 1), so the gap must shrink with n and
    # never overshoot.  Depth is capped by the pointwise noise horizon.
    return _within(
        max(worst_overshoot, worst_uphill),
        1e-8,
        f"partial log-products: worst overshoot {worst_overshoot:.3g}, "
        f"worst uphill gap step {worst_uphill:.3g} over moduli "
        f"{_EQ_MODULI} x 8 angles within the iterate noise horizon",
    )


@check("entropy", "schur_sum_bound")
def _schur_sum_bound(ctx: RunContext) -> Result:
    points = [0.0 + 0.0j] + ctx.annulus_points(24, 12)
    worst_excess = 0.0
    worst_eq = 0.0
    f_values = schur_eval(ctx.mu, points).tolist()
    for z, k_value, f0 in zip(points, entropy(ctx.mu, points), f_values):
        n_eval = min(8, ctx.horizon(z)) if ctx.finite_param else min(ctx.horizon(z), 64)
        lhs, rhs = schur_sum_bound(
            ctx.params, z, f0, n_eval, entropy_value=k_value
        )
        worst_excess = max(worst_excess, lhs - rhs)
        if ctx.finite_param:
            worst_eq = max(worst_eq, abs(lhs - rhs))
    if ctx.finite_param:
        return _within(
            max(worst_excess, worst_eq),
            1e-10,
            f"13 points |z| <= 0.9: worst |lhs - rhs| = {worst_eq:.3g} "
            "(at most one parameter, so the bound is an identity)",
        )
    return _within(
        worst_excess,
        1e-10,
        "13 points |z| <= 0.9: worst lhs - (exp(entropy) - 1) excess; "
        "partial sums stay below the entropy bound",
    )


# -----------------------------------------------------------------------------
# schur_identities suite: parameter routes and polynomial algebra
# -----------------------------------------------------------------------------
@check("schur_identities", "moment_hermitian")
def _moment_hermitian(ctx: RunContext) -> Result:
    mu = ctx.mu
    k_top = min(32, max_trusted_moment(mu.grid_size))
    nodes, weights = mu.quadrature()
    c = moments(mu, k_top)
    power = np.ones_like(nodes)  # nodes**k, as a running product
    worst = 0.0
    for k in range(k_top + 1):
        direct = complex(np.sum(weights * power))
        worst = max(worst, abs(c[k] - np.conj(direct)))
        power *= nodes
    return _within(
        worst,
        1e-12,
        f"max |c_k - conj(direct integral of xi^k)| for k <= {k_top}",
    )


@check("schur_identities", "geronimus_consistency")
def _geronimus_consistency(ctx: RunContext) -> Result:
    _, cascade, levinson = ctx.routes()
    residual = float(np.max(np.abs(cascade - levinson)))
    return _within(
        residual,
        1e-8,
        f"power-series cascade vs moment recursion, depth {len(cascade)}: "
        "the Schur parameters of the measure are its recurrence "
        "coefficients",
    )


@check("schur_identities", "two_route_equality")
def _two_route_equality(ctx: RunContext) -> Result:
    stored, cascade, _ = ctx.routes()
    residual = float(np.max(np.abs(stored - cascade)))
    return _within(
        residual,
        1e-6,
        f"construction roundtrip, depth {len(cascade)}: the parameters "
        "the builder stored (the value recursion's where it took the series "
        "cascade) vs re-extraction from the measure it built; "
        "discretization of the density enters here, so the bar is the "
        "roundtrip tolerance rather than the route-agreement one",
    )


@check("schur_identities", "iterate_contractivity")
def _iterate_contractivity(ctx: RunContext) -> Result:
    points = ctx.annulus_points(31, 12)
    worst = 0.0
    for z, f0 in zip(points, schur_eval(ctx.mu, points).tolist()):
        n_eval = min(16, ctx.horizon(z))
        for f_k in _pointwise_iterates(ctx.params, f0, z, n_eval):
            worst = max(worst, abs(f_k))
    return _judged(
        worst < 1.0,
        worst,
        "max |f_n(z)| over 12 points |z| <= 0.9, iterate depths within "
        "the noise horizon; must stay below 1",
    )


@check("schur_identities", "szego_formula")
def _szego_formula(ctx: RunContext) -> Result:
    if ctx.finite_param:
        depth = min(64, ctx.depth)
        (residual,) = szego_formula_residuals(ctx.mu, ctx.params, [depth])
        return _within(
            residual,
            1e-10,
            f"|mean log w - sum log(1 - |a_k|^2)| at depth {depth}; "
            "the tail vanishes",
        )
    residuals = szego_formula_residuals(ctx.mu, ctx.params, ctx.n_list)
    uphill = _nonincreasing_violation(residuals)
    return _within(
        max(uphill, 0.0),
        _TREND_SLACK,
        f"residuals over n_list: {_fmt_seq(residuals)}; partial sums "
        "exhaust the integral monotonically",
    )


@check("schur_identities", "gram_orthonormality")
def _gram_orthonormality(ctx: RunContext) -> Result:
    # from the moments where they are exact and the coefficient route
    # holds, else streamed over the quadrature nodes
    m = min(16, ctx.depth)
    holds, loss = coefficient_route(ctx.params, m)
    if holds and m <= max_trusted_moment(ctx.mu.grid_size):
        gram = gram_from_moments(ctx.params, moments(ctx.mu, m), m)
        route = f"coefficient space, digit loss {loss:.2f}"
    else:
        nodes, weights = ctx.mu.quadrature()
        gram = gram_matrix(ctx.params, nodes, weights, m)
        route = f"streamed over {len(nodes)} nodes, digit loss {loss:.2f}"
    residual = float(np.max(np.abs(gram - np.eye(m + 1))))
    return _within(
        residual,
        1e-8,
        f"max |Gram - I| for phi_0..phi_{m} under quadrature plus atoms, {route}",
    )


@check("schur_identities", "phi_star_zero_free")
def _phi_star_zero_free(ctx: RunContext) -> Result:
    rng = ctx.rng(33)
    n_top = min(32, ctx.depth)
    points = [0.0 + 0.0j]
    for _ in range(16):
        theta = rng.angle()
        for r in (0.3, 0.6, 0.9, 0.99):
            points.append(r * complex(np.exp(1j * theta)))
    _, phis = eval_grid_table(ctx.params, np.array(points), n_top)
    low = float(np.min(np.abs(phis)))
    return _judged(
        low >= 1e-8,
        low,
        f"min |phi_n*(z)| over radial-angular grid |z| <= 0.99, "
        f"n <= {n_top}; reflected polynomials have no disk zeros",
    )


@check("schur_identities", "cd_three_route")
def _cd_three_route(ctx: RunContext) -> Result:
    rng = ctx.rng(34)
    n_top = max(min(32, ctx.depth - 1), 1)
    draws = []
    while len(draws) < 24:
        xi = complex(np.exp(1j * rng.angle()))
        z = complex(np.exp(1j * rng.angle()))
        if abs(1.0 - np.conj(xi) * z) < 0.1:
            continue
        draws.append((xi, z, 1 + rng.next_raw() % n_top))
    # Columns 4p..4p+3 hold pair p's xi and z, then xi/|xi| and z/|z|,
    # where the Laurent form evaluates chi.
    points = np.array(
        [w for xi, z, _ in draws for w in (xi, z, _as_boundary(xi), _as_boundary(z))]
    )
    phi, phis = eval_grid_table(ctx.params, points, n_top + 1)
    chi = chi_grid_table(phi, phis, points)
    # order n + 1 of each pair p in its columns 4p + k, k = 0..3
    ns = np.array([n for _, _, n in draws])
    at = [(ns + 1, 4 * np.arange(len(draws)) + k) for k in range(4)]
    x, z, bx, bz = (points[columns] for _, columns in at)
    quotient = cd_quotient(x, z, phi[at[0]], phis[at[0]], phi[at[1]], phis[at[1]])
    laurent = cd_laurent(ns, bx, bz, chi[at[2]], chi[at[3]])
    worst = 0.0
    for p, (xi, z, n) in enumerate(draws):
        j = 4 * p
        direct = complex(np.sum(np.conj(phi[: n + 1, j]) * phi[: n + 1, j + 1]))
        prefactor = (xi * np.conj(z)) ** (n // 2)
        scale = max(1.0, abs(direct))
        worst = max(
            worst,
            abs(direct - complex(quotient[p])) / scale,
            abs(prefactor * direct - complex(laurent[p])) / scale,
        )
    return _within(
        worst,
        1e-9,
        f"24 seeded boundary pairs, n <= {n_top}: direct sum vs "
        "quotient form vs Laurent form with its parity prefactor",
    )


@check("schur_identities", "norm_telescoping")
def _norm_telescoping(ctx: RunContext) -> Result:
    table = ctx.moment_table()
    d = len(table.params)
    ratios = table.norms_sq[1:] / table.norms_sq[:-1]
    target = 1.0 - np.abs(table.params.values[: len(ratios)]) ** 2
    residual = float(np.max(np.abs(ratios - target) / target))
    return _within(
        residual,
        1e-10,
        f"max relative |norm ratio - (1 - |a_n|^2)| in the moment "
        f"recursion, depth {d}",
    )


# -----------------------------------------------------------------------------
# summability suite: CMV Fourier analysis
# -----------------------------------------------------------------------------
@check("summability", "weighted_poisson_identity")
def _weighted_poisson_identity(ctx: RunContext) -> Result:
    ones = np.ones(ctx.mu.grid_size)
    atom_ones = np.ones(len(ctx.mu.atoms)) if ctx.mu.atoms else None
    points = ctx.interior_points(41, 8, 0.95)
    residual = np.max(
        np.abs(
            weighted_poisson(ctx.mu, ones, points, atom_ones)
            - poisson(ctx.mu, points)
        )
    )
    return _within(
        residual,
        1e-14,
        "max |P(1 dmu, z) - P(mu, z)| over 8 interior points",
    )


@check("summability", "cmv_bessel")
def _cmv_bessel(ctx: RunContext) -> Result:
    _, coeffs = ctx.cmv()
    total = float(np.sum(np.abs(coeffs) ** 2))
    nodes, weights = ctx.mu.quadrature()
    norm_sq = float(np.sum(nodes.real**2 * weights))
    return _within(
        max(total - norm_sq, 0.0),
        1e-8,
        f"sum of |<f, chi_j>|^2 for j <= {ctx.cmv_top} vs ||f||^2 = "
        f"{norm_sq:.6g} with f = Re xi",
    )


@check("summability", "constant_deviation_zero")
def _constant_deviation_zero(ctx: RunContext) -> Result:
    ones, _ = ctx.cmv()
    n_top = ctx.cmv_top
    residual = max(
        partial_sum_deviation(ones[:n_top], ctx.chi(angle)[:n_top], 1.0)
        for angle in ctx.certified
    )
    return _within(
        residual,
        1e-12,
        f"strong Cesaro deviation of f = 1 at n = {n_top}; constants are "
        "reproduced by the zeroth coefficient alone",
    )


@check("summability", "cd_at_zero_identity")
def _cd_at_zero_identity(ctx: RunContext) -> Result:
    n_top = min(64, ctx.depth)
    xis = np.array([ctx.boundary_point(angle) for angle in ctx.certified])
    residual = max(cd_at_zero_residual(ctx.params, xis, n_top))
    return _within(
        residual,
        1e-9,
        f"two-term telescoped kernel at the origin vs the direct sum, "
        f"n <= {n_top}, certified angles",
    )


# -----------------------------------------------------------------------------
# scattering suite: recurrence solutions at the boundary
# -----------------------------------------------------------------------------
@check("scattering", "solution_space_closure")
def _solution_space_closure(ctx: RunContext) -> Result:
    residual = 0.0
    for angle in ctx.certified:
        plus, minus = ctx.jost_defects(angle)
        residual = max([residual, *plus.tolist(), *minus.tolist()])
    return _within(
        residual,
        1e-8,
        "max one-step recurrence residual of both boundary solutions at "
        "certified angles; linear combinations inherit it",
    )


@check("scattering", "averaged_decay_trend")
def _averaged_decay_trend(ctx: RunContext) -> Result:
    m = max(ctx.n_list)
    n_values = sorted({max(m // 4, 1), max(m // 2, 1), m})
    if len(n_values) < 2:
        return _skip(
            f"max configured n = {m} leaves no room for doubling steps",
        )
    worst = -math.inf
    trends = []
    for angle in ctx.certified:
        for sol in ctx.jost(angle):
            devs = [sol.vanishing_mean(n) for n in n_values]
            trends.append(devs)
            worst = max(worst, _nonincreasing_violation(devs))
    return _within(
        max(worst, 0.0),
        _TREND_SLACK,
        f"vanishing components averaged over n = {n_values}: worst "
        f"uphill step {max(worst, 0.0):.3g}; sample trend "
        f"{_fmt_seq(trends[0])}",
    )


@check("scattering", "dual_involution")
def _dual_involution(ctx: RunContext) -> Result:
    angle = ctx.certified[0]
    twice = dual_parameters(dual_parameters(ctx.params))
    n_top = min(64, max(ctx.n_list))
    # the angle's node, D and F, as jost(angle) reads them
    at = [ctx.read_angles.index(angle)]
    node = ctx.nodes(ctx.mu.grid_size)[1][at]
    d, f = ctx.outer_values(ctx.mu.grid_size)[at], ctx.herglotz_values()[at]
    (rebuilt,) = jost_pairs(twice, node, *eval_grid_table(twice, node, n_top), d, f)
    # the solutions to n_top are the first n_top + 1 entries of jost(angle)
    residual = max(
        float(np.max(np.abs(a.entries[: n_top + 1] - b.entries)))
        for a, b in zip(ctx.jost(angle), rebuilt)
    )
    return _within(
        residual,
        1e-12,
        "solutions rebuilt from twice-negated parameters vs originals; "
        "negation is exact, so this is bitwise",
    )


def suite_verdicts(ctx: RunContext, suite: str) -> List[Verdict]:
    return [
        _guarded(name, lambda run=run: run(ctx)) for name, run in CHECKS[suite]
    ]


# -----------------------------------------------------------------------------
# CSV tables: one per suite per test point, n_list rows
# -----------------------------------------------------------------------------
# The CSV table of each suite as (header, rows, per_point), registered by
# the @table decorators below: rows(ctx, angle) builds the rows, and a
# table that carries no boundary point (per_point False) is written once.
TABLES: Dict[str, Tuple[str, Callable[[RunContext, float], list], bool]] = {}


def table(suite: str, header: str, per_point: bool = True):
    """Register the decorated row builder as the CSV table of ``suite``."""

    def register(fn):
        TABLES[suite] = (header, fn, per_point)
        return fn

    return register


@table("mnt", "n,cesaro,target,lower,upper,K_n,P_n,F_n")
def _mnt_table(ctx: RunContext, angle: float):
    return [astuple(row) for row in ctx.sandwich(angle)]


@table("entropy", "n,K_n,P_n,F_n")
def _entropy_table(ctx: RunContext, angle: float):
    return [(row.n, row.k_n, row.p_n, row.f_n) for row in ctx.sandwich(angle)]


@table("schur_identities", "n,szego_residual,route_gap", per_point=False)
def _schur_table(ctx: RunContext, angle: float):
    stored, cascade, _ = ctx.routes()
    gaps = np.maximum.accumulate(np.abs(stored - cascade))
    route_gaps = gaps[np.minimum(ctx.n_list, len(gaps)) - 1].tolist()
    residuals = szego_formula_residuals(ctx.mu, ctx.params, ctx.n_list)
    return list(zip(ctx.n_list, residuals, route_gaps))


@table("summability", "n,strong_cesaro,condition_lhs,condition_rhs")
def _summability_table(ctx: RunContext, angle: float):
    _, coeffs = ctx.cmv()
    chi_vals = ctx.chi(angle)
    conditions = summability_conditions(
        ctx.mu, chi_vals, complex(np.exp(1j * angle)), ctx.n_list
    )
    f_at_xi0 = math.cos(angle)
    return [
        (n, partial_sum_deviation(coeffs[:n], chi_vals[:n], f_at_xi0), lhs, rhs)
        for n, (lhs, rhs) in zip(ctx.n_list, conditions)
    ]


@table("scattering", "n,plus_deviation,minus_deviation,recurrence_residual")
def _scattering_table(ctx: RunContext, angle: float):
    solutions = ctx.jost(angle)
    # the solution clipped to n + 1 entries has the first n step defects
    plus, minus = ctx.jost_defects(angle)
    return [
        (n, *[s.vanishing_mean(n) for s in solutions], max([0.0, *plus[:n], *minus[:n]]))
        for n in ctx.n_list
    ]


def csv_text(header: str, rows: Sequence[Sequence[float]]) -> str:
    """CSV with the given header line: ints as str, everything else .12g."""
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                str(v) if isinstance(v, int) else format(float(v), ".12g")
                for v in row
            )
        )
    return "\n".join(lines) + "\n"


def suite_tables(ctx: RunContext, suite: str) -> Dict[str, str]:
    """The suite's CSV files by name: ``{suite}.csv`` for the first sweep
    angle, ``{suite}_2.csv`` and on for the others."""
    header, rows, per_point = TABLES[suite]
    angles = ctx.sweep_angles if per_point else ctx.sweep_angles[:1]
    tables: Dict[str, str] = {}
    for k, angle in enumerate(angles):
        filename = f"{suite}.csv" if k == 0 else f"{suite}_{k + 1}.csv"
        tables[filename] = csv_text(header, rows(ctx, angle))
    return tables


# -----------------------------------------------------------------------------
# Runner
# -----------------------------------------------------------------------------
@dataclass
class ExperimentOutcome:
    """Everything a run produced: verdicts, rendered tables, the report."""

    config: ExperimentConfig
    verdicts: Tuple[Verdict, ...]
    tables: Dict[str, str]
    report: dict

    @property
    def failed(self) -> bool:
        return any(v.failed for v in self.verdicts)


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Build the family, run the selected suites and render their tables.

    A table that raises becomes the failed verdict ``{suite}_tables``.
    """
    started = time.perf_counter()
    suites = SUITE_NAMES if config.experiment == "all" else (config.experiment,)
    verdicts: List[Verdict] = []
    tables: Dict[str, str] = {}
    suite_report: Dict[str, dict] = {}
    family_meta: dict = {}
    try:
        instance = build_family(
            config.family, config.grid_size, config.build_depth
        )
    except Exception as exc:
        verdicts.append(_failed("family_build", exc))
        suite_report["family_build"] = {
            "verdicts": [verdicts[0].to_json()],
            "tables": [],
        }
    else:
        family_meta = {
            "name": instance.name,
            "kind": instance.kind,
            "route": instance.route,
            "build_depth": instance.build_depth,
            "certified_angles": list(instance.test_angles),
        }
        ctx = RunContext(config, instance)
        for suite in suites:
            suite_list = suite_verdicts(ctx, suite)
            filenames: List[str] = []
            try:
                rendered = suite_tables(ctx, suite)
            except Exception as exc:
                suite_list.append(_failed(f"{suite}_tables", exc))
            else:
                tables.update(rendered)
                filenames = list(rendered)
            verdicts.extend(suite_list)
            suite_report[suite] = {
                "verdicts": [v.to_json() for v in suite_list],
                "tables": filenames,
            }
    counts = {s: sum(v.status == s for v in verdicts) for s in ("pass", "fail", "skip")}
    report = {
        "schema": 2,
        "config": config.echo(),
        "family": family_meta,
        "suites": suite_report,
        "summary": counts,
        "runtime": {
            "seconds": round(time.perf_counter() - started, 3),
            "grid_size": config.grid_size,
        },
    }
    return ExperimentOutcome(config, tuple(verdicts), tables, report)


def write_outputs(outcome: ExperimentOutcome, out_dir) -> List[str]:
    """Write the CSV tables and report.json; returns the written names."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for filename, text in outcome.tables.items():
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        written.append(filename)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(outcome.report, handle, indent=2)
        handle.write("\n")
    written.append("report.json")
    return written
