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
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import (
    ConvergenceTable,
    cd_at_zero_residual,
    cmv_coefficients,
    csv_text,
    partial_sum_deviation,
    sandwich_table,
    summability_condition,
)
from .config import SUITE_NAMES, ExperimentConfig
from .families import FAMILIES, FamilyInstance, build_family
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
    PolynomialPair,
    cd_laurent,
    cd_quotient,
    dual_parameters,
    eval_grid_table,
    monic_from_moments,
)
from .scattering import (
    JostSolution,
    jost_solutions,
    jost_step_defects,
)
from .schur import (
    entropy_product,
    schur_eval,
    schur_iterate_eval,
    schur_parameters_from_measure,
    schur_sum_bound,
    szego_formula_residual,
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
        return {
            "name": self.name,
            "status": self.status,
            "residual": self.residual,
            "detail": self.detail,
        }


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
class RunContext:
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
        self._sandwich: Dict[float, ConvergenceTable] = {}
        self._jost: Dict[float, Tuple[JostSolution, JostSolution]] = {}
        self._jost_defects: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        self._rebuilt: Dict[int, CircleMeasure] = {}
        self._routes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._moment_table: Optional[MonicTable] = None
        # every CMV order the summability checks and tables read
        self.cmv_top = min(max(self.n_list), self.depth)
        self._cmv: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def rng(self, stream: int) -> Lcg:
        return Lcg(self.config.seed * 1_000_003 + stream)

    def interior_points(self, stream: int, count: int, radius: float):
        rng = self.rng(stream)
        return [
            radius * math.sqrt(rng.uniform()) * complex(np.exp(1j * rng.angle()))
            for _ in range(count)
        ]

    def sandwich(self, angle: float) -> ConvergenceTable:
        if angle not in self._sandwich:
            self._sandwich[angle] = sandwich_table(
                self.mu,
                self.params,
                complex(np.exp(1j * angle)),
                self.n_list,
                self.config.delta_grid_size,
            )
        return self._sandwich[angle]

    def jost(self, angle: float) -> Tuple[JostSolution, JostSolution]:
        if angle not in self._jost:
            self._jost[angle] = jost_solutions(
                self.mu,
                self.params,
                complex(np.exp(1j * angle)),
                max(self.n_list),
            )
        return self._jost[angle]

    def jost_defects(self, angle: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-step recurrence defects of the two ``jost(angle)`` solutions,
        as ``solution_space_closure`` and the scattering table read them."""
        if angle not in self._jost_defects:
            self._jost_defects[angle] = tuple(
                jost_step_defects(self.params, sol) for sol in self.jost(angle)
            )
        return self._jost_defects[angle]

    def rebuilt(self, grid_size: int) -> CircleMeasure:
        if grid_size == self.mu.grid_size:
            return self.mu
        if grid_size not in self._rebuilt:
            self._rebuilt[grid_size] = self.instance.measure_on(grid_size)
        return self._rebuilt[grid_size]

    def routes(self):
        """Parameter sequences by the three extraction routes, depth <= 64.

        Returns (stored, cascade, levinson): the instance parameters, the
        power-series cascade from the measure, and the moment recursion's
        parameters.
        """
        if self._routes is None:
            d = min(64, self.depth)
            cascade = schur_parameters_from_measure(self.mu, d).values
            levinson = self.moment_table().params.values
            self._routes = (self.params.values[:d], cascade, levinson)
        return self._routes

    def moment_table(self) -> MonicTable:
        """The moment recursion at depth min(64, depth), as ``routes`` and
        ``norm_telescoping`` read it."""
        if self._moment_table is None:
            d = min(64, self.depth)
            self._moment_table = monic_from_moments(moments(self.mu, d), d)
        return self._moment_table

    def cmv(self) -> Tuple[np.ndarray, np.ndarray]:
        """CMV coefficients c_0..c_{cmv_top} of f = 1 and of f = Re xi.

        Both come from one ``cmv_coefficients`` call at the deepest order;
        they depend on neither the test point nor n, so the summability
        checks and tables slice them.
        """
        if self._cmv is None:
            mu = self.mu
            f = np.stack([np.ones(mu.grid_size), np.cos(mu.angles)])
            atom_values = (
                np.array([[1.0, math.cos(t)] for t, _ in mu.atoms]).T
                if mu.atoms
                else None
            )
            self._cmv = tuple(
                cmv_coefficients(mu, self.params, f, self.cmv_top, atom_values)
            )
        return self._cmv

    def horizon(self, z: complex) -> int:
        """Safe pointwise-iterate depth at z, capped by the build depth."""
        if abs(z) < 1e-3:
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
        f"|z| <= 0.99 is {low:.6g} (must stay positive)",
    )


@check("mnt", "fejer_density_limit")
def _fejer_density_limit(ctx: RunContext) -> Result:
    n_top = min(256, max_trusted_moment(ctx.mu))
    n_values = [n for n in (16, 32, 64, 128, 256) if n <= n_top]
    worst_last = 0.0
    worst_uphill = -math.inf
    for angle in ctx.certified:
        target = ctx.instance.density_at(angle)
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
        worst_last <= 0.05 or worst_uphill <= _TREND_SLACK, worst_last, detail
    )


_REFINEMENT_PROBES = (0.3, 0.5j, -0.7, 0.6 + 0.54j, -0.21 - 0.78j, 0.9)


@check("mnt", "quadrature_refinement")
def _quadrature_refinement(ctx: RunContext) -> Result:
    if ctx.family.refinement_skip:
        return _skip(ctx.family.refinement_skip)
    fine = ctx.rebuilt(2 * ctx.mu.grid_size)
    residual = np.max(
        np.abs(
            poisson(ctx.mu, _REFINEMENT_PROBES)
            - poisson(fine, _REFINEMENT_PROBES)
        )
    )
    return _within(
        residual,
        1e-10,
        f"max poisson change under grid doubling to {2 * ctx.mu.grid_size} "
        f"over {len(_REFINEMENT_PROBES)} probes with |z| <= 0.9",
    )


@check("mnt", "cesaro_sandwich")
def _cesaro_sandwich(ctx: RunContext) -> Result:
    worst = 0.0
    judged = 0
    exempt = 0
    for angle in ctx.certified:
        for row in ctx.sandwich(angle).rows:
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
        for row in ctx.sandwich(angle).rows:
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
        f"min entropy over 24 interior points |z| <= 0.99 is {low:.3g}",
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
    boundary = szego_boundary(mu)
    snapped = [snap(mu.grid_size, complex(np.exp(1j * a))) for a in ctx.certified]
    points = [r * node for _, node in snapped for r in _RADII]
    interior = szego_interior(mu, points).reshape(len(snapped), len(_RADII))
    worst_last = 0.0
    worst_uphill = -math.inf
    for (j, _), values in zip(snapped, interior):
        devs = [abs(value - boundary[j]) for value in values.tolist()]
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


def _entropy_product_points():
    yield 0.0 + 0.0j
    for mag in _EQ_MODULI[1:]:
        for theta in _EQ_ANGLES:
            yield mag * complex(np.exp(1j * theta))


@check("entropy", "entropy_product_identity")
def _entropy_product_identity(ctx: RunContext) -> Result:
    points = list(_entropy_product_points())
    entropies = entropy(ctx.mu, points)
    f_values = schur_eval(ctx.mu, points).tolist()
    if ctx.finite_param:
        worst = 0.0
        for z, k_value, f0 in zip(points, entropies, f_values):
            n_eval = min(8, ctx.horizon(z))
            gap = abs(k_value - entropy_product(ctx.params, z, f0, n_eval))
            worst = max(worst, gap)
        return _within(
            worst,
            1e-8,
            "max |entropy - log-product| over moduli "
            f"{_EQ_MODULI} x 8 angles; the parameter tail vanishes, so "
            "8 factors carry the whole product",
        )
    # Infinite-parameter families: the partial log-products increase toward
    # the entropy (every factor is >= 1), so the gap must shrink with n and
    # never overshoot.  Depth is capped by the pointwise noise horizon.
    worst_overshoot = 0.0
    worst_uphill = -math.inf
    for z, k_value, f0 in zip(points, entropies, f_values):
        h = ctx.horizon(z)
        n_grid = [n for n in (2, 4, 8, 16, 32, 64, 128, 256) if n <= h] or [h]
        gaps = [
            k_value - entropy_product(ctx.params, z, f0, n) for n in n_grid
        ]
        worst_overshoot = max(worst_overshoot, -min(gaps))
        worst_uphill = max(worst_uphill, _nonincreasing_violation(gaps))
    residual = max(worst_overshoot, worst_uphill)
    return _within(
        residual,
        1e-8,
        f"partial log-products: worst overshoot {worst_overshoot:.3g}, "
        f"worst uphill gap step {worst_uphill:.3g} over moduli "
        f"{_EQ_MODULI} x 8 angles within the iterate noise horizon",
    )


@check("entropy", "schur_sum_bound")
def _schur_sum_bound(ctx: RunContext) -> Result:
    rng = ctx.rng(24)
    points = [0.0 + 0.0j] + [
        (0.1 + 0.8 * rng.uniform()) * complex(np.exp(1j * rng.angle()))
        for _ in range(12)
    ]
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
    k_top = min(32, max_trusted_moment(mu))
    nodes, weights = mu.quadrature()
    c = moments(mu, k_top)
    worst = 0.0
    for k in range(k_top + 1):
        direct = complex(np.sum(weights * nodes**k))
        worst = max(worst, abs(c[k] - np.conj(direct)))
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
        "the builder stored vs re-extraction from the measure it built; "
        "discretization of the density enters here, so the bar is the "
        "roundtrip tolerance rather than the route-agreement one",
    )


@check("schur_identities", "iterate_contractivity")
def _iterate_contractivity(ctx: RunContext) -> Result:
    rng = ctx.rng(31)
    points = [
        (0.1 + 0.8 * rng.uniform()) * complex(np.exp(1j * rng.angle()))
        for _ in range(12)
    ]
    worst = 0.0
    for z, f0 in zip(points, schur_eval(ctx.mu, points).tolist()):
        n_eval = min(16, ctx.horizon(z))
        for k in range(n_eval + 1):
            worst = max(worst, abs(schur_iterate_eval(ctx.params, f0, z, k)))
    return _judged(
        worst < 1.0,
        worst,
        "max |f_n(z)| over 12 points |z| <= 0.9, iterate depths within "
        "the noise horizon; must stay below 1",
    )


@check("schur_identities", "szego_formula")
def _szego_formula(ctx: RunContext) -> Result:
    if ctx.finite_param:
        residual = szego_formula_residual(
            ctx.mu, ctx.params, min(64, ctx.depth)
        )
        return _within(
            residual,
            1e-10,
            f"|mean log w - sum log(1 - |a_k|^2)| at depth "
            f"{min(64, ctx.depth)}; the tail vanishes",
        )
    residuals = [
        szego_formula_residual(ctx.mu, ctx.params, n) for n in ctx.n_list
    ]
    uphill = _nonincreasing_violation(residuals)
    return _within(
        max(uphill, 0.0),
        _TREND_SLACK,
        f"residuals over n_list: {_fmt_seq(residuals)}; partial sums "
        "exhaust the integral monotonically",
    )


@check("schur_identities", "gram_orthonormality")
def _gram_orthonormality(ctx: RunContext) -> Result:
    m = min(16, ctx.depth)
    nodes, weights = ctx.mu.quadrature()
    phi_rows = eval_grid_table(ctx.params, nodes, m)[0]
    gram = (phi_rows * weights) @ phi_rows.conj().T
    residual = float(np.max(np.abs(gram - np.eye(m + 1))))
    return _within(
        residual,
        1e-8,
        f"max |Gram - I| for phi_0..phi_{m} under quadrature plus atoms",
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
    points = [
        w for xi, z, _ in draws for w in (xi, z, _as_boundary(xi), _as_boundary(z))
    ]
    phi, phis = eval_grid_table(ctx.params, np.array(points), n_top + 1)

    def pair(column: int, n: int) -> PolynomialPair:
        return PolynomialPair(
            n, complex(phi[n, column]), complex(phis[n, column]), points[column]
        )

    worst = 0.0
    for p, (xi, z, n) in enumerate(draws):
        j = 4 * p
        direct = complex(np.sum(np.conj(phi[: n + 1, j]) * phi[: n + 1, j + 1]))
        quotient = cd_quotient(pair(j, n + 1), pair(j + 1, n + 1))
        laurent = cd_laurent(pair(j + 2, n + 1), pair(j + 3, n + 1))
        prefactor = (xi * np.conj(z)) ** (n // 2)
        scale = max(1.0, abs(direct))
        worst = max(
            worst,
            abs(direct - quotient) / scale,
            abs(prefactor * direct - laurent) / scale,
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
        partial_sum_deviation(
            ones[:n_top], ctx.params, complex(np.exp(1j * angle)), 1.0
        )
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
    residual = max(
        cd_at_zero_residual(ctx.params, complex(np.exp(1j * angle)), n_top)
        for angle in ctx.certified
    )
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
        plus, minus = ctx.jost(angle)
        for sol, col in ((plus, 1), (minus, 0)):
            devs = [
                float(np.mean(np.abs(sol.entries[:n, col])))
                for n in n_values
            ]
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
    xi = complex(np.exp(1j * angle))
    original = jost_solutions(ctx.mu, ctx.params, xi, n_top)
    rebuilt = jost_solutions(ctx.mu, twice, xi, n_top)
    residual = max(
        float(np.max(np.abs(a.entries - b.entries)))
        for a, b in zip(original, rebuilt)
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
def _mnt_table(ctx: RunContext, angle: float) -> str:
    return ctx.sandwich(angle).to_csv()


def _entropy_table(ctx: RunContext, angle: float) -> str:
    return csv_text(
        "n,K_n,P_n,F_n",
        [(row.n, row.k_n, row.p_n, row.f_n) for row in ctx.sandwich(angle).rows],
    )


def _schur_table(ctx: RunContext, angle: float) -> str:
    stored, cascade, _ = ctx.routes()
    gaps = np.maximum.accumulate(np.abs(stored - cascade))
    rows = []
    for n in ctx.n_list:
        gap = float(gaps[min(n, len(gaps)) - 1])
        rows.append((n, szego_formula_residual(ctx.mu, ctx.params, n), gap))
    return csv_text("n,szego_residual,route_gap", rows)


def _summability_table(ctx: RunContext, angle: float) -> str:
    xi0 = complex(np.exp(1j * angle))
    _, coeffs = ctx.cmv()
    rows = []
    for n in ctx.n_list:
        deviation = partial_sum_deviation(
            coeffs[:n], ctx.params, xi0, math.cos(angle)
        )
        lhs, rhs = summability_condition(ctx.mu, ctx.params, xi0, n)
        rows.append((n, deviation, lhs, rhs))
    return csv_text("n,strong_cesaro,condition_lhs,condition_rhs", rows)


def _scattering_table(ctx: RunContext, angle: float) -> str:
    plus, minus = ctx.jost(angle)
    # the solution clipped to n + 1 entries has the first n step defects
    defects = ctx.jost_defects(angle)
    rows = [
        (
            n,
            float(np.mean(np.abs(plus.entries[:n, 1]))),
            float(np.mean(np.abs(minus.entries[:n, 0]))),
            max([0.0, *defects[0][:n], *defects[1][:n]]),
        )
        for n in ctx.n_list
    ]
    return csv_text("n,plus_deviation,minus_deviation,recurrence_residual", rows)


_TABLE_BUILDERS: Dict[str, Callable[[RunContext, float], str]] = {
    "mnt": _mnt_table,
    "entropy": _entropy_table,
    "schur_identities": _schur_table,
    "summability": _summability_table,
    "scattering": _scattering_table,
}

# The parameter-route table carries no boundary point, so one file suffices.
_POINT_FREE_TABLES = ("schur_identities",)


def suite_tables(ctx: RunContext, suite: str) -> Dict[str, str]:
    builder = _TABLE_BUILDERS[suite]
    angles = (
        ctx.sweep_angles[:1]
        if suite in _POINT_FREE_TABLES
        else ctx.sweep_angles
    )
    tables: Dict[str, str] = {}
    for k, angle in enumerate(angles):
        filename = f"{suite}.csv" if k == 0 else f"{suite}_{k + 1}.csv"
        tables[filename] = builder(ctx, angle)
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


def _selected_suites(experiment: str) -> Tuple[str, ...]:
    return SUITE_NAMES if experiment == "all" else (experiment,)


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Build the family, run the selected suites and render their tables.

    A table that raises becomes the failed verdict ``{suite}_tables``.
    """
    started = time.perf_counter()
    suites = _selected_suites(config.experiment)
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
    counts = {
        "pass": sum(v.status == "pass" for v in verdicts),
        "fail": sum(v.status == "fail" for v in verdicts),
        "skip": sum(v.status == "skip" for v in verdicts),
    }
    report = {
        "schema": 1,
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
