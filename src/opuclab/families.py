"""Builtin measure families with certified closed forms.

Each family is built in two steps.  Its record's ``measure`` samples the
measure on a grid; its ``builder`` extracts the parameters from that
measure, certifies them, and returns the family's name, parameters, a
closed-form density for oracle checks (an array function of the angle,
which a run reads once, over its certified angles), and boundary angles
certified as continuity points of the density (safe for density-recovery
sweeps).  :func:`build_family` runs both steps into one FamilyInstance;
refinement checks run only the first, through
:meth:`FamilyInstance.measure_on`.

Routes
------
Measure-first families (lebesgue, bernstein_szego, geronimus, mixed) sample
a closed-form weight and extract their parameters from the grid by one build
rule (:func:`measured_parameters`): the series cascade's double pass on the
moments from the weight's band record, where it reads no moment past
``max_trusted_moment`` and loses at most 4 digits (``schur._SAFE_DIGIT_LOSS``,
the loss at which the cascade trusts a double pass); otherwise the value
recursion over every node (``opuc.verblunsky_from_measure``).  geronimus
takes the value recursion directly, since its double cascade loses far more
than 4 digits.  Each closed form is stated once, as a numpy function of the
angle: the sampler evaluates it over the whole grid in one array pass, and
the density oracle over the angles it is asked for.  Parameter-first families
(ell2) realize their truncation exactly: the measure with parameters
(a_0..a_{K-1}, 0, 0, ...) has density 1/|phi_K|^2, which is sampled
without any series truncation error: one FFT of phi_K's K+1 coefficients
gives its values at the grid nodes, and the density oracle takes one
transfer pass over its angles.  Their cross-check is the series
cascade on the grid moments (``schur.schur_parameters_from_measure``),
whose parameters are compared with the stored ones and then dropped.
Every builder cross-validates its secondary representation against the
primary one and raises FamilyValidationError on mismatch, and each build
records the route that reached its parameters (``FamilyInstance.route``:
``SERIES_CASCADE``, ``VALUE_RECURSION`` or ``PARAMETER_FIRST``), which
report.json prints as ``family.route``.

Records
-------
``FAMILIES`` holds one :class:`Family` record per builtin: its arguments
with their ranges, description, sampler and builder, whether it can be
the base of a ``mixed`` family, and its grid floor as a function of build
depth.  :func:`check_spec` validates a spec against its record;
``build_family`` and config validation both call it, so the two cannot
disagree.

geronimus carries its essential support on an arc; the density is floored
at a tiny positive level off the arc so grid logarithms stay finite, and
the point mass at ``GERONIMUS_ATOM_ANGLE`` is kept exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import FamilyValidationError, OutOfRange
from .measure import (
    CircleMeasure,
    _order,
    build_measure,
    check_atoms,
    grid_angles,
    lebesgue,
    max_trusted_moment,
    moments,
)
from .opuc import _run_transfer, verblunsky_from_measure, weight_from_parameters
from .schur import (
    BUILD_DIGIT_LOSS,
    ROUTE_DEPTH,
    FloatBlock,
    SchurParameters,
    _cascade,
    digit_loss,
    double_pass_stands,
    schur_parameters_from_measure,
)

# Parameter-first reconstruction needs the grid to resolve the rational
# density 1/|phi_K|^2; empirically 56 nodes per parameter keeps the
# roundtrip at the 1e-9 level.
NODES_PER_PARAMETER = 56

# Off-arc density floor for arc-supported families, so log w stays finite.
# It trades the drift of the early parameters, which wants it small (2e-8
# fails to build geronimus 0.6 and 0.9 on fine grids), against the closing
# of the Szego product and the norm recursion at the run's depth, which
# want it large (1e-10 fails norm_telescoping on geronimus(0.9)).
ARC_FLOOR = 1e-9

# Extra parameters beyond the requested depth for parameter-first families,
# so tail-sensitive identities see an exact cutoff.
TAIL_MARGIN = 8

# The routes a build takes to its parameters, as FamilyInstance.route and
# report.json's family.route name them (see Routes).
SERIES_CASCADE = "series-cascade"
VALUE_RECURSION = "value-recursion"
PARAMETER_FIRST = "parameter-first"

# Angle of the geronimus family's point mass.
GERONIMUS_ATOM_ANGLE = 0.0

# The relative error the fejer_density_limit check accepts at its top Fejer
# order (``fejer_top_order``); mixed families certify only the angles where
# their atoms' Fejer tails stay within it.
FEJER_LIMIT_TOLERANCE = 0.05


# The points where the quadrature_refinement check compares Poisson means
# on the grid and on the doubled grid, and the largest change it accepts;
# validation refuses a run of that check on a family whose
# ``refinement_change`` passes it.
REFINEMENT_PROBES = (0.3, 0.5j, -0.7, 0.6 + 0.54j, -0.21 - 0.78j, 0.9)
REFINEMENT_TOLERANCE = 1e-10

# The largest |a_0 - r| a bernstein_szego build accepts.
BS_A0_TOLERANCE = 1e-9


def fejer_top_order(grid_size: int) -> int:
    """The top Fejer order fejer_density_limit reads: 256, or N/8 below."""
    return min(256, max_trusted_moment(grid_size))


@dataclass(frozen=True)
class FamilyInstance:
    """One built family: measure, parameters, and its certified facts.

    ``density_at`` is the closed-form density as an array function of the
    angle: a run reads it once, over its certified angles, and at those
    angles an array call holds the bits of one-angle calls.
    """

    name: str
    spec: dict
    measure: CircleMeasure
    params: SchurParameters
    # SERIES_CASCADE, VALUE_RECURSION or PARAMETER_FIRST: how the build
    # reached ``params``
    route: str
    density_at: Callable[..., np.ndarray]
    test_angles: Tuple[float, ...]
    # The n_max the builder was called with.  len(params) can exceed it
    # (ell2 stores its truncation tail), so refinements must not derive the
    # depth from the parameter count or the family itself would change.
    build_depth: int

    @property
    def kind(self) -> str:
        return self.spec["name"]

    def measure_on(self, grid_size: int) -> CircleMeasure:
        """This family's measure on another grid, sampled only (no extraction)."""
        family, args = _record(self.spec)
        return family.measure(grid_size, self.build_depth, **args)


# What a builder certifies: name, parameters, the route that reached them,
# density, certified angles.
Facts = Tuple[str, SchurParameters, str, Callable[..., np.ndarray], Tuple[float, ...]]


def measured_parameters(mu: CircleMeasure, n_max: int) -> Tuple[SchurParameters, str]:
    """The build rule of the measure-first families: a_0..a_{n_max-1} of
    ``mu`` and the route that gave them.

    The series cascade's double pass on the measure's moments
    c_0..c_{n_max}, O(n_max^2) after one FFT, where it reads no moment past
    ``max_trusted_moment`` and finishes within the digit loss at which
    ``schur._escalate`` trusts a double pass (``double_pass_stands``);
    otherwise the value recursion over every quadrature node,
    O(n_max N).  A pass that fails the gate is dropped, never redone in
    fixed point: the value recursion is the route for those measures.
    """
    if n_max <= max_trusted_moment(mu.grid_size):
        c = moments(mu, n_max)
        values, loss, escaped = _cascade(c[1:], c[:-1], n_max, FloatBlock)
        if double_pass_stands(loss, escaped is None):
            return SchurParameters(values), SERIES_CASCADE
    return verblunsky_from_measure(mu, n_max), VALUE_RECURSION


def conditioning_horizon(params: SchurParameters, cap: int = 64) -> int:
    """Depth to which moment-coefficient extraction is trustworthy.

    The map from moments to parameters amplifies input noise by roughly
    prod (1 + |a_k|)/(1 - |a_k|); with ~1e-15 quadrature noise in the
    moments, agreement at 1e-8 survives about 6.5 decimal digits of
    amplification.
    """
    losses = np.cumsum([digit_loss(mag) for mag in np.abs(params.values[:cap])])
    return max(int(np.searchsorted(losses, 6.5, side="right")), 1)


# -----------------------------------------------------------------------------
# Samplers measure(grid_size, depth, **args) and builders
# builder(mu, n_max, **args) -> Facts
# -----------------------------------------------------------------------------
def _lebesgue_measure(grid_size: int, depth: int) -> CircleMeasure:
    return lebesgue(grid_size)


def _lebesgue_facts(mu: CircleMeasure, n_max: int) -> Facts:
    """Normalized arc length: unit weight, zero parameters."""
    params, route = measured_parameters(mu, n_max)
    worst = float(np.max(np.abs(params.values))) if n_max else 0.0
    if worst > 1e-10:
        raise FamilyValidationError(
            f"lebesgue extraction returned |a| up to {worst:.3g}"
        )

    def density(theta):
        return np.ones(np.shape(theta))[()]

    return "lebesgue", params, route, density, (0.0, 2.0)


def bernstein_szego_density(r: float, theta):
    """(1 - r^2)/|1 - r e^{i theta}|^2 at an angle or an array of them."""
    return (1.0 - r * r) / np.abs(1.0 - r * np.exp(1j * theta)) ** 2


def bernstein_szego_grid_errors(r: float, grid_size: int) -> Tuple[float, float]:
    """How far sampling on N = grid_size nodes moves what a run checks of
    bernstein_szego(r): (|a_0 - r|, the largest change of the Poisson
    means at ``REFINEMENT_PROBES`` when the grid doubles).

    The sampled kernel's grid moments, normalized, are
    m_k = (r^k + r^(N-k)) / (1 + r^N) for 0 <= k < N.  So a_0 = m_1 lies
    r^(N-1) (1 - r^2) / (1 + r^N) above r, and doubling the grid lowers
    m_k by r^N (1 - r^N) (r^-k - r^k) / ((1 + r^N)(1 + r^2N)), which the
    mean at z weighs by 2 Re z^k: at most 2 rho^k, rho the largest probe
    modulus.  The orders k >= N weigh rho^N or less and are left out, and
    the sum over k < N is two geometric sums.
    """
    n = grid_size
    r_n = r**n
    gap = r ** (n - 1) * (1.0 - r * r) / (1.0 + r_n)
    rho = max(abs(z) for z in REFINEMENT_PROBES)
    low, high = sorted((r, rho))
    # sum_k r^(N-k) rho^k and sum_k r^(N+k) rho^k over 0 < k < N
    near = high**n * _power_sum(low / high, n - 1)
    far = r_n * _power_sum(r * rho, n - 1)
    scale = 2.0 * (1.0 - r_n) / ((1.0 + r_n) * (1.0 + r_n * r_n))
    return gap, scale * (near - far)


def _power_sum(x: float, m: int) -> float:
    """x + x^2 + ... + x^m for 0 <= x <= 1."""
    if x in (0.0, 1.0):
        return x * m
    log_x = math.log(x)
    return x * math.expm1(m * log_x) / math.expm1(log_x)


def _check_radius(value, label: str, grid_size: int) -> float:
    """r in [0, 1), and close enough to 0 that sampling on the grid moves
    a_0 by no more than the build accepts."""
    r = _interval("r", 0.0, 1.0).check(value, label, grid_size)
    gap, _ = bernstein_szego_grid_errors(r, grid_size)
    if gap > BS_A0_TOLERANCE:
        raise FamilyValidationError(
            f"{label} = {r!r} needs a finer grid than {grid_size} nodes: "
            f"sampling moves a_0 by {gap:.3g}, and the build accepts "
            f"{BS_A0_TOLERANCE:g}; raise grid_size"
        )
    return r


def _bernstein_szego_measure(grid_size: int, depth: int, r: float) -> CircleMeasure:
    weight = bernstein_szego_density(r, grid_angles(grid_size))
    # the sampled density carries a geometric aliasing tail ~r^N in its
    # quadrature mass; parameters are scale-invariant, so renormalizing
    # is exact and keeps small grids with r near 1 constructible
    return build_measure(weight, normalize=True)


def _bernstein_szego_facts(mu: CircleMeasure, n_max: int, r: float) -> Facts:
    """Density (1 - r^2)/|1 - r xi|^2; parameters (r, 0, 0, ...)."""
    params, route = measured_parameters(mu, n_max)
    gap = abs(complex(params.values[0]) - r) if n_max else 0.0
    tail = float(np.max(np.abs(params.values[1:]))) if n_max > 1 else 0.0
    if gap > BS_A0_TOLERANCE or tail > 1e-8:
        raise FamilyValidationError(
            f"bernstein_szego({r}) extraction off closed form: "
            f"|a_0 - r| = {gap:.3g}, tail max = {tail:.3g}"
        )
    density = partial(bernstein_szego_density, r)
    return f"bernstein_szego(r={r:g})", params, route, density, (0.0, np.pi)


def _geronimus_schur_value(a: float, z):
    """Closed-form fixed point of the parameter shift with a_n = a, at a
    point or an array of them: the contractive root of a z f^2 - (z - 1) f
    - a = 0, the "+" root where both are; a scalar for a scalar z."""
    z = np.asarray(z, dtype=complex)
    disc = np.sqrt((z - 1.0) ** 2 + 4.0 * a * a * z)
    plus, minus = (((z - 1.0) + sign * disc) / (2.0 * a * z) for sign in (1.0, -1.0))
    f = np.where(np.abs(plus) <= 1.0 + 1e-12, plus, minus)
    bad = z[np.abs(f) > 1.0 + 1e-12]
    if bad.size:
        raise FamilyValidationError(
            f"no contractive branch at z = {complex(bad[0])!r} for a = {a}"
        )
    return f[()]


def geronimus_density(a: float, theta):
    """Arc density of the constant-parameter family (0 off the arc), at an
    angle or an array of them."""
    z = np.exp(1j * theta)
    f = _geronimus_schur_value(a, z)
    den = np.abs(1.0 - z * f) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(den < 1e-14, 0.0, (1.0 - np.abs(f) ** 2) / den)
    return np.maximum(w, 0.0)


def _geronimus_measure(grid_size: int, depth: int, a: float) -> CircleMeasure:
    """Arc density floored at ARC_FLOOR plus the exact mass point, the whole
    renormalized: the closed forms for the two pieces integrate to 1 only
    up to quadrature error."""
    weight = np.maximum(geronimus_density(a, grid_angles(grid_size)), ARC_FLOOR)
    mass = 2.0 * a / (1.0 + a)
    return build_measure(weight, atoms=((GERONIMUS_ATOM_ANGLE, mass),), normalize=True)


def _geronimus_facts(mu: CircleMeasure, n_max: int, a: float) -> Facts:
    """Constant parameters a_n = a: extracted, cross-checked against a."""
    # the family the value recursion is for: its double cascade rarely holds 4 digits
    params = verblunsky_from_measure(mu, n_max)
    depth = min(conditioning_horizon(params, n_max), 16, n_max)
    # The sampled arc density carries edge-singularity aliasing ~N^(-3/2),
    # so the grid measure's true parameters sit about there off the ideal
    # constant; the tolerance tracks that, not extractor accuracy.
    drift_tol = 50.0 * mu.grid_size ** -1.5
    gap = float(np.max(np.abs(params.values[:depth] - a))) if depth else 0.0
    if gap > drift_tol:
        raise FamilyValidationError(
            f"geronimus({a}) extraction off the constant by {gap:.3g} "
            f"within depth {depth} (allowed {drift_tol:.3g})"
        )
    density = partial(geronimus_density, a)
    return f"geronimus(a={a:g})", params, VALUE_RECURSION, density, (np.pi,)


def _ell2_parameters(depth: int, c: float, p: float) -> SchurParameters:
    """a_n = c/(n+1)^p cut at K = depth + TAIL_MARGIN."""
    values = c / (np.arange(depth + TAIL_MARGIN) + 1.0) ** p
    return SchurParameters(values.astype(complex))


def _ell2_measure(grid_size: int, depth: int, c: float, p: float) -> CircleMeasure:
    """The measure of the cut sequence: density 1/|phi_K|^2, sampled exactly."""
    weight = weight_from_parameters(_ell2_parameters(depth, c, p), grid_size)
    # The rational density has geometric Fourier decay set by its slowest
    # zero; for slowly decaying parameters the grid mean misses exact unit
    # mass by ~1e-9.  Parameters are scale-invariant, so renormalizing is
    # exact for the roundtrip.
    return build_measure(weight, normalize=True)


def _ell2_facts(mu: CircleMeasure, n_max: int, c: float, p: float) -> Facts:
    """a_n = c/(n+1)^p by exact truncation; the grid roundtrip reproduces them.

    The roundtrip is the series cascade on the grid moments at depth
    min(ROUTE_DEPTH, n_max), the parameters the schur_identities routes
    read.  It needs only c_0..c_depth, from the weight's band record, where
    the value recursion would sweep every node per order.
    """
    params = _ell2_parameters(n_max, c, p)
    depth = min(ROUTE_DEPTH, n_max)
    back = schur_parameters_from_measure(mu, depth)
    gap = float(np.max(np.abs(back.values - params.values[:depth]))) if depth else 0.0
    if gap > 1e-6:
        raise FamilyValidationError(
            f"ell2({c},{p}) roundtrip off by {gap:.3g} at depth {depth}"
        )

    def density(theta):
        # one transfer pass over every angle
        zs = np.exp(1j * np.atleast_1d(theta))
        phi, _ = _run_transfer(params, zs, len(params), keep_all=False)
        return (1.0 / np.abs(phi) ** 2).reshape(np.shape(theta))[()]

    return f"ell2(c={c:g},p={p:g})", params, PARAMETER_FIRST, density, (0.0, np.pi)


def _widest_gap_midpoint(angles: Sequence[float]) -> float:
    """Midpoint of the widest arc between consecutive angles on the circle."""
    ordered = sorted(angles)
    ends = ordered[1:] + [ordered[0] + 2.0 * np.pi]
    width, start = max((end - start, start) for start, end in zip(ordered, ends))
    return (start + width / 2.0) % (2.0 * np.pi)


def _mixed_measure(
    grid_size: int, depth: int, base: dict, atoms: Sequence[dict]
) -> CircleMeasure:
    """The base weight scaled by 1 - sum(masses), plus the point masses."""
    family, args = _record(base)
    pairs = tuple((atom["angle"], atom["mass"]) for atom in atoms)
    scale = 1.0 - sum(m for _, m in pairs)
    weight = family.measure(grid_size, 0, **args).weight
    return build_measure(scale * weight, atoms=pairs)


def _mixed_refinement(spec: dict, grid_size: int) -> float:
    """The base's change under grid doubling, scaled as its weight is; the
    atoms' terms do not depend on the grid."""
    base = spec["base"]
    scale = 1.0 - sum(atom["mass"] for atom in spec["atoms"])
    return scale * FAMILIES[base["name"]].refinement_change(base, grid_size)


def _mixed_facts(
    mu: CircleMeasure, n_max: int, base: dict, atoms: Sequence[dict]
) -> Facts:
    """Smooth base density scaled down plus explicit point masses.

    The base must be atom-free (a family whose record sets mixed_base); its
    weight is scaled by 1 - sum(masses) so the total stays a probability
    measure.
    """
    family, args = _record(base)
    # at depth 0 a builder extracts and checks nothing, so the base's name
    # and density do not depend on the measure it is handed: the mixed one
    # serves, and the base is not sampled a second time
    base_name, _, _, base_density, _ = family.builder(mu, 0, **args)
    params, route = measured_parameters(mu, n_max)
    pairs = tuple((atom["angle"], atom["mass"]) for atom in atoms)
    scale = 1.0 - sum(m for _, m in pairs)
    atom_bits = ",".join(f"({t:g},{m:g})" for t, m in pairs)

    def density(theta):
        return scale * base_density(theta)

    # an atom of mass m at chord d adds at most 4 m / (n d^2) to the Fejer
    # mean of order n; an angle is certified at chord above 0.3 from every
    # atom, and only where those tails at fejer_density_limit's top order
    # stay within that check's tolerance of the density
    n_top = fejer_top_order(mu.grid_size)

    def clear_of_atoms(t: float, w: float) -> bool:
        chords = [abs(np.exp(1j * t) - np.exp(1j * ta)) for ta, _ in pairs]
        if min(chords, default=math.inf) <= 0.3:
            return False
        tail = sum(4.0 * m / (n_top * d * d) for d, (_, m) in zip(chords, pairs))
        return tail <= FEJER_LIMIT_TOLERANCE * w

    candidates = (0.0, 1.0, np.pi)
    weights = density(np.array(candidates)).tolist()
    safe_angles = tuple(
        t for t, w in zip(candidates, weights) if clear_of_atoms(t, w)
    ) or (_widest_gap_midpoint([t for t, _ in pairs]),)
    name = f"mixed({base_name};atoms=[{atom_bits}])"
    return name, params, route, density, safe_angles


# -----------------------------------------------------------------------------
# Family records: arguments, ranges, sampler, builder and grid floor, stated once
# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class Arg:
    """One family argument: its name, its rule as text, and the check.

    ``check(value, label, grid_size)`` returns the normalized value or
    raises an OpuclabError naming ``label``.
    """

    name: str
    rule: str
    check: Callable[[object, str, int], object]


@dataclass(frozen=True)
class Family:
    """One builtin family, read by validation, builders and the CLI.

    ``measure(grid_size, depth, **args)`` samples the family's measure;
    ``builder(mu, n_max, **args)`` extracts and certifies its parameters
    from that measure and returns the family's :data:`Facts`.  A
    parameter-first family (see Routes) sets ``parameters(depth, **args)``,
    the parameters its measure is sampled from; validation refuses it when
    they lose more than ``schur.BUILD_DIGIT_LOSS`` digits.  A measure-first
    family leaves it unset, and its builder extracts by the one build rule
    (see Routes): the double series cascade where it holds 4 digits, else
    the value recursion, which geronimus takes directly.  ``min_grid(depth)``
    is the smallest grid on which the family builds at that parameter
    depth.  ``finite_parameters`` marks families whose
    parameters vanish after the first few, so product and sum identities
    close exactly; ``refinement_skip``, when set, says why doubling the
    grid moves the family's quadrature beyond roundoff, and otherwise
    ``refinement_change(spec, grid_size)`` is the change of the Poisson
    means at ``REFINEMENT_PROBES`` under that doubling as a closed form
    predicts it (0 where none does), which validation holds to
    ``REFINEMENT_TOLERANCE`` for the runs that check it.  ``atom_angles(spec)``
    gives the angles of the point masses a valid spec builds.
    """

    name: str
    description: str
    measure: Callable[..., CircleMeasure]
    builder: Callable[..., Facts]
    args: Tuple[Arg, ...] = ()
    parameters: Optional[Callable[..., SchurParameters]] = None
    mixed_base: bool = False
    min_grid: Callable[[int], int] = lambda depth: 0
    finite_parameters: bool = False
    refinement_skip: str = ""
    refinement_change: Callable[[dict, int], float] = lambda spec, grid_size: 0.0
    atom_angles: Callable[[dict], Tuple[float, ...]] = lambda spec: ()

    @property
    def summary(self) -> str:
        return "; ".join([self.description] + [arg.rule for arg in self.args])


def check_number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OutOfRange(f"{label} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise OutOfRange(f"{label} must be finite, got {value!r}")
    return float(value)


def _interval(name: str, low: float, high: float, low_open: bool = False) -> Arg:
    """A real argument in [low, high), or (low, high) with low_open."""
    bounds = f"{'(' if low_open else '['}{low:g}, {high:g})"

    def check(value, label: str, grid_size: int) -> float:
        x = check_number(value, label)
        if not ((low < x if low_open else low <= x) and x < high):
            raise OutOfRange(f"{label} = {x!r} outside {bounds}")
        return x

    return Arg(name, f"{name} in {bounds}", check)


def _check_base(value, label: str, grid_size: int) -> dict:
    base = check_spec(value, grid_size, 0, label)
    if not FAMILIES[base["name"]].mixed_base:
        raise OutOfRange(
            f"{label} must be one of {_mixed_bases()}, got {base['name']!r}"
        )
    return base


def _check_atoms(value, label: str, grid_size: int) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise OutOfRange(f"{label} must be a nonempty list")
    pairs = []
    for k, atom in enumerate(value):
        where = f"{label}[{k}]"
        if not isinstance(atom, dict):
            raise OutOfRange(f"{where} must be an object")
        _expect_keys(atom, ("angle", "mass"), where)
        pairs.append(
            tuple(check_number(atom[key], f"{where}.{key}") for key in ("angle", "mass"))
        )
    atoms = check_atoms(pairs)
    total = sum(m for _, m in atoms)
    if total >= 1.0:
        raise OutOfRange(f"atom masses sum to {total!r}, need < 1")
    return [{"angle": t, "mass": m} for t, m in atoms]


def _mixed_bases() -> Tuple[str, ...]:
    return tuple(name for name, fam in FAMILIES.items() if fam.mixed_base)


def _expect_keys(spec: dict, allowed: Sequence[str], label: str) -> None:
    extra = set(spec) - set(allowed)
    if extra:
        raise OutOfRange(f"unexpected keys in {label}: {sorted(extra)}")
    missing = set(allowed) - set(spec)
    if missing:
        raise OutOfRange(f"missing keys in {label}: {sorted(missing)}")


FAMILIES: Dict[str, Family] = {
    fam.name: fam
    for fam in (
        Family(
            "lebesgue",
            "unit weight, zero parameters",
            _lebesgue_measure,
            _lebesgue_facts,
            mixed_base=True,
            finite_parameters=True,
        ),
        Family(
            "bernstein_szego",
            "density (1-r^2)/|1-r xi|^2, one parameter",
            _bernstein_szego_measure,
            _bernstein_szego_facts,
            (Arg("r", "r in [0, 1), r^N small enough for the grid", _check_radius),),
            mixed_base=True,
            finite_parameters=True,
            refinement_change=lambda spec, grid_size: bernstein_szego_grid_errors(
                spec["r"], grid_size
            )[1],
        ),
        Family(
            "geronimus",
            "constant parameters on an arc plus a point mass",
            _geronimus_measure,
            _geronimus_facts,
            (_interval("a", 0.0, 1.0, low_open=True),),
            refinement_skip=(
                "arc-edge density is not smooth; doubling the grid moves its "
                "sampled mass at the 1e-5 level by construction"
            ),
            atom_angles=lambda spec: (GERONIMUS_ATOM_ANGLE,),
        ),
        Family(
            "ell2",
            "decaying parameters c/(n+1)^p, exact truncation",
            _ell2_measure,
            _ell2_facts,
            (
                _interval("c", 0.0, 1.0),
                _interval("p", 0.0, math.inf, low_open=True),
            ),
            parameters=_ell2_parameters,
            min_grid=lambda depth: NODES_PER_PARAMETER * (depth + TAIL_MARGIN),
        ),
    )
}
FAMILIES["mixed"] = Family(
    "mixed",
    "scaled smooth base plus point masses",
    _mixed_measure,
    _mixed_facts,
    (
        Arg("base", f"base: one of {', '.join(_mixed_bases())}", _check_base),
        Arg(
            "atoms",
            "atoms: [{angle in [0, 2pi), mass > 0}, ...] at distinct angles, "
            "masses sum < 1",
            _check_atoms,
        ),
    ),
    refinement_change=_mixed_refinement,
    atom_angles=lambda spec: tuple(atom["angle"] for atom in spec["atoms"]),
)

FAMILY_DESCRIPTIONS = {name: fam.summary for name, fam in FAMILIES.items()}


def check_spec(spec, grid_size: int, depth: int, label: str = "family") -> dict:
    """Validate a family spec against its record; returns it normalized.

    Raises OutOfRange (or the atom errors of measure.check_atoms) for a
    malformed spec and FamilyValidationError when ``grid_size`` is below
    the family's grid floor at build depth ``depth``, or when the
    parameters of a parameter-first family lose more than
    ``BUILD_DIGIT_LOSS`` digits there.
    """
    if not isinstance(spec, dict):
        raise OutOfRange(f"{label} must be an object with a 'name' key")
    args = dict(spec)
    name = args.pop("name", None)
    if not isinstance(name, str) or name not in FAMILIES:
        raise OutOfRange(
            f"unknown family {name!r} in {label}; builtins: {sorted(FAMILIES)}"
        )
    family = FAMILIES[name]
    _expect_keys(args, [arg.name for arg in family.args], label)
    out = {"name": name}
    for arg in family.args:
        out[arg.name] = arg.check(args[arg.name], f"{label}.{arg.name}", grid_size)
    floor = family.min_grid(depth)
    if grid_size < floor:
        raise FamilyValidationError(
            f"grid_size {grid_size} cannot resolve {name} at build depth "
            f"{depth}: it needs at least {floor} nodes, so grid_size "
            f"{1 << (floor - 1).bit_length()} or more"
        )
    if family.parameters is not None:
        params = family.parameters(depth, **_record(out)[1])
        loss = sum(digit_loss(float(mag)) for mag in np.abs(params.values))
        if loss > BUILD_DIGIT_LOSS:
            raise FamilyValidationError(
                f"{name} parameters lose {loss:.3g} digits over {len(params)} "
                f"terms at build depth {depth}; past {BUILD_DIGIT_LOSS:g} its "
                "density 1/|phi_K|^2 does not reproduce them in double"
            )
    return out


def _record(spec: dict) -> Tuple[Family, dict]:
    """A normalized spec's family record and the arguments it passes."""
    args = dict(spec)
    return FAMILIES[args.pop("name")], args


def build_family(spec: dict, grid_size: int, n_max: int) -> FamilyInstance:
    """Build a family from its config dictionary ({"name": ..., args...})."""
    grid_size = _order(grid_size, 1, "grid_size")
    n_max = _order(n_max, 0, "build depth")
    spec = check_spec(spec, grid_size, n_max)
    family, args = _record(spec)
    mu = family.measure(grid_size, n_max, **args)
    name, params, route, density_at, test_angles = family.builder(mu, n_max, **args)
    return FamilyInstance(
        name, spec, mu, params, route, density_at, test_angles, build_depth=n_max
    )
