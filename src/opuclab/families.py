"""Builtin measure families with certified closed forms.

Each family is built in two steps.  Its record's ``measure`` samples the
measure on a grid; its ``builder`` extracts the parameters from that
measure, certifies them, and returns the family's name, parameters, a
closed-form density callable for oracle checks, and boundary angles
certified as continuity points of the density (safe for density-recovery
sweeps).  :func:`build_family` runs both steps into one FamilyInstance;
refinement checks run only the first, through
:meth:`FamilyInstance.measure_on`.

Routes
------
Measure-first families (lebesgue, bernstein_szego, geronimus, mixed) sample
a closed-form weight and extract parameters from the grid.  Parameter-first
families (ell2) realize their truncation exactly: the measure with
parameters (a_0..a_{K-1}, 0, 0, ...) has density 1/|phi_K|^2, which is
sampled without any series truncation error: one FFT of phi_K's K+1
coefficients gives its values at the grid nodes.  Every builder
cross-validates its secondary representation against the primary one and
raises FamilyValidationError on mismatch.

Records
-------
``FAMILIES`` holds one :class:`Family` record per builtin: its arguments
with their ranges, description, sampler and builder, route, whether it
can be the base of a ``mixed`` family, and its grid floor as a function
of build depth.  :func:`check_spec` validates a spec against its record;
``build_family`` and config validation both call it, so the two cannot
disagree.

geronimus carries its essential support on an arc; the density is floored
at a tiny positive level off the arc so grid logarithms stay finite, and
the point mass at ``GERONIMUS_ATOM_ANGLE`` is kept exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import FamilyValidationError, OutOfRange
from .measure import CircleMeasure, build_measure, check_atoms, grid_angles
from .opuc import eval_pair, verblunsky_from_measure, weight_from_parameters
from .schur import BUILD_DIGIT_LOSS, SchurParameters, digit_loss

# Parameter-first reconstruction needs the grid to resolve the rational
# density 1/|phi_K|^2; empirically 56 nodes per parameter keeps the
# roundtrip at the 1e-9 level.
NODES_PER_PARAMETER = 56

# Off-arc density floor for arc-supported families.  Large enough that
# log w stays in a comfortable range, small enough not to move parameters
# at the validated depth.
ARC_FLOOR = 2e-8

# Extra parameters beyond the requested depth for parameter-first families,
# so tail-sensitive identities see an exact cutoff.
TAIL_MARGIN = 8

# Angle of the geronimus family's point mass.
GERONIMUS_ATOM_ANGLE = 0.0


@dataclass(frozen=True)
class FamilyInstance:
    """One built family: measure, parameters, and its certified facts."""

    name: str
    spec: dict
    measure: CircleMeasure
    params: SchurParameters
    density_at: Callable[[float], float]
    test_angles: Tuple[float, ...]
    # The n_max the builder was called with.  len(params) can exceed it
    # (ell2 stores its truncation tail), so refinements must not derive the
    # depth from the parameter count or the family itself would change.
    build_depth: int

    @property
    def kind(self) -> str:
        return self.spec["name"]

    @property
    def route(self) -> str:
        return FAMILIES[self.kind].route

    def measure_on(self, grid_size: int) -> CircleMeasure:
        """This family's measure on another grid, sampled only (no extraction)."""
        family, args = _record(self.spec)
        return family.measure(grid_size, self.build_depth, **args)


# What a builder certifies: name, parameters, density, certified angles.
Facts = Tuple[str, SchurParameters, Callable[[float], float], Tuple[float, ...]]


def conditioning_horizon(params: SchurParameters, cap: int = 64) -> int:
    """Depth to which moment-coefficient extraction is trustworthy.

    The map from moments to parameters amplifies input noise by roughly
    prod (1 + |a_k|)/(1 - |a_k|); with ~1e-15 quadrature noise in the
    moments, agreement at 1e-8 survives about 6.5 decimal digits of
    amplification.
    """
    loss = 0.0
    n = 0
    for a in np.abs(params.values[:cap]):
        loss += digit_loss(a)
        if loss > 6.5:
            break
        n += 1
    return max(n, 1)


# -----------------------------------------------------------------------------
# Samplers measure(grid_size, depth, **args) and builders
# builder(mu, n_max, **args) -> Facts
# -----------------------------------------------------------------------------
def _lebesgue_measure(grid_size: int, depth: int) -> CircleMeasure:
    return build_measure(np.ones(grid_size))


def _lebesgue_facts(mu: CircleMeasure, n_max: int) -> Facts:
    """Normalized arc length: unit weight, zero parameters."""
    params = verblunsky_from_measure(mu, n_max)
    worst = float(np.max(np.abs(params.values))) if n_max else 0.0
    if worst > 1e-10:
        raise FamilyValidationError(
            f"lebesgue extraction returned |a| up to {worst:.3g}"
        )
    return "lebesgue", params, lambda theta: 1.0, (0.0, 2.0)


def _bernstein_szego_measure(grid_size: int, depth: int, r: float) -> CircleMeasure:
    angles = grid_angles(grid_size)
    weight = (1.0 - r * r) / np.abs(1.0 - r * np.exp(1j * angles)) ** 2
    # the sampled density carries a geometric aliasing tail ~r^N in its
    # quadrature mass; parameters are scale-invariant, so renormalizing
    # is exact and keeps small grids with r near 1 constructible
    return build_measure(weight, normalize=True)


def _bernstein_szego_facts(mu: CircleMeasure, n_max: int, r: float) -> Facts:
    """Density (1 - r^2)/|1 - r xi|^2; parameters (r, 0, 0, ...)."""
    params = verblunsky_from_measure(mu, n_max)
    gap = abs(complex(params.values[0]) - r) if n_max else 0.0
    tail = float(np.max(np.abs(params.values[1:]))) if n_max > 1 else 0.0
    if gap > 1e-9 or tail > 1e-8:
        raise FamilyValidationError(
            f"bernstein_szego({r}) extraction off closed form: "
            f"|a_0 - r| = {gap:.3g}, tail max = {tail:.3g}"
        )

    def density(theta: float) -> float:
        return (1.0 - r * r) / abs(1.0 - r * np.exp(1j * theta)) ** 2

    return f"bernstein_szego(r={r:g})", params, density, (0.0, np.pi)


def _geronimus_schur_value(a: float, z: complex) -> complex:
    """Closed-form fixed point of the parameter shift with a_n = a."""
    disc = np.sqrt((z - 1.0) ** 2 + 4.0 * a * a * z)
    for sign in (1.0, -1.0):
        f = ((z - 1.0) + sign * disc) / (2.0 * a * z)
        if abs(f) <= 1.0 + 1e-12:
            return complex(f)
    raise FamilyValidationError(
        f"no contractive branch at z = {z!r} for a = {a}"
    )


def geronimus_density(a: float, theta: float) -> float:
    """Arc density of the constant-parameter family (0 off the arc)."""
    z = np.exp(1j * theta)
    f = _geronimus_schur_value(a, z)
    den = abs(1.0 - z * f) ** 2
    if den < 1e-14:
        return 0.0
    return max((1.0 - abs(f) ** 2) / den, 0.0)


def _geronimus_measure(grid_size: int, depth: int, a: float) -> CircleMeasure:
    """Arc density floored at ARC_FLOOR plus the exact mass point.

    The whole measure is renormalized: the closed forms for the two pieces
    integrate to 1 only up to quadrature error.
    """
    angles = grid_angles(grid_size)
    weight = np.array([geronimus_density(a, t) for t in angles])
    weight = np.maximum(weight, ARC_FLOOR)
    mass = 2.0 * a / (1.0 + a)
    return build_measure(
        weight, atoms=((GERONIMUS_ATOM_ANGLE, mass),), normalize=True
    )


def _geronimus_facts(mu: CircleMeasure, n_max: int, a: float) -> Facts:
    """Constant parameters a_n = a: extracted, cross-checked against a."""
    params = verblunsky_from_measure(mu, n_max)
    depth = min(conditioning_horizon(params, n_max), 16, n_max)
    # The sampled arc density carries edge-singularity aliasing ~N^(-3/2),
    # so the grid measure's true parameters sit about there off the ideal
    # constant; the tolerance tracks that, not extractor accuracy.
    drift_tol = 50.0 * mu.grid_size ** -1.5
    gap = float(np.max(np.abs(params.values[:depth] - a)))
    if gap > drift_tol:
        raise FamilyValidationError(
            f"geronimus({a}) extraction off the constant by {gap:.3g} "
            f"within depth {depth} (allowed {drift_tol:.3g})"
        )
    name = f"geronimus(a={a:g})"
    return name, params, lambda theta: geronimus_density(a, theta), (np.pi,)


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
    """a_n = c/(n+1)^p by exact truncation; the grid roundtrip reproduces them."""
    params = _ell2_parameters(n_max, c, p)
    depth = min(64, n_max)
    back = verblunsky_from_measure(mu, depth)
    gap = float(np.max(np.abs(back.values - params.values[:depth])))
    if gap > 1e-6:
        raise FamilyValidationError(
            f"ell2({c},{p}) roundtrip off by {gap:.3g} at depth {depth}"
        )

    def density(theta: float) -> float:
        phi = eval_pair(params, np.exp(1j * theta), len(params)).phi
        return 1.0 / abs(phi) ** 2

    return f"ell2(c={c:g},p={p:g})", params, density, (0.0, np.pi)


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
    base_name, _, base_density, _ = family.builder(mu, 0, **args)
    params = verblunsky_from_measure(mu, n_max)
    pairs = tuple((atom["angle"], atom["mass"]) for atom in atoms)
    scale = 1.0 - sum(m for _, m in pairs)
    atom_bits = ",".join(f"({t:g},{m:g})" for t, m in pairs)

    def density(theta: float) -> float:
        return scale * base_density(theta)

    safe_angles = tuple(
        t
        for t in (0.0, 1.0, np.pi)
        if all(abs(np.exp(1j * t) - np.exp(1j * ta)) > 0.3 for ta, _ in pairs)
    ) or (_widest_gap_midpoint([t for t, _ in pairs]),)
    return f"mixed({base_name};atoms=[{atom_bits}])", params, density, safe_angles


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
    they lose more than ``schur.BUILD_DIGIT_LOSS`` digits.  ``min_grid(depth)``
    is the smallest grid on which the family builds at that parameter
    depth.  ``finite_parameters`` marks families whose
    parameters vanish after the first few, so product and sum identities
    close exactly; ``refinement_skip``, when set, says why doubling the
    grid moves the family's quadrature beyond roundoff.  ``atom_angles(spec)``
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
    atom_angles: Callable[[dict], Tuple[float, ...]] = lambda spec: ()

    @property
    def route(self) -> str:
        """The primary representation: "parameter-first" or "measure-first"."""
        return "measure-first" if self.parameters is None else "parameter-first"

    @property
    def summary(self) -> str:
        return "; ".join([self.description] + [arg.rule for arg in self.args])


def _number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OutOfRange(f"{label} must be a number, got {value!r}")
    return float(value)


def _interval(name: str, low: float, high: float, low_open: bool = False) -> Arg:
    """A real argument in [low, high), or (low, high) with low_open."""
    bounds = f"{'(' if low_open else '['}{low:g}, {high:g})"

    def check(value, label: str, grid_size: int) -> float:
        x = _number(value, label)
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
            (
                _number(atom["angle"], f"{where}.angle"),
                _number(atom["mass"], f"{where}.mass"),
            )
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
            (_interval("r", 0.0, 1.0),),
            mixed_base=True,
            finite_parameters=True,
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
    if name not in FAMILIES:
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
    spec = check_spec(spec, grid_size, n_max)
    family, args = _record(spec)
    mu = family.measure(grid_size, n_max, **args)
    name, params, density_at, test_angles = family.builder(mu, n_max, **args)
    return FamilyInstance(
        name, spec, mu, params, density_at, test_angles, build_depth=n_max
    )
