"""Builtin measure families with certified closed forms.

Each builder returns a FamilyInstance carrying the grid measure, the
parameter sequence, a closed-form density callable for oracle checks, and
boundary angles certified as continuity points of the density (safe for
density-recovery sweeps).

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
with their ranges, description, builder, whether it can be the base of a
``mixed`` family, and its grid floor as a function of build depth.
:func:`check_spec` validates a spec against its record; ``build_family``
and config validation both call it, so the two cannot disagree.

geronimus carries its essential support on an arc; the density is floored
at a tiny positive level off the arc so grid logarithms stay finite, and
the point mass at ``GERONIMUS_ATOM_ANGLE`` is kept exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import FamilyValidationError, OutOfRange
from .measure import CircleMeasure, build_measure, check_atoms
from .opuc import eval_pair, verblunsky_from_measure, weight_from_parameters
from .schur import SchurParameters, digit_loss

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
    kind: str
    spec: dict
    measure: CircleMeasure
    params: SchurParameters
    density_at: Callable[[float], float]
    test_angles: Tuple[float, ...]
    route: str
    # The n_max the builder was called with.  len(params) can exceed it
    # (ell2 stores its truncation tail), so rebuilds must not derive the
    # depth from the parameter count or the family itself would change.
    build_depth: int

    def rebuild(self, grid_size: int) -> "FamilyInstance":
        """Same family on a different grid (for refinement checks)."""
        return build_family(self.spec, grid_size, self.build_depth)


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
# Builders
# -----------------------------------------------------------------------------
def lebesgue_family(grid_size: int = 4096, n_max: int = 64) -> FamilyInstance:
    """Normalized arc length: unit weight, zero parameters."""
    mu = build_measure(np.ones(grid_size))
    params = verblunsky_from_measure(mu, n_max)
    worst = float(np.max(np.abs(params.values))) if n_max else 0.0
    if worst > 1e-10:
        raise FamilyValidationError(
            f"lebesgue extraction returned |a| up to {worst:.3g}"
        )
    return FamilyInstance(
        name="lebesgue",
        kind="lebesgue",
        spec={"name": "lebesgue"},
        measure=mu,
        params=params,
        density_at=lambda theta: 1.0,
        test_angles=(0.0, 2.0),
        route="measure-first",
        build_depth=n_max,
    )


def bernstein_szego_family(
    r: float, grid_size: int = 4096, n_max: int = 64
) -> FamilyInstance:
    """Density (1 - r^2)/|1 - r xi|^2; parameters (r, 0, 0, ...)."""
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    weight = (1.0 - r * r) / np.abs(1.0 - r * np.exp(1j * angles)) ** 2
    # the sampled density carries a geometric aliasing tail ~r^N in its
    # quadrature mass; parameters are scale-invariant, so renormalizing
    # is exact and keeps small grids with r near 1 constructible
    mu = build_measure(weight, normalize=True)
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

    return FamilyInstance(
        name=f"bernstein_szego(r={r:g})",
        kind="bernstein_szego",
        spec={"name": "bernstein_szego", "r": float(r)},
        measure=mu,
        params=params,
        density_at=density,
        test_angles=(0.0, np.pi),
        route="measure-first",
        build_depth=n_max,
    )


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


def geronimus_family(
    a: float, grid_size: int = 4096, n_max: int = 32
) -> FamilyInstance:
    """Constant parameters a_n = a: arc density plus a mass point.

    The sampled density is floored at ARC_FLOOR off the arc and the whole
    measure renormalized (the closed forms for the two pieces integrate to
    1 only up to quadrature error).  Parameters are extracted from the grid
    and cross-checked against the constant.
    """
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    weight = np.array([geronimus_density(a, t) for t in angles])
    weight = np.maximum(weight, ARC_FLOOR)
    mass = 2.0 * a / (1.0 + a)
    mu = build_measure(
        weight, atoms=((GERONIMUS_ATOM_ANGLE, mass),), normalize=True
    )
    params = verblunsky_from_measure(mu, n_max)
    depth = min(conditioning_horizon(params, n_max), 16, n_max)
    # The sampled arc density carries edge-singularity aliasing ~N^(-3/2),
    # so the grid measure's true parameters sit about there off the ideal
    # constant; the tolerance tracks that, not extractor accuracy.
    drift_tol = 50.0 * grid_size ** -1.5
    gap = float(np.max(np.abs(params.values[:depth] - a)))
    if gap > drift_tol:
        raise FamilyValidationError(
            f"geronimus({a}) extraction off the constant by {gap:.3g} "
            f"within depth {depth} (allowed {drift_tol:.3g})"
        )
    return FamilyInstance(
        name=f"geronimus(a={a:g})",
        kind="geronimus",
        spec={"name": "geronimus", "a": float(a)},
        measure=mu,
        params=params,
        density_at=lambda theta: geronimus_density(a, theta),
        test_angles=(np.pi,),
        route="measure-first",
        build_depth=n_max,
    )


def ell2_family(
    c: float, p: float, grid_size: int = 4096, n_max: int = 64
) -> FamilyInstance:
    """Decaying parameters a_n = c/(n+1)^p, realized by exact truncation.

    The stored sequence is cut at K = n_max + TAIL_MARGIN; the measure of
    the cut sequence has density 1/|phi_K|^2, sampled exactly on the grid.
    The roundtrip (grid back to parameters) must reproduce the inputs.
    """
    k_cut = n_max + TAIL_MARGIN
    values = c / (np.arange(k_cut) + 1.0) ** p
    params = SchurParameters(values.astype(complex))
    weight = weight_from_parameters(params, grid_size)
    # The rational density has geometric Fourier decay set by its slowest
    # zero; for slowly decaying parameters the grid mean misses exact unit
    # mass by ~1e-9.  Parameters are scale-invariant, so renormalizing is
    # exact for the roundtrip.
    mu = build_measure(weight, normalize=True)
    depth = min(64, n_max)
    back = verblunsky_from_measure(mu, depth)
    gap = float(np.max(np.abs(back.values - values[:depth])))
    if gap > 1e-6:
        raise FamilyValidationError(
            f"ell2({c},{p}) roundtrip off by {gap:.3g} at depth {depth}"
        )

    def density(theta: float) -> float:
        return 1.0 / abs(eval_pair(params, np.exp(1j * theta), k_cut).phi) ** 2

    return FamilyInstance(
        name=f"ell2(c={c:g},p={p:g})",
        kind="ell2",
        spec={"name": "ell2", "c": float(c), "p": float(p)},
        measure=mu,
        params=params,
        density_at=density,
        test_angles=(0.0, np.pi),
        route="parameter-first",
        build_depth=n_max,
    )


def _widest_gap_midpoint(angles: Sequence[float]) -> float:
    """Midpoint of the widest arc between consecutive angles on the circle."""
    ordered = sorted(angles)
    ends = ordered[1:] + [ordered[0] + 2.0 * np.pi]
    width, start = max((end - start, start) for start, end in zip(ordered, ends))
    return (start + width / 2.0) % (2.0 * np.pi)


def mixed_family(
    base: dict,
    atoms: Sequence[dict],
    grid_size: int = 4096,
    n_max: int = 64,
) -> FamilyInstance:
    """Smooth base density scaled down plus explicit point masses.

    The base must be atom-free (a family whose record sets mixed_base); its
    weight is scaled by 1 - sum(masses) so the total stays a probability
    measure.
    """
    base_args = dict(base)
    base = FAMILIES[base_args.pop("name")].builder(
        grid_size=grid_size, n_max=0, **base_args
    )
    atoms = tuple((d["angle"], d["mass"]) for d in atoms)
    scale = 1.0 - sum(m for _, m in atoms)
    mu = build_measure(scale * base.measure.weight, atoms=atoms)
    params = verblunsky_from_measure(mu, n_max)

    atom_bits = ",".join(f"({t:g},{m:g})" for t, m in atoms)

    def density(theta: float) -> float:
        return scale * base.density_at(theta)

    safe_angles = tuple(
        t
        for t in (0.0, 1.0, np.pi)
        if all(abs(np.exp(1j * t) - np.exp(1j * ta)) > 0.3 for ta, _ in atoms)
    ) or (_widest_gap_midpoint([t for t, _ in atoms]),)
    return FamilyInstance(
        name=f"mixed({base.name};atoms=[{atom_bits}])",
        kind="mixed",
        spec={
            "name": "mixed",
            "base": base.spec,
            "atoms": [{"angle": t, "mass": m} for t, m in atoms],
        },
        measure=mu,
        params=params,
        density_at=density,
        test_angles=safe_angles,
        route="measure-first",
        build_depth=n_max,
    )


# -----------------------------------------------------------------------------
# Family records: arguments, ranges, builder and grid floor, stated once
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

    ``min_grid(depth)`` is the smallest grid on which the family builds at
    that parameter depth.  ``finite_parameters`` marks families whose
    parameters vanish after the first few, so product and sum identities
    close exactly; ``refinement_skip``, when set, says why doubling the
    grid moves the family's quadrature beyond roundoff.  ``atom_angles(spec)``
    gives the angles of the point masses a valid spec builds.
    """

    name: str
    description: str
    builder: Callable[..., FamilyInstance]
    args: Tuple[Arg, ...] = ()
    mixed_base: bool = False
    min_grid: Callable[[int], int] = lambda depth: 0
    finite_parameters: bool = False
    refinement_skip: str = ""
    atom_angles: Callable[[dict], Tuple[float, ...]] = lambda spec: ()

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
            lebesgue_family,
            mixed_base=True,
            finite_parameters=True,
        ),
        Family(
            "bernstein_szego",
            "density (1-r^2)/|1-r xi|^2, one parameter",
            bernstein_szego_family,
            (_interval("r", 0.0, 1.0),),
            mixed_base=True,
            finite_parameters=True,
        ),
        Family(
            "geronimus",
            "constant parameters on an arc plus a point mass",
            geronimus_family,
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
            ell2_family,
            (
                _interval("c", 0.0, 1.0),
                _interval("p", 0.0, math.inf, low_open=True),
            ),
            min_grid=lambda depth: NODES_PER_PARAMETER * (depth + TAIL_MARGIN),
        ),
    )
}
FAMILIES["mixed"] = Family(
    "mixed",
    "scaled smooth base plus point masses",
    mixed_family,
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
    the family's grid floor at build depth ``depth``.
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
    return out


def build_family(spec: dict, grid_size: int, n_max: int) -> FamilyInstance:
    """Build a family from its config dictionary ({"name": ..., args...})."""
    args = check_spec(spec, grid_size, n_max)
    return FAMILIES[args.pop("name")].builder(
        grid_size=grid_size, n_max=n_max, **args
    )
