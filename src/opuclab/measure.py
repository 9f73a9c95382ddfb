"""Probability measures on the unit circle: grid density plus point masses.

A measure is represented as mu = w dm + mu_s where w is sampled on the
uniform angular grid theta_j = 2 pi j / N (density against normalized
Lebesgue measure m, m(T) = 1) and mu_s is a finite list of atoms.  The
representation supports every experiment downstream except singular
continuous parts, which are out of scope.

Quadrature policy
-----------------
The measure is one quadrature rule, ``CircleMeasure.quadrature()``: the N
grid nodes with weights w_j / N (the periodic trapezoid rule, spectrally
accurate for smooth periodic integrands), then the atom points with their
masses, which are exact and never smeared onto the grid.  For the
power-of-two N that configs allow, w_j / N is exact, so a sum over the
grid part equals the grid mean bitwise.  Trigonometric moments of sampled
data alias above N/8, so moment orders beyond that raise
:class:`~opuclab.errors.AliasRisk`.

The interior extensions (``poisson``, ``poisson_log_weight``,
``weighted_poisson`` and the Schwarz-kernel means behind the outer and
Herglotz functions) are grid means of a row against a kernel at z, plus
the atom terms, over a batch of points at a time (``_poisson_means``).
The grid means have one route, a closed form in the row's DFT band
(``_grid_means``; Trefethen and Weideman, SIAM Review 2014; Henrici,
Applied and Computational Complex Analysis, Vol. 3, Ch. 13), exact for
the grid quadrature at any band width K.  A point reads a term c_k z^k
only while |z|^k >= ``_TERM_CUT``, so it costs O(min(K, log(cut) /
log|z|)).  The sum takes one power table per chunk of points and one
BLAS dot per row, point and block of at most ``_BLOCK`` exponents, so its
last bits follow the BLAS build's dot kernel and, through the power
table, numpy's CPU dispatch (README, "Determinism").
The bands of w and log w come from one FFT each, after which the measure
keeps a band's width K and its first min(K, N/8 + 1) coefficients: each
row's one Fourier record, which ``moments`` and the grid mean of log w
read too.  A call builds its coefficient table and blocks only up to the
largest reach of its points, so its set-up is O(reach), not O(N); only a
batch that reads a band past N/8 takes a transient FFT.  ``poisson_route``
reports the widths.  One kernel call over every (point, atom) pair gives
the atom terms of the batch.

Grid
----
``grid_angles`` states theta_j = 2 pi j / N once.  Data that live on the
grid (w, the outer function D, the Herglotz transform F) are read at a
test point's nearest node, which ``snap`` alone picks: it returns j and
the point bitwise ``boundary_points[j]``, without the other N - 1 nodes.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    AliasRisk,
    BoundaryPoint,
    GridMismatch,
    InvalidAtoms,
    NegativeInput,
    NonNormalizable,
    NotOnBoundary,
    NotSzego,
    OutOfRange,
)

# Density samples below this are treated as a failure of log-integrability:
# log w quadrature on samples cannot distinguish a genuinely non-Szego
# density from one that merely dips below roundoff, so the floor is the
# documented proxy for the Szego class.
W_FLOOR = 1e-14

# Interior Poisson evaluation refuses points within this distance of the
# boundary; the kernel grows like 1/distance and quadrature degrades first.
BOUNDARY_EXCLUSION = 1e-12

# Tolerance used to accept a complex number as a boundary point.
_BOUNDARY_TOL = 1e-9

_NORMALIZATION_TOL = 1e-12

# A point reads the term c_k z^k of a closed-form grid mean only while
# |z|^k is at least this, so it costs O(min(K, log(cut) / log|z|)) for a
# band of K coefficients: about 4100 terms at |z| = 0.99.  The sum runs
# over blocks of at most _BLOCK exponents, one BLAS dot each, for chunks
# of points that hold at most _WORK terms of a row.  Blocks stay at 512
# or fewer: a dot's SIMD lane sums and the doubling error of its power
# table grow with its width.  With _BLOCK = 4096, 5 of 120 seeded points
# at N(1 - |z|) = 8 on ell2 and geronimus at N = 4096 read errors above
# 1e-14 against the 40-digit quadrature (4 on the x86-64-v2 path), and 1
# (0) at 512 (BENCH_poisson_dots.json).  A dot this short does not thread.
_TERM_CUT = 1e-18
_BLOCK = 512
_WORK = 16384

# 0.._BLOCK - 1 with the pair 2m, 2m + 1 swapped wherever m has an odd
# number of set bits (the Thue-Morse sequence): along any power-of-two
# stride, the parities of these exponents come in runs of at most two.
_PAIR_ORDER = np.arange(_BLOCK) ^ np.repeat(
    [bin(m).count("1") % 2 for m in range(_BLOCK // 2)], 2
)


def _point(z, name: str) -> Tuple[complex, float]:
    """(z, |z|) with |z| as ``abs`` rounds it, inf where that overflows, or
    OutOfRange when z is not finite; ``name`` names z in the message."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise OutOfRange(f"{name} = {z!r} is not finite")
    try:
        return z, abs(z)
    except OverflowError:
        return z, math.inf


def _as_boundary(xi0: complex) -> complex:
    xi0, size = _point(xi0, "boundary point xi0")
    if abs(size - 1.0) > _BOUNDARY_TOL:
        raise NotOnBoundary(f"|xi0| = {size:.6g}, expected a unimodular point")
    return xi0 / size


@dataclass(frozen=True)
class CircleMeasure:
    """Immutable probability measure w dm + sum of atoms.

    Attributes
    ----------
    grid_size : int
        Number N of equispaced angles theta_j = 2 pi j / N.
    weight : np.ndarray
        N nonnegative density samples w(e^{i theta_j}).
    atoms : tuple of (angle, mass)
        Point masses at pairwise distinct angles in [0, 2 pi).

    Construction refuses a negative sample (NegativeInput), atoms that
    ``check_atoms`` refuses, and a total mass that is not 1 (NonNormalizable).
    """

    grid_size: int
    weight: np.ndarray
    atoms: Tuple[Tuple[float, float], ...] = ()
    _spectrum_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "grid_size", _order(self.grid_size, 1, "grid_size"))
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 1 or len(w) != self.grid_size:
            raise GridMismatch(
                f"weight has {w.shape} samples, grid_size is {self.grid_size}"
            )
        if np.any(w < 0):
            raise NegativeInput(f"negative density sample (min {w.min():g})")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "atoms", check_atoms(self.atoms))
        total = self.total_mass
        if not abs(total - 1.0) <= _NORMALIZATION_TOL:  # a NaN sample too
            raise NonNormalizable(
                f"total mass {total!r} is not 1; build_measure(..., "
                "normalize=True) rescales a finite positive one"
            )

    # -- derived data ---------------------------------------------------------
    @property
    def angles(self) -> np.ndarray:
        """Grid angles theta_j."""
        return grid_angles(self.grid_size)

    @property
    def boundary_points(self) -> np.ndarray:
        """Grid points e^{i theta_j}."""
        return np.exp(1j * self.angles)

    @property
    def atom_points(self) -> np.ndarray:
        return np.exp(1j * np.array([a for a, _ in self.atoms]))

    @property
    def atom_masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms])

    def quadrature(self) -> Tuple[np.ndarray, np.ndarray]:
        """(nodes, weights) with integral of f dmu = sum of weights * f(nodes).

        The grid points with weights w_j / N, then the atom points with
        their masses; computed on each call, like ``boundary_points``.
        """
        nodes = np.concatenate([self.boundary_points, self.atom_points])
        weights = np.concatenate([self.weight / self.grid_size, self.atom_masses])
        return nodes, weights

    @property
    def total_mass(self) -> float:
        return _total(self.weight, [m for _, m in self.atoms])

    @property
    def is_szego(self) -> bool:
        """True when every density sample clears the log-integrability floor."""
        return bool(self.weight.min() >= W_FLOOR)

    def require_szego(self) -> None:
        if not self.is_szego:
            raise NotSzego(
                f"density sample below w_floor={W_FLOOR:g}; "
                "Szego-dependent operation refused"
            )


def _total(weight: np.ndarray, masses: Sequence[float]) -> float:
    """Grid mean of the weight plus the masses, unwarned past double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(weight.mean()) + sum(masses)


def check_atoms(
    atoms: Sequence[Tuple[float, float]]
) -> Tuple[Tuple[float, float], ...]:
    """The atoms as float (angle, mass) pairs, or InvalidAtoms/NegativeInput.

    Masses must be positive and angles pairwise distinct in [0, 2 pi).
    """
    atom_list = tuple((float(angle), float(mass)) for angle, mass in atoms)
    for angle, mass in atom_list:
        if not mass > 0:
            raise NegativeInput(f"atom mass {mass!r} must be positive")
        if not (0.0 <= angle < 2.0 * np.pi):
            raise InvalidAtoms(f"atom angle {angle!r} outside [0, 2*pi)")
    if len({a for a, _ in atom_list}) != len(atom_list):
        raise InvalidAtoms("atom angles must be pairwise distinct")
    return atom_list


def build_measure(
    weight_samples: Sequence[float],
    atoms: Sequence[Tuple[float, float]] = (),
    normalize: bool = False,
) -> CircleMeasure:
    """Assemble a :class:`CircleMeasure`, which validates samples and atoms.

    With ``normalize`` set, weight and masses are scaled by a common factor
    so the total mass is 1; otherwise the input must already be normalized.
    A total that is not finite and positive is left unscaled, for
    ``CircleMeasure`` to refuse.
    """
    w = np.asarray(weight_samples, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise NonNormalizable("weight_samples must be a nonempty 1-d sequence")
    atoms = tuple(atoms)
    if normalize:
        total = _total(w, [float(m) for _, m in atoms])
        if 0.0 < total < np.inf:
            w = w / total
            atoms = tuple((a, float(m) / total) for a, m in atoms)
    return CircleMeasure(len(w), w, atoms)


def lebesgue(grid_size: int = 4096) -> CircleMeasure:
    """Normalized Lebesgue measure on the circle."""
    grid_size = _order(grid_size, 1, "grid_size")
    return CircleMeasure(grid_size, np.ones(grid_size))


def grid_angles(grid_size: int, nodes=None) -> np.ndarray:
    """Grid angles theta_j = 2 pi j / N at the node indices ``nodes`` (an
    int or an array of them), at all N nodes by default."""
    j = np.arange(grid_size) if nodes is None else np.asarray(nodes)
    return 2.0 * np.pi * j / grid_size


def snap(grid_size: int, xi: complex) -> Tuple[int, complex]:
    """The grid node nearest the boundary point xi, as (j, e^{i theta_j}).

    The point is bitwise ``CircleMeasure.boundary_points[j]``: each
    element of an array operation rounds as the scalar operation does.
    Angles just below 2 pi wrap to node 0.
    """
    angle = float(np.angle(xi)) % (2.0 * np.pi)
    j = int(round(angle * grid_size / (2.0 * np.pi))) % grid_size
    return j, complex(np.exp(1j * grid_angles(grid_size, j)))


# -----------------------------------------------------------------------------
# Poisson extensions
# -----------------------------------------------------------------------------
def _check_interior(z: complex) -> complex:
    z, size = _point(z, "interior point z")
    if size >= 1.0 - BOUNDARY_EXCLUSION:
        raise BoundaryPoint(f"|z| = {size:.12g} too close to the boundary")
    return z


def _interior_points(z) -> list:
    """One interior point or a 1-d array of them, as a list of complex."""
    if np.ndim(z) == 0:
        return [_check_interior(z)]
    if np.ndim(z) != 1:
        raise OutOfRange("interior points must be one point or a 1-d array")
    return [_check_interior(v) for v in z]


def _poisson_kernel(conj_points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(1 - |z|^2) / |1 - conj(xi) z|^2 at unimodular points xi, given
    conj(xi), with z an array paired with them.  1 - |z|^2 rounds as
    Python's ``1 - abs(z) ** 2`` (libm hypot and pow)."""
    kernel = np.square(np.abs(1.0 - conj_points * z))
    size = 1.0 - np.float_power(np.hypot(z.real, z.imag), 2.0)
    return size / kernel


def _schwarz_kernel(points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(xi + z) / (xi - z) at the given unimodular points, paired with z as
    for ``_poisson_kernel``; its real part is the Poisson kernel."""
    return (points + z) / (points - z)


def _band(row: np.ndarray) -> np.ndarray:
    """The band c_0..c_{K-1} of a real grid row's DFT, ``np.fft.rfft(row)
    / N``: K is one more than the last k <= N/2 with |c_k| above the FFT
    noise floor eps * max|row|, and c_{N-k} = conj(c_k) as the row is real.
    """
    half = np.fft.rfft(row) / len(row)
    floor = np.finfo(float).eps * np.max(np.abs(row))
    above = np.flatnonzero(np.abs(half) > floor)
    return half[: int(above[-1]) + 1 if above.size else 1]


def _row_samples(mu: CircleMeasure, name: str) -> np.ndarray:
    return np.log(mu.weight) if name == "log_weight" else mu.weight


def _band_record(mu: CircleMeasure, name: str) -> Tuple[int, np.ndarray]:
    """(K, c_0..c_{min(K, N/8 + 1) - 1}) of the band of one of the measure's
    own rows, "weight" or "log_weight": the row's one Fourier record, cached
    on the measure from one FFT, which ``moments`` and the Szego formula's
    grid mean of log w read too.

    A batch that reads past a shorter prefix takes the band from a
    transient FFT (``_grid_means``), so no record holds more than N/8 + 1
    numbers.
    """
    key = ("band", name)
    record = mu._spectrum_cache.get(key)
    if record is None:
        band = _band(_row_samples(mu, name))
        head = band[: max_trusted_moment(mu.grid_size) + 1].copy()
        head.flags.writeable = False
        record = mu._spectrum_cache[key] = (len(band), head)
    return record


def _powers(z: np.ndarray, width: int) -> np.ndarray:
    """z^0..z^(width - 1) at the points z, as a (points, width) complex
    array, by doubling: z^s..z^(2s - 1) is z^s times z^0..z^(s - 1)."""
    table = np.ones((len(z), width), dtype=complex)
    step, s = z[:, None], 1
    while s < width:
        n = min(s, width - s)
        np.multiply(table[:, :n], step, out=table[:, s : s + n])
        step, s = step * step, 2 * s
    return table


def _grid_means(
    mu: CircleMeasure, zs: list, bands: Sequence[np.ndarray], kernel
) -> np.ndarray:
    """Kernel grid means of real rows, given their bands, in closed form.

    A band is the array c_0..c_{K-1} of a row, or the name of a measure's
    own row, whose band ``_band_record`` holds.

    With c_k the DFT of a row, the grid mean of row * (xi + z)/(xi - z) is
    2 S(z) / (1 - z^N) - c_0 with S(z) = sum_{k<N} c_k z^k; 1/(1 - z^N)
    carries the aliasing, and the Poisson mean is the real part.  The
    nonzero c_k are c_0..c_{K-1} and c_{N-k} = conj(c_k), the Nyquist term
    counted once: one run of exponents, or two where the runs of c_k and
    c_{N-k} do not meet, each padded to an even length with a zero
    coefficient (for odd N, the one run with k = N).  S' = S - c_0 runs
    over blocks of each run, and a point reads no term past its reach; the
    table of c_k stops at the last block the batch reads.  The mean is
    then c_0 + 2 S' + 2 S z^N / (1 - z^N), so where c_0 and 2 S' cancel,
    no rounding of their size comes before their one subtraction.

    A block's sum is one BLAS dot per row and point (``np.vecdot``) of its
    coefficients with z^0..z^(w - 1), of a width w the bands fix, and each
    point adds its blocks from its last to its first, scaled by z^start.
    Every dot, product and sum of a point is its own, so its value is the
    same in any batch.  A dot kernel sums in SIMD lanes, each taking every
    2nd, 4th or 8th term; along a real-axis ray the terms alternate in
    sign, so such a lane would sum terms of one sign and the lanes would
    then cancel.  Each block therefore holds its exponents in
    ``_PAIR_ORDER``.  The dots' last bits follow the BLAS build's kernel
    (README, "Determinism"); the complex products of the power table and
    the scaling round as numpy's multiply loop does on the CPU at hand,
    and each takes operands of one ndim: numpy multiplies a lone element
    whose operands differ in ndim without fusing, where a batch would
    fuse.
    """
    points = np.array(zs, dtype=complex)
    grid_size = mu.grid_size
    records = [
        _band_record(mu, band) if isinstance(band, str) else (len(band), band)
        for band in bands
    ]
    low = max(width for width, _ in records)
    low += low % 2
    top = grid_size - low
    whole = grid_size + grid_size % 2
    runs = [(0, low), (top, grid_size)] if top > low else [(0, whole)]
    # a point reads the terms with |z|^k >= _TERM_CUT, at most N of them;
    # sorted by reach, each block a chunk reads is read by a prefix of it
    with np.errstate(divide="ignore"):
        reach = np.log(_TERM_CUT) / np.log(np.abs(points))
    reach = np.minimum(np.floor(reach), grid_size - 1).astype(int) + 1
    end = reach.max(initial=1)
    # (first exponent, first column, width) of each block that starts
    # below the batch's largest reach; widths double from _BLOCK / 8 up to
    # _BLOCK along a run, so a point of short reach reads a short block
    blocks, exponents, column = [], [], 0
    for a, b in runs:
        s = a
        while s < min(b, end):
            w = min(_BLOCK, max(_BLOCK // 8, s - a), b - s)
            blocks.append((s, column, w))
            exponents.append(s + _PAIR_ORDER[:w])
            s, column = s + w, column + w
    k = np.concatenate(exponents)
    fold = np.minimum(k, grid_size - k)
    coefficients = np.zeros((len(bands), 1, len(k)), dtype=complex)
    for row, band, (width, head) in zip(coefficients[:, 0], bands, records):
        if len(head) <= min(width - 1, fold.max()):
            # the batch reads past a named row's cached prefix
            head = _band(_row_samples(mu, band))
        inside = (fold < width) & (k < grid_size)
        row[inside] = head[fold[inside]]
    # vecdot conjugates its first operand, so the table holds conj(c_k);
    # column 0 is k = 0, whose c_0 is added last
    np.conjugate(coefficients, out=coefficients, where=k <= grid_size // 2)
    coefficients[..., 0] = 0.0
    starts = np.array([start for start, _, _ in blocks])
    order = np.argsort(-reach, kind="stable")
    z, reach = points[order], reach[order]
    sums = np.zeros((len(bands), len(zs)), dtype=complex)
    chunk = max(1, _WORK // max(w for _, _, w in blocks))
    for first in range(0, len(zs), chunk):
        ends = reach[first : first + chunk]
        widest = max(w for start, _, w in blocks if start < ends[0])
        table = _powers(z[first : first + chunk], widest)
        # np.take keeps rows contiguous, where table[:, order] would not:
        # OpenBLAS sums a strided vector in another order
        table = np.take(table, _PAIR_ORDER[:widest], axis=1)
        counts = np.count_nonzero(ends > starts[:, None], axis=1)
        read = np.count_nonzero(counts)
        shifts = np.power(z[None, first : first + chunk], starts[:read, None])
        for (start, column, w), count, shift in zip(
            blocks[read - 1 :: -1], counts[read - 1 :: -1], shifts[::-1]
        ):
            powers = table[None, :count, :w]
            if ends[count - 1] < start + w:
                live = start + _PAIR_ORDER[:w] < ends[:count, None]
                powers = np.where(live, powers, 0.0)
            block = coefficients[..., column : column + w]
            terms = np.vecdot(block, powers)
            sums[:, first : first + count] += terms * shift[None, :count]
    sums = sums[:, np.argsort(order)]
    c0 = np.array([head[0] for _, head in records])[:, None]
    power = np.power(points[None], grid_size)
    alias = 1.0 - power
    size = alias.real * alias.real + alias.imag * alias.imag
    ratio = power * np.conj(alias)
    ratio = ratio.real / size + 1j * (ratio.imag / size)
    means = (c0 + 2.0 * sums) + 2.0 * ((c0 + sums) * ratio)
    return means.real.copy() if kernel is _poisson_kernel else means


def _poisson_means(
    mu: CircleMeasure, zs: list, rows: Sequence, kernel=_poisson_kernel
) -> np.ndarray:
    """Kernel extensions of several densities at the interior points zs.

    ``rows`` holds (grid_row, atom_row) pairs: entry (i, j) of the result
    is the grid mean of grid_row * kernel(., zs[j]) plus, unless atom_row
    is None, the sum of atom_row * kernel(., zs[j]) over the atoms; a
    grid_row is an array of N samples or the name of one of the measure's
    own, "weight" or "log_weight".  The kernel is ``_poisson_kernel`` (real
    result) or ``_schwarz_kernel`` (complex result).

    The grid means come in closed form (``_grid_means``).  One kernel call
    over the flat (point, atom) pairs gives every atom term, in the
    multiply loop a one-point call takes; each point sums its atoms in
    order and adds that sum to its grid mean, so its value is its
    one-point value.
    """
    bands = [row if isinstance(row, str) else _band(row) for row, _ in rows]
    out = _grid_means(mu, zs, bands, kernel)
    atom_rows = [(i, row) for i, (_, row) in enumerate(rows) if row is not None]
    if atom_rows:
        atom_points = mu.atom_points
        if kernel is _poisson_kernel:
            atom_points = np.conj(atom_points)
        count = len(atom_points)
        pairs = np.repeat(np.array(zs, dtype=complex), count)
        atom_kernel = kernel(np.tile(atom_points, len(zs)), pairs).reshape(-1, count)
        for i, atom_row in atom_rows:
            out[i] += np.add.reduce(atom_row * atom_kernel, axis=1)
    return out


def poisson_route(mu: CircleMeasure) -> str:
    """The DFT band widths K of w and log w behind the Poisson means, for
    example "band 30/28 of N = 16384"; log w is left out for a measure
    outside the Szego class."""
    names = ("weight", "log_weight") if mu.is_szego else ("weight",)
    widths = "/".join(str(_band_record(mu, name)[0]) for name in names)
    return f"band {widths} of N = {mu.grid_size}"


def _one_or_many(z, values: np.ndarray):
    """A Python scalar for a single point z, else the array of values."""
    return values[0].item() if np.ndim(z) == 0 else values


def poisson(mu: CircleMeasure, z) -> float | np.ndarray:
    """Harmonic extension P(mu, z) of the measure into the disk.

    ``z`` is one interior point (returns a float) or a 1-d array of them
    (returns an array); the same holds for every extension below.
    """
    zs = _interior_points(z)
    masses = mu.atom_masses if mu.atoms else None
    return _one_or_many(z, _poisson_means(mu, zs, [("weight", masses)])[0])


def poisson_log_weight(mu: CircleMeasure, z) -> float | np.ndarray:
    """Harmonic extension P(log w, z) of the log-density.

    Atoms are invisible here: log w only sees the absolutely continuous part.
    """
    mu.require_szego()
    zs = _interior_points(z)
    return _one_or_many(z, _poisson_means(mu, zs, [("log_weight", None)])[0])


def weighted_poisson(
    mu: CircleMeasure,
    g_samples: Sequence[float],
    z,
    g_atom_values: Sequence[float] | None = None,
) -> float | np.ndarray:
    """P(g dmu, z) for nonnegative g given by grid samples plus atom values."""
    zs = _interior_points(z)
    g = np.asarray(g_samples, dtype=float)
    if g.shape != mu.weight.shape:
        raise GridMismatch(f"g has shape {g.shape}, grid expects {mu.weight.shape}")
    if np.any(g < 0):
        raise NegativeInput("weighted_poisson requires g >= 0")
    atom_row = None
    if mu.atoms:
        if g_atom_values is None:
            raise GridMismatch("measure has atoms; g values at atoms required")
        ga = np.asarray(g_atom_values, dtype=float)
        if ga.shape != (len(mu.atoms),):
            raise GridMismatch(
                f"{len(mu.atoms)} atom values expected, got shape {ga.shape}"
            )
        if np.any(ga < 0):
            raise NegativeInput("weighted_poisson requires g >= 0 at the atoms")
        atom_row = mu.atom_masses * ga
    with np.errstate(over="ignore"):
        grid_row = g * mu.weight
    if not np.isfinite(np.r_[grid_row, () if atom_row is None else atom_row]).all():
        raise OutOfRange("g dmu is not finite: a g value is NaN, inf or too large")
    return _one_or_many(z, _poisson_means(mu, zs, [(grid_row, atom_row)])[0])


# -----------------------------------------------------------------------------
# Moments and Fejer means
# -----------------------------------------------------------------------------
def max_trusted_moment(grid_size: int) -> int:
    """Largest moment order a grid of this size delivers without aliasing risk."""
    return grid_size // 8


def _order(n, least: int, name: str) -> int:
    """The order or size n as an int, or OutOfRange when it is a bool or not
    an integer of at least ``least``; ``name`` names it in the message."""
    try:
        order = operator.index(n)
    except TypeError:
        order = None
    if order is None or isinstance(n, bool):
        raise OutOfRange(f"{name} {n!r} is not an integer")
    if order < least:
        raise OutOfRange(f"{name} {order} must be >= {least}")
    return order


def moments(mu: CircleMeasure, k_max: int) -> np.ndarray:
    """Trigonometric moments c_0..c_{k_max}, c_k = integral of conj(xi)^k dmu;
    conj(c_k) is the moment of order -k.  The grid part reads w's band
    record, so it is 0 from the band width K on, under eps * max w."""
    k_max = _order(k_max, 0, "moment order")
    if k_max > max_trusted_moment(mu.grid_size):
        raise AliasRisk(
            f"moment order {k_max} beyond trusted band N/8 = "
            f"{max_trusted_moment(mu.grid_size)}; enlarge grid_size"
        )
    head = _band_record(mu, "weight")[1][: k_max + 1]
    values = np.zeros(k_max + 1, dtype=complex)
    values[: len(head)] = head
    k = np.arange(k_max + 1)
    for angle, mass in mu.atoms:
        values += mass * np.exp(-1j * k * angle)
    return values


def moment(mu: CircleMeasure, k: int) -> complex:
    """Trigonometric moment c_k = integral of conj(xi)^k dmu."""
    return complex(moments(mu, k)[k])


def fejer_mean(mu: CircleMeasure, xi0: complex, n: int) -> float:
    """Fejer mean of order n-1 at xi0.

    Equals (1/n) * integral |p_{n-1}|^2 dmu for p_{n-1}(z) =
    sum_{k<n} conj(xi0)^k z^k, evaluated through moments as
    sum_{|d|<n} (1 - |d|/n) xi0^d c_d.  Strictly positive for n >= 1.
    """
    xi0 = _as_boundary(xi0)
    n = _order(n, 1, "Fejer mean order")
    c = moments(mu, n - 1).tolist()
    value = 1.0
    for d in range(1, n):
        value += 2.0 * (1.0 - d / n) * (xi0**d * c[d]).real
    return float(value)

