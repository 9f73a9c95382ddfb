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
The grid means have a closed form in the row's DFT, summed over its band
K in O(K) per point when every row of a call has K <= N/8
(``_spectral_means``; Trefethen and Weideman, SIAM Review 2014; Henrici,
Applied and Computational Complex Analysis, Vol. 3, Ch. 13); otherwise
the direct kernel sums all N nodes, O(N) per point (``_direct_means``).
The bands of w and log w are cached on the measure as O(K) numbers
(``_Band``), and ``poisson_route`` names the route taken.  One kernel
call over every (point, atom) pair gives the atom terms of the batch.

Grid
----
``grid_angles`` states theta_j = 2 pi j / N once.  Data that live on the
grid (w, the outer function D, the Herglotz transform F) are read at a
test point's nearest node, which ``snap`` alone picks: it returns j and
the point bitwise ``boundary_points[j]``, without the other N - 1 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Tuple

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


def _as_boundary(xi0: complex) -> complex:
    xi0 = complex(xi0)
    if abs(abs(xi0) - 1.0) > _BOUNDARY_TOL:
        raise NotOnBoundary(f"|xi0| = {abs(xi0):.6g}, expected a unimodular point")
    return xi0 / abs(xi0)


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
    """

    grid_size: int
    weight: np.ndarray
    atoms: Tuple[Tuple[float, float], ...] = ()
    _spectrum_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 1 or len(w) != self.grid_size:
            raise GridMismatch(
                f"weight has {w.shape} samples, grid_size is {self.grid_size}"
            )
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weight", w)
        total = self.total_mass
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise NonNormalizable(
                f"total mass {total!r} is not 1 (construct via build_measure)"
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
        return float(self.weight.mean() + sum(m for _, m in self.atoms))

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

    def _spectrum(self) -> np.ndarray:
        """Cached DFT of the weight samples, scaled so entry k is the grid
        quadrature of w(theta) e^{-ik theta}, for the orders k <= N/8 that
        ``moments`` trusts; the rest is not kept."""
        spec = self._spectrum_cache.get("fft")
        if spec is None:
            spec = np.fft.fft(self.weight) / self.grid_size
            spec = spec[: max_trusted_moment(self.grid_size) + 1].copy()
            spec.flags.writeable = False
            self._spectrum_cache["fft"] = spec
        return spec


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
    """Validate and assemble a :class:`CircleMeasure`.

    With ``normalize`` set, weight and masses are scaled by a common factor
    so the total mass is 1; otherwise the input must already be normalized.
    """
    w = np.asarray(weight_samples, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise NonNormalizable("weight_samples must be a nonempty 1-d sequence")
    if np.any(w < 0):
        raise NegativeInput(f"negative density sample (min {w.min():g})")
    atom_list = check_atoms(atoms)
    total = w.mean() + sum(m for _, m in atom_list)
    if total <= 0 or not np.isfinite(total):
        raise NonNormalizable("measure carries no finite positive mass")
    if normalize:
        w = w / total
        atom_list = tuple((a, m / total) for a, m in atom_list)
    return CircleMeasure(len(w), w, atom_list)


def lebesgue(grid_size: int = 4096) -> CircleMeasure:
    """Normalized Lebesgue measure on the circle."""
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
    z = complex(z)
    if abs(z) >= 1.0 - BOUNDARY_EXCLUSION:
        raise BoundaryPoint(f"|z| = {abs(z):.12g} too close to the boundary")
    return z


def _interior_points(z) -> list:
    """One interior point or a 1-d array of them, as a list of complex."""
    if np.ndim(z) == 0:
        return [_check_interior(z)]
    if np.ndim(z) != 1:
        raise OutOfRange("interior points must be one point or a 1-d array")
    return [_check_interior(v) for v in z]


def _poisson_kernel(
    conj_points: np.ndarray, z, out=None, scratch=None
) -> np.ndarray:
    """(1 - |z|^2) / |1 - conj(xi) z|^2 at unimodular points xi, given
    conj(xi); ``z`` is one point or an array paired with them.  1 - |z|^2
    rounds as Python's ``1 - abs(z) ** 2`` (libm hypot and pow) in both
    cases.  ``out`` (real) and ``scratch`` (complex) are optional buffers
    of the points' length; the result is ``out`` when given."""
    w = np.multiply(conj_points, z, out=scratch)
    np.subtract(1.0, w, out=w)
    kernel = np.abs(w, out=out)
    np.square(kernel, out=kernel)
    size = 1.0 - np.float_power(np.hypot(z.real, z.imag), 2.0)
    return np.divide(size, kernel, out=kernel)


def _schwarz_kernel(
    points: np.ndarray, z, out=None, scratch=None
) -> np.ndarray:
    """(xi + z) / (xi - z) at the given unimodular points; its real part is
    the Poisson kernel.  ``z``, ``out`` and ``scratch`` are as for
    ``_poisson_kernel``, with ``out`` complex too."""
    w = np.subtract(points, z, out=scratch)
    kernel = np.add(points, z, out=out)
    return np.divide(kernel, w, out=kernel)


class _Band(NamedTuple):
    """Where a real grid row's DFT c_k (``np.fft.fft(row) / N``) carries
    weight.

    ``width`` is K, one more than the last k <= N/2 with |c_k| above the
    FFT noise floor eps * max|row|.  A narrow band (K <= N/8) keeps
    ``low`` = c_0..c_{K-1}; c_{N-K+1}..c_{N-1} are their conjugates in
    reverse, since the row is real.  A wide band keeps only K (``low`` is
    None), so no record holds O(N) numbers.
    """

    width: int
    low: np.ndarray | None


def _row_band(row: np.ndarray, max_width: int) -> _Band:
    """The band of one real grid row, from a transient real FFT; narrow
    when K is at most ``max_width``."""
    half = np.fft.rfft(row) / len(row)
    floor = np.finfo(float).eps * np.max(np.abs(row))
    above = np.flatnonzero(np.abs(half) > floor)
    width = int(above[-1]) + 1 if above.size else 1
    return _Band(width, half[:width].copy() if width <= max_width else None)


def _grid_row(mu: CircleMeasure, row) -> np.ndarray:
    """The samples of a grid row given as an array or by name."""
    if not isinstance(row, str):
        return row
    if row == "weight":
        return mu.weight
    if row == "log_weight":
        return np.log(mu.weight)
    raise ValueError(f"unknown grid row {row!r}")


def _band(mu: CircleMeasure, row) -> _Band:
    """The band of a grid row.  The measure's own rows come by name, so
    that their bands are cached on it (log w needs an FFT of its own); an
    array row gets a transient FFT on each call."""
    if not isinstance(row, str):
        return _row_band(row, max_trusted_moment(mu.grid_size))
    key = ("band", row)
    if key not in mu._spectrum_cache:
        row_samples = _grid_row(mu, row)
        mu._spectrum_cache[key] = _row_band(
            row_samples, max_trusted_moment(mu.grid_size)
        )
    return mu._spectrum_cache[key]


def _horner(coefficients: np.ndarray, z: np.ndarray):
    """Real and imaginary parts of sum_k coefficients[i, k] z^k, for every
    row i of coefficients at every point of z, as arrays (rows, points).

    Real arithmetic throughout: numpy's complex multiply takes different
    loops (fused or not) for different array lengths, while each real
    operation rounds once, so a point's value is the same in any batch.
    """
    x, y = z.real, z.imag
    re = np.zeros((len(coefficients), len(z)))
    im = np.zeros((len(coefficients), len(z)))
    for column in coefficients.T[::-1]:
        re, im = (
            re * x - im * y + column.real[:, None],
            re * y + im * x + column.imag[:, None],
        )
    return re, im


def _spectral_means(
    mu: CircleMeasure, zs: list, bands: Sequence[_Band], kernel
) -> np.ndarray:
    """Kernel grid means of band-limited rows, in closed form.

    With c_k the DFT of a row, the grid mean of row * (xi + z)/(xi - z) is
    2 S(z) / (1 - z^N) - c_0 with S(z) = sum_{k<N} c_k z^k; 1/(1 - z^N)
    carries the aliasing, and the Poisson mean is the real part.  S is
    summed over the two bands only, by Horner at all points at once: k < K,
    and k > N - K as z^(N-K+1) times a polynomial of degree K - 2.
    """
    z = np.array(zs, dtype=complex)
    grid_size = mu.grid_size
    # rows 2i and 2i + 1: row i's low band and c_{N-K+1}..c_{N-1}, the
    # conjugates of c_{K-1}..c_1, zero-padded at the top
    coefficients = np.zeros((2 * len(bands), max(b.width for b in bands)), complex)
    for i, band in enumerate(bands):
        coefficients[2 * i, : band.width] = band.low
        coefficients[2 * i + 1, : band.width - 1] = np.conj(band.low[:0:-1])
    re, im = _horner(coefficients, z)
    shift = np.power(z, [[grid_size - b.width + 1] for b in bands])
    alias = 1.0 - np.power(z, grid_size)
    sr = re[::2] + (shift.real * re[1::2] - shift.imag * im[1::2])
    si = im[::2] + (shift.real * im[1::2] + shift.imag * re[1::2])
    size = alias.real * alias.real + alias.imag * alias.imag
    c0 = np.array([band.low[0] for band in bands])[:, None]
    real = 2.0 * (sr * alias.real + si * alias.imag) / size - c0.real
    if kernel is _poisson_kernel:
        return real
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = 2.0 * (si * alias.real - sr * alias.imag) / size - c0.imag
    return out


def _direct_means(
    mu: CircleMeasure, zs: list, grid_rows: Sequence[np.ndarray], kernel
) -> np.ndarray:
    """Grid means of each row times kernel(., z), one kernel per point.

    The grid work runs in three node-sized buffers allocated once per
    call (a complex scratch, the kernel and the row product), so memory
    stays O(N) and no array is allocated per point.  Every value is
    bitwise the one-kernel-per-point form: the same operations in the same
    order, and the grid mean is ``np.add.reduce`` divided by N, as in
    ``np.mean``.
    """
    points = mu.boundary_points
    if kernel is _poisson_kernel:
        points = np.conj(points)
        dtype = float
    else:
        dtype = complex
    grid_size = len(points)
    scratch = np.empty(grid_size, dtype=complex)
    kernel_row = np.empty(grid_size, dtype=dtype)
    product = np.empty(grid_size, dtype=dtype)
    out = np.empty((len(grid_rows), len(zs)), dtype=dtype)
    for j, z in enumerate(zs):
        kernel(points, z, out=kernel_row, scratch=scratch)
        for i, grid_row in enumerate(grid_rows):
            np.multiply(grid_row, kernel_row, out=product)
            out[i, j] = np.add.reduce(product) / grid_size
    return out


def _poisson_means(
    mu: CircleMeasure, zs: list, rows: Sequence, kernel=_poisson_kernel
) -> np.ndarray:
    """Kernel extensions of several densities at the interior points zs.

    ``rows`` holds (grid_row, atom_row) pairs: entry (i, j) of the result
    is the grid mean of grid_row * kernel(., zs[j]) plus, unless atom_row
    is None, the sum of atom_row * kernel(., zs[j]) over the atoms.  A
    grid_row is a real array of N samples or the name of one of the
    measure's own rows, "weight" or "log_weight".  The kernel is
    ``_poisson_kernel`` (real result) or ``_schwarz_kernel`` (complex
    result).

    The grid means take one of two routes, gated once here: in closed form
    (``_spectral_means``, O(K) per point) when every row's band K is at
    most ``max_trusted_moment`` = N/8, else by the direct kernel
    (``_direct_means``, O(N) per point).  One kernel call over the flat
    (point, atom) pairs gives every atom term, in the multiply loop a
    one-point call takes; each point sums its atoms in order and adds that
    sum to its grid mean, so its value is its one-point value.
    """
    bands = [_band(mu, grid_row) for grid_row, _ in rows]
    if all(band.low is not None for band in bands):
        out = _spectral_means(mu, zs, bands, kernel)
    else:
        grid_rows = [_grid_row(mu, grid_row) for grid_row, _ in rows]
        out = _direct_means(mu, zs, grid_rows, kernel)
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
    """Which route the Poisson means of w and log w take, and their bands.

    For example "spectral, band 30/28 of N = 16384" or "direct, w band
    12500 > N/8"; log w is left out for a measure outside the Szego class.
    """
    labels = ("w", "log w") if mu.is_szego else ("w",)
    bands = [_band(mu, name) for name in ("weight", "log_weight")[: len(labels)]]
    wide = [
        f"{label} band {band.width} > N/8"
        for label, band in zip(labels, bands)
        if band.low is None
    ]
    if wide:
        return "direct, " + ", ".join(wide)
    widths = "/".join(str(band.width) for band in bands)
    return f"spectral, band {widths} of N = {mu.grid_size}"


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
        atom_row = mu.atom_masses * ga
    rows = [(g * mu.weight, atom_row)]
    return _one_or_many(z, _poisson_means(mu, zs, rows)[0])


# -----------------------------------------------------------------------------
# Moments and Fejer means
# -----------------------------------------------------------------------------
def max_trusted_moment(grid_size: int) -> int:
    """Largest moment order a grid of this size delivers without aliasing risk."""
    return grid_size // 8


def moments(mu: CircleMeasure, k_max: int) -> np.ndarray:
    """Trigonometric moments c_0..c_{k_max}, c_k = integral of conj(xi)^k dmu."""
    if k_max < 0:
        raise OutOfRange("moment order must be >= 0; use conj for negative k")
    if k_max > max_trusted_moment(mu.grid_size):
        raise AliasRisk(
            f"moment order {k_max} beyond trusted band N/8 = "
            f"{max_trusted_moment(mu.grid_size)}; enlarge grid_size"
        )
    values = mu._spectrum()[: k_max + 1].copy()
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
    if n < 1:
        raise OutOfRange("Fejer mean order requires n >= 1")
    c = moments(mu, n - 1).tolist()
    value = 1.0
    for d in range(1, n):
        value += 2.0 * (1.0 - d / n) * (xi0**d * c[d]).real
    return float(value)

