"""Orthonormal polynomials on the circle from their parameter sequence.

The transfer matrix is the single source of truth for conventions: with
rho_n = sqrt(1 - |a_n|^2),

    (phi_{n+1}, phi*_{n+1}) = rho_n^{-1} (z phi_n - conj(a_n) phi*_n,
                                          phi*_n - a_n z phi_n),

starting from (1, 1).  The monic recursions, the two parameter-extraction
routes, and the CMV/Christoffel-Darboux formulas here are all written to
reproduce it, and their mutual agreement is a tested invariant.

Extraction routes
-----------------
* ``verblunsky_from_moments`` runs the monic recursion on Taylor
  coefficients with inner products read from the moment sequence.  Fine for
  tame measures; coefficient growth makes it ill-conditioned when the
  parameters do not decay, so it follows the series cascade's precision
  rule (``schur._escalate``): past 4 digits of loss, or where the double
  pass breaks down, it is redone in fixed point in Python integers.
* ``verblunsky_from_measure`` runs the same recursion on *values* at the
  nodes of ``CircleMeasure.quadrature()``, grid points and atoms alike
  (huge polynomial values are multiplied by tiny weights instead of
  cancelling symbolically).  It runs in complex128 and is redone in
  ``long double`` when its digit-loss estimate passes 4 digits, the one
  extended-precision pass in the package; the transfer recursion runs in
  complex128.

Coefficient space
-----------------
``_coefficient_steps`` runs the transfer recursion above on the Taylor
coefficients of phi_k (multiplying by z shifts them one place).  On the
N-th roots of unity one length-N FFT then stands in for k steps at every
node, O(k^2 + N log N) instead of O(kN), at a relative error of about
10^(digit loss) * eps, the conditioning of phi_k's coefficients:

* ``weight_from_parameters`` samples 1/|phi_K|^2, the reconstruction route
  of parameter-first families;
* ``chi_sums_fft`` integrates functions against the CMV basis, behind the
  digit-loss gate of ``asymptotics.cmv_coefficients``.

Everything else evaluates polynomials by the transfer recursion, one pass
over an array of points.  A column of ``eval_grid_table`` is bitwise the
one-point table at that point, so checks that sample many points draw
them all first and read every value from one table; ``cd_quotient`` and
``cd_laurent`` close the Christoffel-Darboux formulas on values read that
way, for those checks and for ``cd_kernel_poly`` and ``cd_kernel_cmv``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, PositivityLoss
from .measure import CircleMeasure, _as_boundary
from .schur import (
    _SAFE_DIGIT_LOSS,
    ESCAPE_THRESHOLD,
    Fixed,
    SchurParameters,
    _escalate,
    digit_loss,
    fixed_bits,
)

# Depth cap of both parameter-extraction routes; desk scale.
N_MAX = 512

# Near-diagonal switch for the Christoffel-Darboux quotients.
_CD_DIAGONAL = 1e-8

# |phi| whose square is a normal finite double, so 1/|phi|^2 is positive and finite.
_MODULUS_RANGE = (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class PolynomialPair:
    """Values (phi_n(z), phi_n*(z)) at one point."""

    n: int
    phi: complex
    phi_star: complex
    z: complex


@dataclass(frozen=True)
class MonicTable:
    """Monic polynomial workspace from the moment recursion.

    ``norms_sq[n]`` is the squared L^2(mu) norm of the degree-n monic
    polynomial, read off as the inner product of its reflection with 1.
    """

    norms_sq: np.ndarray
    params: SchurParameters


# -----------------------------------------------------------------------------
# Transfer-matrix evaluation
# -----------------------------------------------------------------------------
def _transfer_steps(params: SchurParameters, zs: np.ndarray, n_max: int):
    """Yield (phi_k, phi*_k) over an array of points for k = 0..n_max.

    Rows are complex128 at every order, so a table of order n is a prefix
    of any deeper one; each step makes fresh arrays, so a caller may keep
    any row it is handed.
    """
    if n_max > len(params):
        raise OutOfRange(
            f"n = {n_max} exceeds stored parameter count {len(params)}"
        )
    zs = np.asarray(zs, dtype=complex)
    a = params.values
    conj_a = np.conj(a)
    # numpy divides x by r + 0i as x * (1/r), so multiplying by the
    # reciprocal gives the same values without two divisions per point
    inv_rho = 1.0 / params.rho
    phi = np.ones_like(zs)
    phis = np.ones_like(zs)
    yield phi, phis
    for k in range(n_max):
        zphi = zs * phi
        phi, phis = (zphi - conj_a[k] * phis) * inv_rho[k], (
            phis - a[k] * zphi
        ) * inv_rho[k]
        yield phi, phis


def _coefficient_steps(params: SchurParameters, n_max: int):
    """Yield the Taylor coefficients of (phi_k, phi*_k) for k = 0..n_max.

    The transfer recursion on coefficients: multiplying by z shifts them
    one place.  Each array holds n_max + 1 coefficients, zero past degree
    k, and is fresh at every step.  Raises PositivityLoss at the first
    order k whose coefficients reach modulus sqrt(max double), before any
    of them can overflow.
    """
    if n_max > len(params):
        raise OutOfRange(
            f"n = {n_max} exceeds stored parameter count {len(params)}"
        )
    a = params.values
    inv_rho = 1.0 / params.rho
    phi = np.zeros(n_max + 1, dtype=complex)
    phi[0] = 1.0
    phis = phi.copy()
    yield phi, phis
    for k in range(n_max):
        # z phi_k; phi_k has degree k < n_max, so nothing is shifted out
        zphi = np.concatenate(([0.0], phi[:-1]))
        phi, phis = (zphi - np.conj(a[k]) * phis) * inv_rho[k], (
            phis - a[k] * zphi
        ) * inv_rho[k]
        # phi* holds the same moduli, reversed; a step grows them by at
        # most 2 / rho < 2e6 (|a| < ESCAPE_THRESHOLD), so below this bound
        # the next step and an FFT of them stay finite
        top = np.abs(phi).max()
        if not top < _MODULUS_RANGE[1]:
            raise PositivityLoss(
                f"phi_{k + 1} has a coefficient of modulus {top:.3g}: "
                "its square leaves the finite double range"
            )
        yield phi, phis


def _run_transfer(params: SchurParameters, zs: np.ndarray, n_max: int, keep_all: bool):
    """Apply n_max transfer steps over an array of points.

    Returns (phi, phi_star) as (n_max+1, len(zs)) tables when keep_all,
    else the final row pair.
    """
    if keep_all:
        tab = np.empty((n_max + 1, len(zs)), dtype=complex)
        tabs = np.empty((n_max + 1, len(zs)), dtype=complex)
    for k, (phi, phis) in enumerate(_transfer_steps(params, zs, n_max)):
        if keep_all:
            tab[k] = phi
            tabs[k] = phis
    if keep_all:
        return tab, tabs
    return phi, phis


def eval_pair(params: SchurParameters, z: complex, n: int) -> PolynomialPair:
    """(phi_n(z), phi_n*(z)) by n transfer-matrix applications."""
    phi, phis = _run_transfer(params, np.array([complex(z)]), n, keep_all=False)
    return PolynomialPair(n, complex(phi[0]), complex(phis[0]), complex(z))


def eval_table(params: SchurParameters, z: complex, n_max: int):
    """All orders 0..n_max at one point; returns (phi, phi_star) arrays."""
    tab, tabs = _run_transfer(params, np.array([complex(z)]), n_max, keep_all=True)
    return tab[:, 0], tabs[:, 0]


def eval_grid_table(params: SchurParameters, zs: np.ndarray, n_max: int):
    """All orders 0..n_max over an array of points; (n_max+1, len) tables."""
    return _run_transfer(params, zs, n_max, keep_all=True)


def eval_grid_pair(params: SchurParameters, zs: np.ndarray, n: int):
    """Order-n values over an array of points, O(len) memory."""
    return _run_transfer(params, zs, n, keep_all=False)


# -----------------------------------------------------------------------------
# CMV basis
# -----------------------------------------------------------------------------
def _chi_rows(params: SchurParameters, xis: np.ndarray, n_max: int):
    """Yield chi_k over boundary points for k = 0..n_max.

    chi_{2k} = conj(xi)^k phi*_{2k}, chi_{2k+1} = conj(xi)^k phi_{2k+1}; the
    phase conj(xi)^k is a running product.
    """
    step = np.conj(np.asarray(xis, dtype=complex))
    phase = np.ones_like(step)
    for k, (phi, phis) in enumerate(_transfer_steps(params, xis, n_max)):
        if k % 2:
            yield phase * phi
        else:
            if k:
                phase = phase * step
            yield phase * phis


def _chi_from_pair(pair: PolynomialPair) -> complex:
    """chi_n(xi) from (phi_n(xi), phi*_n(xi)), n = pair.n, xi = pair.z."""
    pref = np.conj(pair.z) ** (pair.n // 2)
    return complex(pref * (pair.phi_star if pair.n % 2 == 0 else pair.phi))


def chi(params: SchurParameters, xi: complex, n: int) -> complex:
    """CMV basis value chi_n(xi) on the boundary."""
    return _chi_from_pair(eval_pair(params, _as_boundary(xi), n))


def chi_table(params: SchurParameters, xi: complex, n_max: int) -> np.ndarray:
    """chi_0(xi) .. chi_{n_max}(xi) at one boundary point."""
    xi = _as_boundary(xi)
    rows = _chi_rows(params, np.array([xi]), n_max)
    return np.array([row[0] for row in rows], dtype=complex)


def chi_sums(
    params: SchurParameters, xis: np.ndarray, values: np.ndarray, n_max: int
) -> np.ndarray:
    """sum_j values[..., j] conj(chi_k(xis[j])) for k = 0..n_max.

    One streamed pass of the transfer recursion: no (n_max+1, len(xis))
    table is formed, so memory is O(values.size) plus a few rows.  Returns
    shape values.shape[:-1] + (n_max + 1,).  Each function gets its own
    dot product, so stacking functions does not change their sums.
    """
    values = np.asarray(values, dtype=complex)
    funcs = values.reshape(-1, values.shape[-1])
    out = np.empty((len(funcs), n_max + 1), dtype=complex)
    for k, row in enumerate(_chi_rows(params, xis, n_max)):
        row = np.conj(row)
        out[:, k] = [f @ row for f in funcs]
    return out.reshape(values.shape[:-1] + (n_max + 1,))


def chi_sums_fft(
    params: SchurParameters,
    grid_values: np.ndarray,
    atom_points: np.ndarray,
    atom_values: np.ndarray,
    n_max: int,
) -> np.ndarray:
    """``chi_sums`` over the N-th roots of unity and a few atoms, by FFT.

    ``grid_values[..., j]`` sits at exp(2 pi i j / N) and
    ``atom_values[..., a]`` at ``atom_points[a]``.  On the circle
    chi_k = z^-h phi*_k (k even) or z^-h phi_k (k odd), h = k // 2, so
    with p_k the Taylor coefficients of that polynomial and
    F_m = sum_j values_j conj(xi_j)^m the k-th sum is
    sum_i conj(p_{k,i}) F_{i-h}.  On the grid F_m is entry m mod N of one
    length-N FFT of the values, exact because xi^N = 1 there; the atoms
    add their terms pointwise.  O(n_max^2 + N log N) instead of the
    O(n_max N) of ``chi_sums``, but the coefficients of phi_k cancel in
    the sum, so its error grows with the parameters' digit loss (see
    ``asymptotics.cmv_coefficients`` for the gate).  Each function gets
    its own FFT, spectrum and dot products, so stacking functions does
    not change their sums, and a deeper n_max does not change the
    shallower ones.
    """
    grid_values = np.asarray(grid_values, dtype=complex)
    grid_size = grid_values.shape[-1]
    funcs = grid_values.reshape(-1, grid_size)
    atom_funcs = np.asarray(atom_values, dtype=complex).reshape(len(funcs), -1)
    # F_m for m = -low .. n_max - low, the exponents i - h that occur
    low = n_max // 2
    exponents = np.arange(-low, n_max - low + 1)
    atom_powers = [np.conj(x) ** exponents for x in atom_points]
    spectra = []
    for g, g_atoms in zip(funcs, atom_funcs):
        spectrum = np.fft.fft(g)[exponents % grid_size]
        for powers, v in zip(atom_powers, g_atoms):
            spectrum += v * powers
        spectra.append(spectrum)
    out = np.empty((len(funcs), n_max + 1), dtype=complex)
    for k, (phi, phis) in enumerate(_coefficient_steps(params, n_max)):
        coeffs = np.conj((phi if k % 2 else phis)[: k + 1])
        start = low - k // 2
        out[:, k] = [coeffs @ s[start : start + k + 1] for s in spectra]
    return out.reshape(grid_values.shape[:-1] + (n_max + 1,))


# -----------------------------------------------------------------------------
# Christoffel-Darboux kernels
# -----------------------------------------------------------------------------
def cd_kernel_sum(params: SchurParameters, xi: complex, z: complex, n: int) -> complex:
    """Direct reproducing-kernel sum over polynomial orders 0..n."""
    pxi, _ = eval_table(params, xi, n)
    pz, _ = eval_table(params, z, n)
    return complex(np.sum(np.conj(pxi) * pz))


def cd_quotient(px: PolynomialPair, pz: PolynomialPair) -> complex:
    """Polynomial-space kernel sum_{k<=n} conj(phi_k(xi)) phi_k(z) as

        (phi*_{n+1}(z) conj(phi*_{n+1}(xi)) - phi_{n+1}(z) conj(phi_{n+1}(xi)))
        / (1 - conj(xi) z)

    from the order-(n+1) pairs ``px`` at xi and ``pz`` at z.  No diagonal
    fallback: the caller keeps 1 - conj(xi) z away from 0.
    """
    den = 1.0 - np.conj(px.z) * pz.z
    num = pz.phi_star * np.conj(px.phi_star) - pz.phi * np.conj(px.phi)
    return complex(num / den)


def cd_laurent(px: PolynomialPair, pz: PolynomialPair) -> complex:
    """Laurent-space kernel sum_{k<=n} conj(chi_k(xi)) chi_k(z), |xi|=|z|=1.

    Two-term form with a parity split, from the order-(n+1) pairs ``px``
    at xi and ``pz`` at z:

        n even: (z conj(chi_{n+1}(z) xi) chi_{n+1}(xi)
                 - chi_{n+1}(z) conj(chi_{n+1}(xi))) / (1 - conj(xi) z)
        n odd:  (z chi_{n+1}(z) conj(xi chi_{n+1}(xi))
                 - z conj(chi_{n+1}(z) xi) chi_{n+1}(xi)) / (1 - conj(xi) z)

    It equals (xi conj(z))^floor(n/2) times the polynomial kernel there.
    No diagonal fallback: the caller keeps 1 - conj(xi) z away from 0.
    """
    n, xi, z = px.n - 1, px.z, pz.z
    den = 1.0 - np.conj(xi) * z
    cx = _chi_from_pair(px)
    cz = _chi_from_pair(pz)
    if n % 2 == 0:
        num = z * np.conj(cz * xi) * cx - cz * np.conj(cx)
    else:
        num = z * cz * np.conj(xi * cx) - z * np.conj(cz * xi) * cx
    return complex(num / den)


def cd_kernel_poly(params: SchurParameters, xi: complex, z: complex, n: int) -> complex:
    """Polynomial-space kernel sum_{k<=n} conj(phi_k(xi)) phi_k(z).

    Evaluated by ``cd_quotient``, falling back to direct summation when
    its denominator 1 - conj(xi) z degenerates.
    """
    xi = complex(xi)
    z = complex(z)
    if abs(1.0 - np.conj(xi) * z) < _CD_DIAGONAL:
        return cd_kernel_sum(params, xi, z, n)
    return cd_quotient(eval_pair(params, xi, n + 1), eval_pair(params, z, n + 1))


def cd_kernel_cmv(params: SchurParameters, xi: complex, z: complex, n: int) -> complex:
    """Laurent-space kernel sum_{k<=n} conj(chi_k(xi)) chi_k(z), |xi|=|z|=1.

    Evaluated by ``cd_laurent`` at xi/|xi| and z/|z|, falling back to
    direct summation of chi tables when 1 - conj(xi) z degenerates.
    """
    xi = _as_boundary(xi)
    z = _as_boundary(z)
    if abs(1.0 - np.conj(xi) * z) < _CD_DIAGONAL:
        cx = chi_table(params, xi, n)
        cz = cx if z == xi else chi_table(params, z, n)
        return complex(np.sum(np.conj(cx) * cz))
    return cd_laurent(eval_pair(params, xi, n + 1), eval_pair(params, z, n + 1))


# -----------------------------------------------------------------------------
# Dual family and truncated measures
# -----------------------------------------------------------------------------
def dual_parameters(params: SchurParameters) -> SchurParameters:
    """Parameters of the dual measure (Schur function negated): {-a_n}."""
    return SchurParameters(-params.values)


def weight_from_parameters(params: SchurParameters, grid_size: int) -> np.ndarray:
    """Density grid of the measure with parameters (a_0..a_{K-1}, 0, 0, ...).

    Such a truncation has the rational density 1/|phi_K|^2; sampling it is
    the reconstruction route for parameter-first families.

    The K+1 Taylor coefficients of phi_K come from ``_coefficient_steps``,
    and one length-N FFT of them gives phi_K at the N-th roots of unity.
    Coefficients past degree N-1 fold onto degree k mod N, which is exact
    on the grid because xi^N = 1 there.  Raises PositivityLoss at a node
    where |phi_K|^2 underflows to 0 or overflows, so that 1/|phi_K|^2
    would not be a positive double, and wherever ``_coefficient_steps``
    does.
    """
    k_cut = len(params)
    for phi, _ in _coefficient_steps(params, k_cut):
        pass  # phi ends as phi_K
    folded = np.pad(phi, (0, -len(phi) % grid_size))
    coeffs = folded.reshape(-1, grid_size).sum(axis=0)
    modulus = np.abs(grid_size * np.fft.ifft(coeffs))
    in_range = (modulus > _MODULUS_RANGE[0]) & (modulus < _MODULUS_RANGE[1])
    if not np.all(in_range):
        node = int(np.argmin(in_range))
        raise PositivityLoss(
            f"|phi_{k_cut}| = {modulus[node]:.3g} at grid node {node} of "
            f"{grid_size}: the density 1/|phi_K|^2 is not a positive double there"
        )
    return 1.0 / modulus**2


# -----------------------------------------------------------------------------
# Parameter extraction, route A: moment coefficients
# -----------------------------------------------------------------------------
def _monic_steps(moments: np.ndarray, n_max: int, number):
    """The monic recursion on moments in the arithmetic of ``number``.

    ``number`` converts a complex double: ``complex`` for the double pass,
    a ``schur.Fixed`` constructor for the exact one.  Returns (MonicTable,
    digit_loss, None), or (None, digit_loss, reason) at the first degree
    whose norm is not positive or whose parameter reaches the escape
    threshold, the loss summed up to there.
    """
    cbar = [number(x).conjugate() for x in moments]
    cbar_next = cbar[1:]
    zero = number(0.0)
    phi = [number(1.0)]
    phis = [number(1.0)]
    norms = np.zeros(n_max + 1)
    a_out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for n in range(n_max + 1):
        den = sum(map(operator.mul, phis, cbar), zero)
        value = complex(den)
        if value.real <= 0.0 or abs(value.imag) > 1e-8 * max(value.real, 1.0):
            return None, loss, (
                f"norm inner product {value!r} at degree {n}; "
                "moment sequence is not positive definite"
            )
        norms[n] = value.real
        if n == n_max:
            break
        conj_a = sum(map(operator.mul, phi, cbar_next), zero) / den
        a = conj_a.conjugate()
        a_out[n] = complex(a)
        if abs(a_out[n]) >= ESCAPE_THRESHOLD:
            return None, loss, (
                f"|a_{n}| = {abs(a_out[n]):.15g} at the escape threshold; "
                "input appears finitely supported"
            )
        loss += digit_loss(abs(a_out[n]))
        # phi <- z phi - conj(a) phi*,  phi* <- phi* - a z phi
        shifted = [zero, *phi]
        phis.append(zero)
        phi = [h - conj_a * x for h, x in zip(shifted, phis)]
        phis = [x - a * h for h, x in zip(shifted, phis)]
    return MonicTable(norms, SchurParameters(a_out)), loss, None


def _monic_exact(moments: np.ndarray, n_max: int, dps: int):
    """The monic recursion in fixed point carrying ``dps`` digits.

    Returns (MonicTable, digit_loss); raises PositivityLoss where the
    recursion breaks down.
    """
    bits = fixed_bits(dps)
    table, loss, reason = _monic_steps(moments, n_max, lambda x: Fixed.of(x, bits))
    if reason is not None:
        raise PositivityLoss(reason)
    return table, loss


def monic_from_moments(moments: np.ndarray, n_max: int) -> MonicTable:
    """Monic recursion on Taylor coefficients with moment inner products.

    <z^j, z^k> = c_{k-j} with c_{-k} = conj(c_k); the parameter is read from
    conj(a_n) = <z Phi_n, 1> / <Phi_n*, 1>, and <Phi_n*, 1> doubles as the
    running squared norm.
    """
    c = np.asarray(moments, dtype=complex)
    if n_max > N_MAX:
        raise OutOfRange(f"n_max = {n_max} beyond the table cap {N_MAX}")
    if len(c) < n_max + 1:
        raise OutOfRange(
            f"{len(c)} moments cannot support n_max = {n_max} (need n_max + 1)"
        )
    # The recursion loses a digit per few steps on slowly decaying
    # parameters, so past the cascade's digit-loss gate it is redone in
    # fixed point, which alone decides whether to raise.  In double alone,
    # geronimus(0.6) has a depth-24 gap of 3.5e-9 to the series route (test
    # bound 1e-9) and a depth-64 norm_telescoping of 1.7e-10 (bound 1e-10).
    table, loss, _ = _monic_steps(c, n_max, complex)
    return _escalate(
        table, loss, table is not None, n_max, lambda dps: _monic_exact(c, n_max, dps)
    )


def verblunsky_from_moments(moments: np.ndarray, n_max: int) -> SchurParameters:
    """a_0..a_{n_max-1} from the moment-coefficient recursion."""
    return monic_from_moments(moments, n_max).params


# -----------------------------------------------------------------------------
# Parameter extraction, route A': values at the quadrature nodes
# -----------------------------------------------------------------------------
def _value_recursion(xi: np.ndarray, q: np.ndarray, n_max: int, max_loss: float):
    """The monic recursion on values at nodes ``xi`` with weights ``q``.

    Runs in the dtype of the arrays it gets.  Returns a_0..a_{n_max-1} as
    complex128, or None once the digit-loss estimate of the parameters
    found so far passes ``max_loss``; raises PositivityLoss when the norm
    vanishes or a parameter reaches the escape threshold.

    The steps run in five node-sized buffers allocated once per call: phi
    and its next step (swapped each step), phi* (updated in place), z phi
    and a product scratch.  The parameters are bitwise those of the form
    that allocates fresh arrays every step: the same operations in the
    same order, with ``np.sum`` (pairwise) for the inner products.
    """
    phi = np.ones_like(xi)
    phis = np.ones_like(xi)
    zphi = np.empty_like(xi)
    product = np.empty_like(xi)
    phi_next = np.empty_like(xi)
    values = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for n in range(n_max):
        np.multiply(xi, phi, out=zphi)
        num = np.sum(np.multiply(zphi, q, out=product))
        den = np.sum(np.multiply(phis, q, out=product))
        if abs(den) < 1e-300:
            raise PositivityLoss(f"vanishing norm inner product at degree {n}")
        a = np.conj(num / den)
        if abs(a) >= ESCAPE_THRESHOLD:
            raise PositivityLoss(
                f"|a_{n}| = {abs(complex(a)):.15g} at the escape threshold; "
                "discrete measure appears degenerate at this depth"
            )
        loss += digit_loss(abs(a))
        if loss > max_loss:
            return None
        values[n] = complex(a)
        # phi <- z phi - conj(a) phi*,  phi* <- phi* - a z phi
        np.subtract(zphi, np.multiply(np.conj(a), phis, out=product), out=phi_next)
        np.subtract(phis, np.multiply(a, zphi, out=product), out=phis)
        phi, phi_next = phi_next, phi
    return values


def verblunsky_from_measure(mu: CircleMeasure, n_max: int) -> SchurParameters:
    """a_0..a_{n_max-1} by the monic recursion on values at the nodes.

    The measure is the discrete measure of ``mu.quadrature()``, grid nodes
    and atoms alike, so num = sum q z phi and den = sum q phi* are its
    inner products and atoms need no separate update.  In value space the
    huge polynomial values over low-weight regions are damped by the weight
    instead of cancelling in coefficient space.

    The recursion runs in double while the parameters' digit-loss estimate
    stays within the Schur cascade's ``_SAFE_DIGIT_LOSS``; otherwise, or
    when the double pass escapes or loses the norm, it is redone in
    extended precision, which alone decides whether to raise.
    """
    if n_max > N_MAX:
        raise OutOfRange(f"n_max = {n_max} beyond the table cap {N_MAX}")
    xi, q = mu.quadrature()
    try:
        values = _value_recursion(xi, q, n_max, _SAFE_DIGIT_LOSS)
    except PositivityLoss:
        values = None
    if values is None:
        # Extended precision: in double, geronimus(0.6) gram_orthonormality
        # goes from 8.7e-14 to 2.8e-10 and constant_deviation_zero to 1.4e-14.
        values = _value_recursion(
            xi.astype(np.clongdouble), q.astype(np.longdouble), n_max, math.inf
        )
    return SchurParameters(values)
