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
* ``monic_from_moments`` runs the monic recursion on Taylor
  coefficients with inner products read from the moment sequence.  Fine for
  tame measures; coefficient growth makes it ill-conditioned when the
  parameters do not decay, so it follows the series cascade's precision
  rule (``schur._escalate``): past 4 digits of loss, or where the double
  pass breaks down, it is redone in fixed point, on lists of Python
  integers (``schur.FixedLists``).
* ``verblunsky_from_measure`` runs the same recursion on *values* at the
  nodes of ``CircleMeasure.quadrature()``, grid points and atoms alike
  (huge polynomial values are multiplied by tiny weights instead of
  cancelling symbolically).  It runs once, in complex128, like the
  transfer recursion.

Coefficient space
-----------------
``_coefficient_steps`` runs the transfer recursion above on the Taylor
coefficients of phi_k (multiplying by z shifts them one place), one
stacked update of the row pair per step in two reused buffers, at a
relative error of about 10^(digit loss) * eps, the conditioning of
phi_k's coefficients.  ``phi_coefficients`` keeps phi_K's coefficients
and ``density_from_coefficients`` samples 1/|phi_K|^2 from them by one
length-N FFT, the reconstruction route of parameter-first families; a
build keeps the coefficients, so sampling on another grid runs no pass.

Integrals against mu follow one rule: coefficient space reads the
measure's moments (``measure.moments``, atoms included), node space
streams ``mu.quadrature()``.  Two dispatchers, ``gram`` (the Gram matrix
of phi_0..phi_m) and ``cmv_sums`` (the CMV coefficients of 1 and Re xi),
take coefficient space where one gate, ``coefficient_route``, holds: the
parameters' digit loss stays within ``schur._SAFE_DIGIT_LOSS`` and every
moment read within ``measure.max_trusted_moment``.  There
``gram_from_moments`` and ``chi_sums_from_moments`` cost O(m^3) and
O(n^2) whatever N; past it ``gram_matrix`` and ``chi_sums`` stream the
nodes through the transfer recursion, ``gram_matrix`` in chunks, so no
order-by-node table is held.

Everything else evaluates polynomials by the transfer recursion, one pass
over an array of points.  A column of
``eval_grid_table`` is bitwise the one-point table at that point, so
checks that sample many points draw them all first and read every value
from one table, and a run reads every boundary point it touches from
one (``experiments.RunContext.boundary_table``).  ``_chi_phased`` states
the chi rule once, for a table (``chi_grid_table``) and a streamed pass
(``_chi_rows``) alike.  The Christoffel-Darboux two-term forms,
``cd_quotient`` and ``cd_laurent``, act elementwise on arrays of table
values; the kernel at the origin (``asymptotics.cd_at_zero_residual``)
is ``cd_quotient`` at xi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import OutOfRange, PositivityLoss
from .measure import CircleMeasure, max_trusted_moment, moments
from .schur import (
    _SAFE_DIGIT_LOSS,
    ESCAPE_THRESHOLD,
    ComplexLists,
    FixedLists,
    SchurParameters,
    _escalate,
    digit_loss,
)

# Depth cap of both parameter-extraction routes; desk scale.
N_MAX = 512

# |phi| whose square is a normal finite double, so 1/|phi|^2 is positive and finite.
_MODULUS_RANGE = (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max))

# Nodes per chunk of ``gram_matrix``.  The Gram check on the 32769
# quadrature nodes of ell2(0.5, 1) at order 16 peaks at 1.5, 2.1 and 3.4 MB
# of traced allocations with chunks of 1024, 2048 and 4096 nodes, against
# 27.5 MB for the whole table; 2048 keeps the check below the 4.6 MB of the
# run's next largest stage (``cesaro_sandwich``).  At 4096, the 4097
# quadrature nodes of geronimus(0.6) on 4096 grid nodes would be one chunk
# of two 1.1 MB buffers, and that check's peak would go from 1.45 to 2.7 MB.
_GRAM_CHUNK = 2048


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
    params.require_depth(n_max)
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
    k.  A step is one stacked update of the row pair, rows = (X - [conj
    a_k; a_k] X[::-1]) / rho_k with X = (z phi_k, phi*_k), written into
    the other of two buffers, so a yielded row stays valid only until the
    next step: a caller that keeps rows copies them.  The values are
    bitwise those of one fresh array per product and row.

    Raises PositivityLoss at the first order k whose coefficients reach
    modulus sqrt(max double), before any of them can overflow.  A step
    grows the largest modulus by at most (1 + |a_k|) / rho_k (phi* holds
    the same moduli, reversed), so the maximum is read only from the
    order where the product of those factors, summed as logarithms,
    reaches half that modulus; the factor 2 covers the rounding of the
    rows and of the sum.
    """
    params.require_depth(n_max)
    a = params.values[:n_max]
    rho = params.rho[:n_max]
    inv_rho = 1.0 / rho
    mixes = np.stack([np.conj(a), a], axis=1)[:, :, None]
    log_growth = np.cumsum(np.log1p(np.abs(a)) - np.log(rho))
    checked_from = int(np.searchsorted(log_growth, math.log(_MODULUS_RANGE[1] / 2.0)))
    # each buffer holds 0, phi_k and phi*_k; X reads z phi_k from the
    # leading zero on (phi_k has degree k < n_max, so nothing is shifted
    # out) and the rows are written one place on
    buffers = np.zeros((2, 2 * n_max + 4), dtype=complex)
    xs = [buf.reshape(2, n_max + 2)[:, : n_max + 1] for buf in buffers]
    rows = [buf[1 : 2 * n_max + 3].reshape(2, n_max + 1) for buf in buffers]
    rows[0][:, 0] = 1.0
    yield rows[0]
    for k in range(n_max):
        x, new = xs[k % 2], rows[(k + 1) % 2]
        np.multiply(mixes[k], x[::-1], out=new)
        np.subtract(x, new, out=new)
        np.multiply(new, inv_rho[k], out=new)
        if k >= checked_from:
            top = np.abs(new[0]).max()
            if not top < _MODULUS_RANGE[1]:
                raise PositivityLoss(
                    f"phi_{k + 1} has a coefficient of modulus {top:.3g}: "
                    "its square leaves the finite double range"
                )
        yield new


def phi_coefficients(params: SchurParameters) -> np.ndarray:
    """The K+1 Taylor coefficients of phi_K, K = len(params), as one
    read-only array: the transfer recursion on coefficients
    (``_coefficient_steps``), whose PositivityLoss it raises."""
    for phi, _ in _coefficient_steps(params, len(params)):
        pass  # phi ends as phi_K
    coefficients = phi.copy()
    coefficients.flags.writeable = False
    return coefficients


def density_from_coefficients(coefficients: np.ndarray, grid_size: int) -> np.ndarray:
    """1/|phi_K|^2 at the N-th roots of unity, N = grid_size, from phi_K's
    K+1 Taylor coefficients (``phi_coefficients``).

    Such a polynomial is phi_K of the parameters (a_0..a_{K-1}, 0, 0, ...),
    whose measure has this rational density; sampling it is the
    reconstruction route for parameter-first families.  One length-N FFT
    of the coefficients gives phi_K at the nodes.  Past degree N-1 they
    fold onto degree k mod N first, which is exact on the grid because
    xi^N = 1 there.  Raises PositivityLoss at a node where |phi_K|^2
    underflows to 0 or overflows, so that 1/|phi_K|^2 would not be a
    positive double.
    """
    k_cut = len(coefficients) - 1
    if k_cut >= grid_size:
        folded = np.pad(coefficients, (0, -len(coefficients) % grid_size))
        coefficients = folded.reshape(-1, grid_size).sum(axis=0)
    modulus = np.abs(grid_size * np.fft.ifft(coefficients, grid_size))
    in_range = (modulus > _MODULUS_RANGE[0]) & (modulus < _MODULUS_RANGE[1])
    if not np.all(in_range):
        node = int(np.argmin(in_range))
        raise PositivityLoss(
            f"|phi_{k_cut}| = {modulus[node]:.3g} at grid node {node} of "
            f"{grid_size}: the density 1/|phi_K|^2 is not a positive double there"
        )
    return 1.0 / modulus**2


def coefficient_route(
    mu: CircleMeasure, params: SchurParameters, n_max: int, order: int
) -> Tuple[bool, float]:
    """(holds, loss): the one gate of the coefficient-space sums, which
    read a_0..a_{n_max-1} and the moments c_0..c_order of mu.

    ``loss`` is the digit loss of those parameters (``schur.digit_loss``
    summed), about log10 of the growth of phi_k's Taylor coefficients over
    its values.  The sums hold while it stays within the Schur cascade's
    ``_SAFE_DIGIT_LOSS`` and ``order`` within ``max_trusted_moment(N)``,
    past which ``moments`` raises AliasRisk.  Past the loss they cancel
    where the values do not: for f = Re xi on geronimus(0.6), 4096 nodes,
    n = 64 (15.2 digits), ``chi_sums_from_moments`` is off a 40-digit sum
    of the same quadrature by 7.1e-12 and the streamed ``chi_sums`` by
    1.1e-16.
    """
    loss = sum(digit_loss(abs(a)) for a in params.values[:n_max])
    holds = loss <= _SAFE_DIGIT_LOSS and order <= max_trusted_moment(mu.grid_size)
    return holds, loss


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


def eval_grid_table(params: SchurParameters, zs: np.ndarray, n_max: int):
    """All orders 0..n_max over an array of points; (n_max+1, len) tables."""
    return _run_transfer(params, zs, n_max, keep_all=True)


# -----------------------------------------------------------------------------
# CMV basis
# -----------------------------------------------------------------------------
def _chi_phased(rows, xis: np.ndarray):
    """Yield chi_k over boundary points from the rows (phi_k, phi*_k),
    k = 0, 1, ...: chi_{2h} = conj(xi)^h phi*_{2h} and chi_{2h+1} =
    conj(xi)^h phi_{2h+1}, with the phase conj(xi)^h as a running product."""
    step = np.conj(np.asarray(xis, dtype=complex))
    phase = np.ones_like(step)
    for k, (phi, phis) in enumerate(rows):
        if k and not k % 2:
            phase = phase * step
        yield phase * (phi if k % 2 else phis)


def _chi_rows(params: SchurParameters, xis: np.ndarray, n_max: int):
    """Yield chi_k over boundary points for k = 0..n_max, streamed from one
    transfer pass."""
    return _chi_phased(_transfer_steps(params, xis, n_max), xis)


def chi_grid_table(phi: np.ndarray, phis: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """chi_k over boundary points from (phi, phi*) tables of
    ``eval_grid_table`` at those points, the same shape; column j is
    bitwise the one-point stream of ``_chi_rows`` at xis[j]."""
    return np.array(list(_chi_phased(zip(phi, phis), xis)))


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


def gram_matrix(
    params: SchurParameters, nodes: np.ndarray, weights: np.ndarray, n_max: int
) -> np.ndarray:
    """sum_j weights[j] phi_k(nodes[j]) conj(phi_l(nodes[j])), k, l <= n_max.

    Streamed over chunks of ``_GRAM_CHUNK`` nodes in two reused buffers,
    one for a chunk's rows (conjugated in place once weighted) and one for
    the rows times the weights, each chunk a contiguous prefix (numpy's
    products on a strided block would take a 128 KiB buffer of their own),
    so neither a (n_max+1, len(nodes)) table nor a node-sized temporary per
    chunk is formed; a remainder under 1/8 chunk, such as the atoms after
    a power-of-two grid, joins the last chunk.  A chunk's rows are bitwise
    the columns of ``eval_grid_table`` on all the nodes; only the order in
    which the nodes' terms are summed differs.
    """
    starts = range(_GRAM_CHUNK, len(nodes) - _GRAM_CHUNK // 8, _GRAM_CHUNK)
    bounds = [0, *starts, len(nodes)]
    gram = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    widest = np.diff(bounds).max()
    rows, scaled_rows = np.empty((2, (n_max + 1) * widest), dtype=complex)
    for start, stop in zip(bounds, bounds[1:]):
        size = (n_max + 1) * (stop - start)
        block = rows[:size].reshape(n_max + 1, -1)
        scaled = scaled_rows[:size].reshape(n_max + 1, -1)
        steps = _transfer_steps(params, nodes[start:stop], n_max)
        for k, (phi, _) in enumerate(steps):
            block[k] = phi
        np.multiply(block, weights[start:stop], out=scaled)
        np.conjugate(block, out=block)
        gram += scaled @ block.T
    return gram


def gram_from_moments(params: SchurParameters, c: np.ndarray, n_max: int) -> np.ndarray:
    """<phi_k, phi_l> = integral of phi_k conj(phi_l) dmu, k, l <= n_max,
    from the moments c_0..c_{n_max} of mu (``measure.moments``).

    With P[k, i] the Taylor coefficients of phi_k (``_coefficient_steps``)
    and <z^i, z^i'> = c_{i'-i}, c_{-j} = conj(c_j), the Gram matrix is
    P T P^H with T the Hermitian Toeplitz matrix of the moments: O(n_max^3)
    after the moments, against the O(n_max N) of ``gram_matrix``.  On the
    grid the moments are those of the quadrature itself, so the two agree
    up to rounding, which grows with the digit loss as the coefficients
    cancel (``coefficient_route``).
    """
    coeffs = np.empty((n_max + 1, n_max + 1), dtype=complex)
    for k, (phi, _) in enumerate(_coefficient_steps(params, n_max)):
        coeffs[k] = phi
    lags = np.subtract.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    toeplitz = np.where(lags <= 0, c[np.abs(lags)], np.conj(c[np.abs(lags)]))
    return coeffs @ toeplitz @ coeffs.conj().T


def gram(mu: CircleMeasure, params: SchurParameters, m: int) -> Tuple[np.ndarray, str]:
    """The Gram matrix of phi_0..phi_m under mu, quadrature plus atoms, and
    the route that formed it: from the moments c_0..c_m
    (``gram_from_moments``) where ``coefficient_route`` holds, else
    streamed over ``mu.quadrature()`` (``gram_matrix``)."""
    holds, loss = coefficient_route(mu, params, m, m)
    if holds:
        route = f"coefficient space, digit loss {loss:.2f}"
        return gram_from_moments(params, moments(mu, m), m), route
    nodes, weights = mu.quadrature()
    route = f"streamed over {len(nodes)} nodes, digit loss {loss:.2f}"
    return gram_matrix(params, nodes, weights, m), route


def chi_sums_from_moments(
    params: SchurParameters, c: np.ndarray, n_max: int
) -> np.ndarray:
    """<1, chi_k> and <Re xi, chi_k>, k = 0..n_max, as a (2, n_max + 1)
    array, from the moments c_0..c_{n_max - n_max // 2 + 1} of mu.

    On the circle chi_k = xi^-h phi*_k (k even) or xi^-h phi_k (k odd),
    h = k // 2, so with p_k the Taylor coefficients of that polynomial
    (``_coefficient_steps``) and F_m = integral of f conj(xi)^m dmu the
    k-th sum is sum_i conj(p_{k,i}) F_{i-h}.  For f = 1, F_m = c_m, with
    c_{-m} = conj(c_m); for f = Re xi, F_m = (c_{m-1} + c_{m+1}) / 2.
    O(n_max^2) after the moments, whatever N; each sum reads only its own
    order's coefficients, so a deeper n_max does not change the shallower
    sums.  The coefficients of phi_k cancel in the sum, so its error grows
    with the parameters' digit loss (``coefficient_route``).
    """
    low = n_max // 2
    # c_m for m = -low - 1 .. n_max - low + 1
    lags = np.arange(-low - 1, n_max - low + 2)
    c_m = np.where(lags < 0, np.conj(c[np.abs(lags)]), c[np.abs(lags)])
    spectra = (c_m[1:-1], (c_m[:-2] + c_m[2:]) / 2)
    out = np.empty((2, n_max + 1), dtype=complex)
    for k, (phi, phis) in enumerate(_coefficient_steps(params, n_max)):
        coeffs = np.conj((phi if k % 2 else phis)[: k + 1])
        start = low - k // 2
        out[:, k] = [coeffs @ s[start : start + k + 1] for s in spectra]
    return out


def cmv_sums(mu: CircleMeasure, params: SchurParameters, n_max: int) -> np.ndarray:
    """CMV coefficients <f, chi_k> = integral of f conj(chi_k) dmu of f = 1
    (row 0) and f = Re xi (row 1), k = 0..n_max, under mu, quadrature plus
    atoms: from the moments (``chi_sums_from_moments``) where
    ``coefficient_route`` holds, else in one streamed pass over
    ``mu.quadrature()`` (``chi_sums``).  Past the measure's band record
    (``measure.moments``), the first route forms no array of the grid's
    size."""
    order = n_max - n_max // 2 + 1  # |i - k // 2| + 1 at most, i <= k <= n_max
    if coefficient_route(mu, params, n_max, order)[0]:
        return chi_sums_from_moments(params, moments(mu, order), n_max)
    nodes, weights = mu.quadrature()
    cosines = np.concatenate([np.cos(mu.angles), [math.cos(t) for t, _ in mu.atoms]])
    values = np.stack([np.ones(len(nodes)), cosines]) * weights
    return chi_sums(params, nodes, values, n_max)


# -----------------------------------------------------------------------------
# Christoffel-Darboux kernels
# -----------------------------------------------------------------------------
def cd_quotient(xi, z, phi_xi, phis_xi, phi_z, phis_z):
    """Polynomial-space kernel sum_{k<=n} conj(phi_k(xi)) phi_k(z) as

        (phi*_{n+1}(z) conj(phi*_{n+1}(xi)) - phi_{n+1}(z) conj(phi_{n+1}(xi)))
        / (1 - conj(xi) z)

    elementwise over arrays of table values: phi_{n+1} and phi*_{n+1} at
    xi and at z.  No diagonal fallback: the caller keeps 1 - conj(xi) z
    away from 0.
    """
    num = phis_z * np.conj(phis_xi) - phi_z * np.conj(phi_xi)
    return num / (1.0 - np.conj(xi) * z)


def cd_laurent(n, xi, z, chi_xi, chi_z):
    """Laurent-space kernel sum_{k<=n} conj(chi_k(xi)) chi_k(z), |xi|=|z|=1.

    Two-term form with a parity split, elementwise over arrays of orders n
    and of chi_{n+1} at xi and at z (``chi_grid_table`` values):

        n even: (z conj(chi_{n+1}(z) xi) chi_{n+1}(xi)
                 - chi_{n+1}(z) conj(chi_{n+1}(xi))) / (1 - conj(xi) z)
        n odd:  (z chi_{n+1}(z) conj(xi chi_{n+1}(xi))
                 - z conj(chi_{n+1}(z) xi) chi_{n+1}(xi)) / (1 - conj(xi) z)

    It equals (xi conj(z))^floor(n/2) times the polynomial kernel there.
    No diagonal fallback: the caller keeps 1 - conj(xi) z away from 0.
    """
    even = z * np.conj(chi_z * xi) * chi_xi - chi_z * np.conj(chi_xi)
    odd = z * chi_z * np.conj(xi * chi_xi) - z * np.conj(chi_z * xi) * chi_xi
    return np.where(np.asarray(n) % 2 == 0, even, odd) / (1.0 - np.conj(xi) * z)


# -----------------------------------------------------------------------------
# Dual family and truncated measures
# -----------------------------------------------------------------------------
def dual_parameters(params: SchurParameters) -> SchurParameters:
    """Parameters of the dual measure (Schur function negated): {-a_n}."""
    return SchurParameters(-params.values)


# -----------------------------------------------------------------------------
# Parameter extraction, route A: moment coefficients
# -----------------------------------------------------------------------------
def _monic_steps(moments: np.ndarray, n_max: int, num):
    """The monic recursion on moments in the arithmetic ``num``:
    ``schur.ComplexLists`` for the double pass, ``schur.FixedLists`` for
    the exact one.  Returns (MonicTable, digit_loss, None), or (None,
    digit_loss, reason) at the first degree whose norm is not positive or
    whose parameter reaches the escape threshold, the loss summed up to
    there."""
    cbar = num.conj_all(num.vector(moments))
    cbar_next = num.cut(cbar, 1)
    phi = phis = num.vector([1.0])
    norms = np.zeros(n_max + 1)
    a_out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for n in range(n_max + 1):
        den = num.dot(phis, cbar)
        value = num.value(den)
        if value.real <= 0.0 or abs(value.imag) > 1e-8 * max(value.real, 1.0):
            return None, loss, (
                f"norm inner product {value!r} at degree {n}; "
                "moment sequence is not positive definite"
            )
        norms[n] = value.real
        if n == n_max:
            break
        conj_a = num.div(num.dot(phi, cbar_next), den)
        a = num.conj(conj_a)
        a_out[n] = num.value(a)
        if abs(a_out[n]) >= ESCAPE_THRESHOLD:
            return None, loss, (
                f"|a_{n}| = {abs(a_out[n]):.15g} at the escape threshold; "
                "input appears finitely supported"
            )
        loss += digit_loss(abs(a_out[n]))
        # phi <- z phi - conj(a) phi*,  phi* <- phi* - a z phi
        shifted, phis = num.shift(phi), num.extend(phis)
        phi, phis = num.sub_mul(shifted, conj_a, phis), num.sub_mul(phis, a, shifted)
    return MonicTable(norms, SchurParameters(a_out)), loss, None


def _monic_exact(moments: np.ndarray, n_max: int, dps: int):
    """The monic recursion in fixed point carrying ``dps`` digits.

    Returns (MonicTable, digit_loss); raises PositivityLoss where the
    recursion breaks down.
    """
    table, loss, reason = _monic_steps(moments, n_max, FixedLists(dps))
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
    if not np.isfinite(c).all():
        raise OutOfRange("moments must be finite")
    # The recursion loses a digit per few steps on slowly decaying
    # parameters, so past the cascade's digit-loss gate it is redone in
    # fixed point, which alone decides whether to raise.  In double alone,
    # geronimus(0.6) has a depth-24 gap of 1.4e-8 to the series route (test
    # bound 1e-9) and a depth-64 norm_telescoping of 1.0e-9 (bound 1e-10).
    table, loss, _ = _monic_steps(c, n_max, ComplexLists)
    return _escalate(
        table, loss, table is not None, n_max, lambda dps: _monic_exact(c, n_max, dps)
    )


# -----------------------------------------------------------------------------
# Parameter extraction, route A': values at the quadrature nodes
# -----------------------------------------------------------------------------
def _value_recursion(xi: np.ndarray, q: np.ndarray, n_max: int) -> np.ndarray:
    """The monic recursion on values at nodes ``xi`` with weights ``q``.

    Runs in the dtype of the arrays it gets and returns a_0..a_{n_max-1}
    as complex128; raises PositivityLoss when the norm vanishes or a
    parameter reaches the escape threshold.

    The weights are cast to the nodes' dtype once, as each complex-by-real
    multiply would cast them on every step.  The steps run in four more
    node-sized buffers allocated once per call: phi, phi* (each updated in
    place; phi is read only through z phi), z phi and a product scratch.
    At geronimus-cascade's 4097 nodes and depth 65 this takes 0.75 ms
    against 0.99 ms for fresh arrays every step (medians, 2-core AMD EPYC
    x86-64).  The parameters are bitwise those of that form: the same
    operations in the same order, with ``np.add.reduce`` (pairwise, as
    ``np.sum`` is) for the inner products.
    """
    q_cast = q.astype(xi.dtype)
    phi, phis = np.ones_like(xi), np.ones_like(xi)
    zphi, product = np.empty_like(xi), np.empty_like(xi)
    values = np.zeros(n_max, dtype=complex)
    for n in range(n_max):
        np.multiply(xi, phi, out=zphi)
        num = np.add.reduce(np.multiply(zphi, q_cast, out=product))
        den = np.add.reduce(np.multiply(phis, q_cast, out=product))
        if abs(den) < 1e-300:
            raise PositivityLoss(f"vanishing norm inner product at degree {n}")
        a = np.conj(num / den)
        if abs(a) >= ESCAPE_THRESHOLD:
            raise PositivityLoss(
                f"|a_{n}| = {abs(complex(a)):.15g} at the escape threshold; "
                "discrete measure appears degenerate at this depth"
            )
        values[n] = complex(a)
        # phi <- z phi - conj(a) phi*,  phi* <- phi* - a z phi
        np.subtract(zphi, np.multiply(np.conj(a), phis, out=product), out=phi)
        np.subtract(phis, np.multiply(a, zphi, out=product), out=phis)
    return values


def verblunsky_from_measure(mu: CircleMeasure, n_max: int) -> SchurParameters:
    """a_0..a_{n_max-1} by the monic recursion on values at the nodes.

    The measure is the discrete measure of ``mu.quadrature()``, grid nodes
    and atoms alike, so num = sum q z phi and den = sum q phi* are its
    inner products and atoms need no separate update.  In value space the
    huge polynomial values over low-weight regions are damped by the weight
    instead of cancelling in coefficient space.

    One pass in complex128, whatever the parameters' digit loss: the
    thinnest margin among the builtins, geronimus(0.9) on 8192 nodes, reads
    ``gram_orthonormality`` 6.7e-9 against its 1e-8 bound (README,
    "Precision", for the 36-config sweep).

    It builds the measures the series cascade's double pass cannot: the
    build rule (``families.measured_parameters``) takes that pass where it
    reads moments within N/8 and loses at most 4 digits, and this
    recursion otherwise, and geronimus always.  A run whose family took
    the cascade calls it at the route depth instead, as the route that
    ``two_route_equality`` holds the cascade to.  At depth 0 it forms the
    quadrature, runs no step and returns no parameters.
    """
    if n_max > N_MAX:
        raise OutOfRange(f"n_max = {n_max} beyond the table cap {N_MAX}")
    xi, q = mu.quadrature()
    return SchurParameters(_value_recursion(xi, q, n_max))
