"""Independent slow-path references the fast implementations are tested against.

Everything here works directly from definitions: dense Gram-Schmidt in
L^2(mu) instead of any recursion, plain quadrature sums instead of kernel
algebra.
Agreement between these and the package routines is evidence, not
tautology, because no code is shared beyond the measure container.
``gram_full_table`` forms the whole order-by-node table that
``opuc.gram_matrix`` streams in chunks, the roundoff-level reference of
the Gram check.
The one-point references (``eval_pair``, ``eval_table``, ``chi_table``,
``sandwich_table``, ``jost_solutions``) take one transfer pass per point,
where a run reads every boundary point from one table; a column of that
table is bitwise their value.
The bitwise references (``value_recursion_fresh_arrays``,
``coefficient_steps_fresh``, ``entropy_profile_per_delta``) instead
restate a fast routine in its plain array form, to show that its buffers
change no bit; the profile reference is also the roundoff-level oracle of
the spectral Poisson route.  ``weight_from_parameters`` chains the ell2
build's two sampling steps for tests that start from parameters.  In the
same way ``phi_star_zero_free_per_point`` and ``cd_three_route_per_point``
restate two sampled checks with one transfer pass per point, to show that
evaluating all the points in one table changes no bit, and
``sandwich_rows_per_n`` and ``scattering_rows_per_n`` restate two CSV
tables with one evaluation per n, boundary data read off the whole grid,
and ``jost_step_defects_loop`` takes the recurrence defects one step at a
time.
``cascade_floats`` restates the series cascade's double pass with one
Python float operation per rounding, the bitwise reference of its float
array form.
``cascade_mp`` and ``monic_from_moments_mp`` run the two O(n^2)
extraction routes in mpmath floating point, the references of their
fixed-point passes, and ``cascade_fixed`` and ``monic_fixed`` run them on
``Fixed`` objects, one per number, the bitwise references of the integer
lists those passes hold; ``geronimus_density_mp`` is the geronimus closed form
at 40 digits, the reference of the array density.

The last group states OPUC identities that no verdict checks (Simon,
*Orthogonal Polynomials on the Unit Circle*, Part 1): Khrushchev's
formula (``khrushchev_rhs``), the pairing of a measure with its dual
(``duality_identity_residual``), the averaged approach of the Jost
solutions to their free targets (``averaged_jost_deviation``) and the
Cesaro recovery of 1/D by reflected polynomials
(``szego_recovery_deviation``).  The tests hold them to frozen bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from opuclab.measure import CircleMeasure


# -----------------------------------------------------------------------------
# One-point references: one transfer pass per boundary or disk point
# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class PolynomialPair:
    """Values (phi_n(z), phi_n*(z)) at one point."""

    phi: complex
    phi_star: complex


def eval_pair(params, z: complex, n: int) -> PolynomialPair:
    """(phi_n(z), phi_n*(z)) by n transfer steps at the one point z."""
    from opuclab.opuc import _run_transfer

    phi, phis = _run_transfer(params, np.array([complex(z)]), n, keep_all=False)
    return PolynomialPair(complex(phi[0]), complex(phis[0]))


def eval_table(params, z: complex, n_max: int):
    """All orders 0..n_max at one point; returns (phi, phi_star) arrays."""
    from opuclab.opuc import _run_transfer

    tab, tabs = _run_transfer(params, np.array([complex(z)]), n_max, keep_all=True)
    return tab[:, 0], tabs[:, 0]


def chi_table(params, xi: complex, n_max: int) -> np.ndarray:
    """chi_0(xi) .. chi_{n_max}(xi) at one boundary point, streamed from a
    one-point transfer pass: the reference of the run's boundary table."""
    from opuclab.measure import _as_boundary
    from opuclab.opuc import _chi_rows

    xi = _as_boundary(xi)
    rows = _chi_rows(params, np.array([xi]), n_max)
    return np.array([row[0] for row in rows], dtype=complex)


def jost_solutions(mu: CircleMeasure, params, xi, n_max: int):
    """Both scattering solutions at the grid node nearest xi, where the grid
    data D and F and the polynomials are read: the one-point reference of
    a run's Jost batch (``experiments.RunContext.jost``).

    ``xi`` is one boundary point (returns the pair) or a 1-d array of them
    (returns a list of pairs), from one boundary pass each of D and F and
    one transfer table over the nodes.
    """
    from opuclab.measure import _as_boundary, snap
    from opuclab.opuc import eval_grid_table
    from opuclab.scattering import _herglotz_at, jost_pairs
    from opuclab.szego import szego_boundary

    points = [_as_boundary(v) for v in np.atleast_1d(xi)]
    j, nodes = map(np.array, zip(*(snap(mu.grid_size, v) for v in points)))
    pairs = jost_pairs(
        params,
        nodes,
        *eval_grid_table(params, nodes, n_max),
        szego_boundary(mu)[j],
        _herglotz_at(mu, j, nodes),
    )
    return pairs[0] if np.ndim(xi) == 0 else pairs


def sandwich_table(mu: CircleMeasure, params, xi0, n_list, delta_grid_size=64):
    """Sandwich rows with one entropy profile over n_list and one transfer
    table at xi0 to order max(n_list) - 1: the one-point reference of
    ``asymptotics.sandwich_rows`` on a boundary-table column."""
    from opuclab.asymptotics import SANDWICH_RATE_CONSTANT, SandwichRow
    from opuclab.measure import _as_boundary, snap
    from opuclab.szego import entropy_profile

    xi0 = _as_boundary(xi0)
    profile = entropy_profile(mu, xi0, n_list, delta_grid_size)
    phi, _ = eval_table(params, xi0, max(n_list, default=1) - 1)
    j, _ = snap(mu.grid_size, xi0)
    target = 1.0 / max(float(mu.weight[j]), 1e-300)
    return tuple(
        SandwichRow(
            n=row.n,
            cesaro=float(np.mean(np.abs(phi[: row.n]) ** 2)),
            target=target,
            lower=1.0 / row.f_n,
            upper=(1.0 + SANDWICH_RATE_CONSTANT * row.k_n ** 0.25) / row.p_n,
            k_n=row.k_n,
            p_n=row.p_n,
            f_n=row.f_n,
        )
        for row in profile
    )


def measure_inner(mu: CircleMeasure, f_grid, f_atoms, g_grid, g_atoms) -> complex:
    """<f, g> in L^2(mu) by direct quadrature plus atom terms."""
    value = complex(np.mean(mu.weight * f_grid * np.conj(g_grid)))
    if mu.atoms:
        value += complex(np.sum(mu.atom_masses * f_atoms * np.conj(g_atoms)))
    return value


def gram_schmidt_verblunsky(mu: CircleMeasure, n_max: int) -> np.ndarray:
    """a_0..a_{n_max-1} from dense Gram-Schmidt on the monomials.

    Orthogonalizes 1, z, z^2, ... against each other with the quadrature
    inner product, tracking coefficient vectors so the free term of each
    monic polynomial is available; the parameter is read from
    a_n = -conj(Phi_{n+1}(0)).  Projections are applied twice per vector
    (classical reorthogonalization) to keep the loss of orthogonality at
    roundoff level.
    """
    pts = mu.boundary_points
    apts = mu.atom_points
    monic_coeffs: list[np.ndarray] = []
    monic_grid: list[np.ndarray] = []
    monic_atoms: list[np.ndarray] = []
    norms_sq: list[float] = []
    for n in range(n_max + 1):
        coeff = np.zeros(n + 1, dtype=complex)
        coeff[n] = 1.0
        grid = pts**n
        atoms = apts**n
        for _ in range(2):
            for m in range(n):
                proj = (
                    measure_inner(mu, grid, atoms, monic_grid[m], monic_atoms[m])
                    / norms_sq[m]
                )
                coeff[: m + 1] -= proj * monic_coeffs[m]
                grid = grid - proj * monic_grid[m]
                atoms = atoms - proj * monic_atoms[m]
        monic_coeffs.append(coeff)
        monic_grid.append(grid)
        monic_atoms.append(atoms)
        norms_sq.append(
            measure_inner(mu, grid, atoms, grid, atoms).real
        )
    return np.array(
        [-np.conj(monic_coeffs[n + 1][0]) for n in range(n_max)]
    )


def poisson_kernel_direct(xi: complex, z: complex) -> float:
    """(1 - |z|^2)/|xi - z|^2 from the definition."""
    return (1.0 - abs(z) ** 2) / abs(xi - z) ** 2


def cd_kernel_routes(params, xi: complex, z: complex, n: int):
    """(direct, quotient, laurent): the Christoffel-Darboux kernel of order
    n at boundary points (xi, z) by its three routes, one point at a time.

    direct sums conj(phi_k(xi)) phi_k(z) over two one-point tables;
    quotient is ``opuc.cd_quotient`` on the order-(n+1) values at xi and
    z, and laurent ``opuc.cd_laurent`` on chi_{n+1} at xi/|xi| and z/|z|
    (``chi_table``).  Both forms get one-element arrays, which numpy
    rounds as it rounds an element of a batch.  Neither form has a
    diagonal fallback, so the caller keeps 1 - conj(xi) z away from 0.
    """
    from opuclab.measure import _as_boundary
    from opuclab.opuc import cd_laurent, cd_quotient

    pxi, sxi = eval_table(params, xi, n + 1)
    pz, sz = eval_table(params, z, n + 1)
    direct = complex(np.sum(np.conj(pxi[: n + 1]) * pz[: n + 1]))
    top = slice(n + 1, n + 2)
    # chi_table evaluates at xi/|xi| and z/|z| itself
    chi_xi, chi_z = (chi_table(params, w, n + 1)[top] for w in (xi, z))
    xi, z, bxi, bz = (np.array([w]) for w in (xi, z, _as_boundary(xi), _as_boundary(z)))
    quotient = cd_quotient(xi, z, pxi[top], sxi[top], pz[top], sz[top])
    laurent = cd_laurent(np.array([n]), bxi, bz, chi_xi, chi_z)
    return direct, complex(quotient[0]), complex(laurent[0])


def cd_kernel_bruteforce(params, xi: complex, z: complex, n: int) -> complex:
    """sum_k conj(phi_k(xi)) phi_k(z) with each pair evaluated separately.

    The conjugate sits on the first argument, matching the quotient form's
    denominator 1 - conj(xi) z.
    """
    return complex(
        sum(
            np.conj(eval_pair(params, xi, k).phi) * eval_pair(params, z, k).phi
            for k in range(n + 1)
        )
    )


def phi_at_node_mp(values, node: int, grid_size: int, dps: int = 40) -> complex:
    """phi_K(e^{2 pi i node/N}), K = len(values), by the transfer recursion in mpmath.

    Each double parameter converts to mpmath exactly, so the only error is
    the working precision of ``dps`` digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        z = mpmath.expjpi(mpmath.mpf(2 * int(node)) / grid_size)
        phi = phis = mpmath.mpc(1)
        for value in values:
            a = mpmath.mpc(complex(value))
            rho = mpmath.sqrt(1 - abs(a) ** 2)
            zphi = z * phi
            phi, phis = (zphi - mpmath.conj(a) * phis) / rho, (phis - a * zphi) / rho
        return complex(phi)


def geronimus_density_mp(a: float, node: int, grid_size: int, dps: int = 40) -> float:
    """The constant-parameter family's arc density at e^{2 pi i node/N} in mpmath.

    Solves a z f^2 - (z - 1) f - a = 0 at ``dps`` digits and keeps the root
    of smaller modulus (the two moduli multiply to 1/|z| = 1, and off the
    arc both are 1, where the density is 0); w = (1 - |f|^2)/|1 - z f|^2.
    """
    import mpmath

    with mpmath.workdps(dps):
        z = mpmath.expjpi(mpmath.mpf(2 * int(node)) / grid_size)
        a = mpmath.mpf(a)
        disc = mpmath.sqrt((z - 1) ** 2 + 4 * a * a * z)
        f = min(((z - 1) + disc) / (2 * a * z), ((z - 1) - disc) / (2 * a * z), key=abs)
        den = abs(1 - z * f) ** 2
        if den < mpmath.mpf(10) ** (-dps // 2):
            return 0.0
        return float(max((1 - abs(f) ** 2) / den, 0))


def cascade_floats(u, v, n_max: int):
    """The series cascade's double pass, one Python float operation per
    rounding: the bitwise reference of ``schur._cascade`` on
    ``schur.FloatBlock``.

    Each coefficient is a pair of floats, and a step takes
    u <- u[1:] - a v[1:] as pr - (ar*qr - ai*qi), pi - (ar*qi + ai*qr), and
    v <- v[:-1] - conj(a) u[:-1] as pr - (ar*qr + ai*qi), pi - (ar*qi - ai*qr).
    No product is a Python complex one, which a C compiler may contract
    into fused multiply-adds.  The parameter a = u_0/v_0 is the pass's own
    scalar: one Python complex division.  Returns (params, digit loss,
    escape step or None).
    """
    from opuclab.schur import ESCAPE_THRESHOLD, digit_loss

    u, v = (
        [(x.real, x.imag) for x in np.asarray(w[:n_max], dtype=complex).tolist()]
        for w in (u, v)
    )
    out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for step in range(n_max):
        out[step] = a = complex(*u[0]) / complex(*v[0])
        try:
            mag = abs(a)
        except OverflowError:
            mag = math.inf
        if not mag < ESCAPE_THRESHOLD:  # NaN is an escape too
            return out, loss, step
        loss += digit_loss(mag)
        ar, ai = a.real, a.imag
        u, v = (
            [
                (pr - (ar * qr - ai * qi), pi - (ar * qi + ai * qr))
                for (pr, pi), (qr, qi) in zip(u[1:], v[1:])
            ],
            [
                (pr - (ar * qr + ai * qi), pi - (ar * qi - ai * qr))
                for (pr, pi), (qr, qi) in zip(v[:-1], u[:-1])
            ],
        )
    return out, loss, None


def cascade_mp(u, v, n_max: int, dps: int):
    """The Schur cascade on f = u/v in mpmath at ``dps`` digits.

    The reference of ``schur._cascade_mp``: each complex double converts to
    mpmath exactly, and one step takes a = u_0/v_0, v <- v - conj(a) u,
    u <- (u - a v)/z in mpmath arithmetic.  Returns (params, digit loss) and
    raises ParameterEscape at the same threshold.
    """
    import mpmath

    from opuclab.errors import ParameterEscape
    from opuclab.schur import ESCAPE_THRESHOLD, digit_loss

    out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    with mpmath.workdps(dps):
        u = [mpmath.mpc(complex(x)) for x in u]
        v = [mpmath.mpc(complex(x)) for x in v]
        for step in range(n_max):
            a = u[0] / v[0]
            out[step] = complex(a)
            mag = abs(a)
            if mag >= ESCAPE_THRESHOLD:
                raise ParameterEscape(
                    f"|a_{step}| = {abs(out[step]):.15g} at the escape threshold; "
                    "measure is finitely supported or numerically degenerate"
                )
            loss += digit_loss(mag)
            u, v = (
                [x - a * y for x, y in zip(u[1:], v[1:])],
                [y - mpmath.conj(a) * x for x, y in zip(u[:-1], v[:-1])],
            )
    return out, loss


def monic_from_moments_mp(c, n_max: int, dps: int = 60):
    """(parameters, squared norms) of the monic moment recursion in mpmath.

    The reference of ``opuc.monic_from_moments``: the same recursion, with
    conj(a_n) = <z Phi_n, 1> / <Phi_n*, 1> and <Phi_n*, 1> the squared norm,
    run at ``dps`` digits from the double moments taken as exact.
    """
    import mpmath

    with mpmath.workdps(dps):
        cbar = [mpmath.conj(mpmath.mpc(complex(x))) for x in c]
        phi = [mpmath.mpc(1)]
        phis = [mpmath.mpc(1)]
        params = []
        norms = []
        for n in range(n_max + 1):
            den = mpmath.fsum(x * y for x, y in zip(phis, cbar[: n + 1]))
            norms.append(float(den.real))
            if n == n_max:
                break
            conj_a = mpmath.fsum(x * y for x, y in zip(phi, cbar[1 : n + 2])) / den
            a = mpmath.conj(conj_a)
            params.append(complex(a))
            shifted = [mpmath.mpc(0)] + phi
            phis = phis + [mpmath.mpc(0)]
            phi = [x - conj_a * y for x, y in zip(shifted, phis)]
            phis = [y - a * x for x, y in zip(shifted, phis)]
    return np.array(params, dtype=complex), np.array(norms)


class Fixed:
    """A complex number held as integer multiples of 2^-bits, re + i im.

    The reference arithmetic of the exact passes, one object per number:
    +, -, * and / floor to 2^-bits, and ``conjugate``, ``abs`` and
    ``complex`` work as on a complex, so a recursion written for complex
    numbers runs on it unchanged.  ``complex(x)`` is the complex double
    nearest x, since int / int rounds correctly however large 2^bits is,
    with a part past the double range read as +-inf.
    """

    __slots__ = ("re", "im", "bits")

    def __init__(self, re: int, im: int, bits: int):
        self.re, self.im, self.bits = re, im, bits

    @classmethod
    def of(cls, value: complex, bits: int) -> "Fixed":
        """A complex double, exact down to 2^-bits and floored below."""
        value = complex(value)
        parts = []
        for part in (value.real, value.imag):
            num, den = part.as_integer_ratio()
            parts.append((num << bits) // den)
        return cls(parts[0], parts[1], bits)

    def __add__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.re + other.re, self.im + other.im, self.bits)

    def __sub__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.re - other.re, self.im - other.im, self.bits)

    def __mul__(self, other: "Fixed") -> "Fixed":
        re, im, bits = self.re, self.im, self.bits
        return Fixed(
            (re * other.re - im * other.im) >> bits,
            (re * other.im + im * other.re) >> bits,
            bits,
        )

    def __truediv__(self, other: "Fixed") -> "Fixed":
        re, im, bits = self.re, self.im, self.bits
        size = other.re * other.re + other.im * other.im
        return Fixed(
            ((re * other.re + im * other.im) << bits) // size,
            ((im * other.re - re * other.im) << bits) // size,
            bits,
        )

    def conjugate(self) -> "Fixed":
        return Fixed(self.re, -self.im, self.bits)

    def __complex__(self) -> complex:
        one = 1 << self.bits
        parts = []
        for part in (self.re, self.im):
            try:
                parts.append(part / one)
            except OverflowError:  # past the double range: +-inf, as IEEE rounds
                parts.append(math.inf if part > 0 else -math.inf)
        return complex(*parts)

    def __abs__(self) -> float:
        return abs(complex(self))


def cascade_fixed(u, v, n_max: int, dps: int):
    """The Schur cascade on ``Fixed`` numbers: the reference of ``schur._cascade_mp``.

    Converts and updates every coefficient, guard entries included, one
    object per number; returns (params, digit loss) and raises
    ParameterEscape with the same message.
    """
    from opuclab.errors import ParameterEscape
    from opuclab.schur import ESCAPE_THRESHOLD, digit_loss, fixed_bits

    bits = fixed_bits(dps)
    u = [Fixed.of(x, bits) for x in u]
    v = [Fixed.of(x, bits) for x in v]
    out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for step in range(n_max):
        a = u[0] / v[0]
        out[step] = complex(a)
        mag = abs(a)
        if mag >= ESCAPE_THRESHOLD:
            raise ParameterEscape(
                f"|a_{step}| = {abs(out[step]):.15g} at the escape threshold; "
                "measure is finitely supported or numerically degenerate"
            )
        loss += digit_loss(mag)
        ac = a.conjugate()
        for k in range(len(u) - 1):
            v[k] -= ac * u[k]
            u[k] = u[k + 1] - a * v[k + 1]
        u.pop()
        v.pop()
    return out, loss


def monic_fixed(moments, n_max: int, dps: int):
    """The monic moment recursion on ``Fixed`` numbers: the reference of
    ``opuc._monic_exact``, with the same returns, (MonicTable, digit loss),
    and the same PositivityLoss messages."""
    from opuclab.errors import PositivityLoss
    from opuclab.opuc import MonicTable
    from opuclab.schur import ESCAPE_THRESHOLD, SchurParameters, digit_loss, fixed_bits

    bits = fixed_bits(dps)
    cbar = [Fixed.of(x, bits).conjugate() for x in moments]
    zero = Fixed.of(0.0, bits)
    phi = [Fixed.of(1.0, bits)]
    phis = [Fixed.of(1.0, bits)]
    norms = np.zeros(n_max + 1)
    a_out = np.zeros(n_max, dtype=complex)
    loss = 0.0
    for n in range(n_max + 1):
        den = sum((x * y for x, y in zip(phis, cbar)), zero)
        value = complex(den)
        if value.real <= 0.0 or abs(value.imag) > 1e-8 * max(value.real, 1.0):
            raise PositivityLoss(
                f"norm inner product {value!r} at degree {n}; "
                "moment sequence is not positive definite"
            )
        norms[n] = value.real
        if n == n_max:
            break
        conj_a = sum((x * y for x, y in zip(phi, cbar[1:])), zero) / den
        a = conj_a.conjugate()
        a_out[n] = complex(a)
        if abs(a_out[n]) >= ESCAPE_THRESHOLD:
            raise PositivityLoss(
                f"|a_{n}| = {abs(a_out[n]):.15g} at the escape threshold; "
                "input appears finitely supported"
            )
        loss += digit_loss(abs(a_out[n]))
        shifted = [zero, *phi]
        phis.append(zero)
        phi = [h - conj_a * x for h, x in zip(shifted, phis)]
        phis = [x - a * h for h, x in zip(shifted, phis)]
    return MonicTable(norms, SchurParameters(a_out)), loss


def exact_pass_outcome(exact_pass, *args):
    """What ``exact_pass(*args)`` gives, comparable bitwise: the bytes of
    its parameters (and norms) with its digit loss, or the type and message
    of the error it raises."""
    try:
        result, loss = exact_pass(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return result.tobytes(), loss
    return result.params.values.tobytes(), result.norms_sq.tobytes(), loss


def value_recursion_fresh_arrays(xi, q, n_max: int):
    """The value-space recursion with fresh arrays at every step.

    The reference form of ``opuc._value_recursion``: the same operations in
    the same order, but every product and every new phi, phi* is a new
    array, so a buffer reused too early or swapped a step late shows as a
    bitwise difference.  Same returns and raises.
    """
    from opuclab.errors import PositivityLoss
    from opuclab.schur import ESCAPE_THRESHOLD

    phi = np.ones_like(xi)
    phis = np.ones_like(xi)
    values = np.zeros(n_max, dtype=complex)
    for n in range(n_max):
        zphi = xi * phi
        num = np.sum(zphi * q)
        den = np.sum(phis * q)
        if abs(den) < 1e-300:
            raise PositivityLoss(f"vanishing norm inner product at degree {n}")
        a = np.conj(num / den)
        if abs(a) >= ESCAPE_THRESHOLD:
            raise PositivityLoss(
                f"|a_{n}| = {abs(complex(a)):.15g} at the escape threshold; "
                "discrete measure appears degenerate at this depth"
            )
        values[n] = complex(a)
        phi, phis = zphi - np.conj(a) * phis, phis - a * zphi
    return values


def coefficient_steps_fresh(params, n_max: int):
    """The coefficient recursion with fresh arrays at every step.

    The reference form of ``opuc._coefficient_steps``: the same operations
    in the same order, but z phi, every product and every new phi, phi* is
    a new array, and the largest coefficient modulus is read at every
    step, so a buffer reused too early or a growth bound that skips an
    order shows as a bitwise difference or a moved PositivityLoss.  Same
    yields and raises; each yielded row may be kept.
    """
    from opuclab.errors import PositivityLoss
    from opuclab.opuc import _MODULUS_RANGE

    params.require_depth(n_max)
    a = params.values
    inv_rho = 1.0 / params.rho
    phi = np.zeros(n_max + 1, dtype=complex)
    phi[0] = 1.0
    phis = phi.copy()
    yield phi, phis
    for k in range(n_max):
        zphi = np.concatenate(([0.0], phi[:-1]))
        phi, phis = (zphi - np.conj(a[k]) * phis) * inv_rho[k], (
            phis - a[k] * zphi
        ) * inv_rho[k]
        top = np.abs(phi).max()
        if not top < _MODULUS_RANGE[1]:
            raise PositivityLoss(
                f"phi_{k + 1} has a coefficient of modulus {top:.3g}: "
                "its square leaves the finite double range"
            )
        yield phi, phis


def weight_from_parameters(params, grid_size: int) -> np.ndarray:
    """1/|phi_K|^2 on the N-th roots of unity for the parameters
    (a_0..a_{K-1}, 0, 0, ...): the build's two steps, phi_K's coefficients
    and their sampled density, in one call."""
    from opuclab.opuc import density_from_coefficients, phi_coefficients

    return density_from_coefficients(phi_coefficients(params), grid_size)


def gram_full_table(params, nodes, weights, n_max: int) -> np.ndarray:
    """The Gram matrix of phi_0..phi_{n_max} under the weighted nodes, from
    the whole (n_max+1, len(nodes)) table at once: the reference of the
    chunked sum in ``opuc.gram_matrix``."""
    from opuclab.opuc import eval_grid_table

    phi = eval_grid_table(params, nodes, n_max)[0]
    return (phi * weights) @ phi.conj().T


def cmv_coefficients_dense(
    mu: CircleMeasure, params, f_samples, n_max: int, f_atom_values=None
):
    """Integrals of f conj(chi_k) dmu, k <= n_max, from explicit chi tables.

    Builds the whole (n_max+1, N) table with chi_k = conj(xi)**(k//2) times
    phi*_k (k even) or phi_k (k odd), each power taken directly, and
    contracts it with one matmul; atoms add mass * f * conj(chi) at their
    points.  ``f_samples`` may be one function (N,) or a stack (m, N).
    The polynomial values come from the table route (eval_grid_table);
    the phases, the parity split and the contraction are independent of
    the streamed pass under test.
    """
    from opuclab.opuc import eval_grid_table

    orders = np.arange(n_max + 1)[:, None]

    def table(points):
        phi, phi_star = eval_grid_table(params, points, n_max)
        basis = np.where(orders % 2 == 0, phi_star, phi)
        return basis * np.conj(points)[None, :] ** (orders // 2)

    f = np.asarray(f_samples, dtype=complex)
    coeffs = (f * mu.weight) @ np.conj(table(mu.boundary_points)).T / mu.grid_size
    if mu.atoms:
        fa = np.asarray(f_atom_values, dtype=complex)
        coeffs = coeffs + (fa * mu.atom_masses) @ np.conj(table(mu.atom_points)).T
    return coeffs


def cmv_coefficients_mp(
    mu: CircleMeasure, params, f_samples, n_max: int, f_atom_values=None, dps=40
):
    """Integrals of f conj(chi_k) dmu, k <= n_max, summed at ``dps`` digits.

    The quadrature of ``mu.quadrature()`` with its double nodes, weights and
    f values taken as exact: at each node the transfer recursion runs in
    mpmath from the double parameters, chi_k is formed by its definition
    and the sum accumulates at ``dps`` digits.  Pure Python, about 30 us
    per node and order.
    """
    import mpmath

    nodes, weights = mu.quadrature()
    fa = np.zeros(0) if f_atom_values is None else np.asarray(f_atom_values)
    values = np.concatenate([np.asarray(f_samples), fa]) * weights
    with mpmath.workdps(dps):
        a = [mpmath.mpc(complex(x)) for x in params.values[:n_max]]
        conj_a = [mpmath.conj(x) for x in a]
        inv_rho = [1 / mpmath.sqrt(1 - abs(x) ** 2) for x in a]
        # sums of conj(f q) chi_k; conjugated once at the end
        sums = [mpmath.mpc(0)] * (n_max + 1)
        for z, v in zip(nodes, values):
            z = mpmath.mpc(complex(z))
            phase = mpmath.mpc(complex(np.conj(v)))  # conj(f q) conj(z)^(k//2)
            phi = phis = mpmath.mpc(1)
            sums[0] += phase
            for k in range(n_max):
                zphi = z * phi
                phi, phis = (zphi - conj_a[k] * phis) * inv_rho[k], (
                    phis - a[k] * zphi
                ) * inv_rho[k]
                if k % 2:
                    phase *= mpmath.conj(z)
                    sums[k + 1] += phase * phis
                else:
                    sums[k + 1] += phase * phi
        return np.array([complex(mpmath.conj(c)) for c in sums])


def entropy_profile_per_delta(
    mu: CircleMeasure, xi0: complex, n_list, delta_grid_size: int, terms=None
):
    """(n, K_n, P_n, F_n) rows with one pair of extensions per delta.

    The profile by its definition, one delta at a time: for each n and
    each resolved delta it takes P(mu, z) and the entropy at
    z = (1 - delta/n) xi0 from ``terms(z)``, and folds the running max of
    the clipped entropy and the running min of P(mu, z).  By default
    ``terms`` evaluates the Poisson kernel once for P(mu, z) and again for
    P(log w, z), in plain arrays.  Rows are plain tuples; the Fejer column
    comes from the package's ``fejer_mean``.
    """
    from opuclab.measure import fejer_mean

    points = np.exp(1j * (2.0 * np.pi * np.arange(mu.grid_size) / mu.grid_size))
    atom_points = np.exp(1j * np.array([a for a, _ in mu.atoms]))
    masses = np.array([m for _, m in mu.atoms])

    def kernel(at, z):
        return (1.0 - abs(z) ** 2) / np.abs(1.0 - np.conj(at) * z) ** 2

    def plain_terms(z):
        p_mu = float(np.mean(mu.weight * kernel(points, z)))
        if mu.atoms:
            p_mu += float(np.sum(masses * kernel(atom_points, z)))
        p_log = float(np.mean(np.log(mu.weight) * kernel(points, z)))
        return p_mu, float(np.log(p_mu) - p_log)

    terms = terms or plain_terms
    deltas = np.geomspace(1e-4, 1.0 - 1e-4, delta_grid_size)
    rows = []
    for n in n_list:
        k_n = -np.inf
        p_n = np.inf
        for d in deltas[deltas / n >= 8.0 / mu.grid_size]:
            p_mu, value = terms(complex((1.0 - d / n) * xi0))
            k_n = max(k_n, max(value, 0.0))
            p_n = min(p_n, p_mu)
        rows.append((n, float(k_n), float(p_n), fejer_mean(mu, xi0, n)))
    return rows


def poisson_means_mp(mu: CircleMeasure, zs, dps: int = 40):
    """P(w, z), P(log w, z) and the Schwarz-kernel mean of log w at each z.

    The grid part of the quadrature summed at ``dps`` digits: the nodes
    are the exact e^{2 pi i j/N} at ``dps`` digits, and the double samples
    w_j and log w_j (as ``np.log`` gives them) are taken as exact.  Atoms
    are left out.  Pure Python, about 40 us per node and point.
    """
    import mpmath

    with mpmath.workdps(dps):
        angles = [2 * mpmath.pi * j / mu.grid_size for j in range(mu.grid_size)]
        nodes = [(mpmath.cos(t), mpmath.sin(t)) for t in angles]
        rows = [
            (mpmath.mpf(float(w)), mpmath.mpf(float(lw)))
            for w, lw in zip(mu.weight, np.log(mu.weight))
        ]
        out = []
        for z in zs:
            zr, zi = mpmath.mpf(complex(z).real), mpmath.mpf(complex(z).imag)
            scale = 1 - zr * zr - zi * zi
            p_w = p_log = q_log = mpmath.mpf(0)
            for (xr, xi), (w, lw) in zip(nodes, rows):
                dr, di = xr - zr, xi - zi
                inv = 1 / (dr * dr + di * di)
                kernel = scale * inv
                p_w += w * kernel
                p_log += lw * kernel
                q_log += lw * 2 * (zi * xr - zr * xi) * inv
            n = mu.grid_size
            out.append((p_w / n, p_log / n, mpmath.mpc(p_log, q_log) / n))
        return [
            (float(p_w), float(p_log), complex(schwarz))
            for p_w, p_log, schwarz in out
        ]


def phi_star_zero_free_per_point(ctx):
    """``experiments._phi_star_zero_free`` with one transfer pass per point."""
    from opuclab.experiments import _judged
    rng = ctx.rng(33)
    n_top = min(32, ctx.depth)
    low = math.inf
    points = [0.0 + 0.0j]
    for _ in range(16):
        theta = rng.angle()
        for r in (0.3, 0.6, 0.9, 0.99):
            points.append(r * complex(np.exp(1j * theta)))
    for z in points:
        _, phis = eval_table(ctx.params, z, n_top)
        low = min(low, float(np.min(np.abs(phis))))
    return _judged(
        low >= 1e-8,
        low,
        f"min |phi_n*(z)| over radial-angular grid |z| <= 0.99, "
        f"n <= {n_top}; reflected polynomials have no disk zeros",
    )


def cd_three_route_per_point(ctx):
    """``experiments._cd_three_route`` by ``cd_kernel_routes``, so every
    kernel value costs its own transfer passes."""
    from opuclab.experiments import _within

    rng = ctx.rng(34)
    n_top = max(min(32, ctx.depth - 1), 1)
    worst = 0.0
    pairs = 0
    while pairs < 24:
        xi = complex(np.exp(1j * rng.angle()))
        z = complex(np.exp(1j * rng.angle()))
        if abs(1.0 - np.conj(xi) * z) < 0.1:
            continue
        n = 1 + rng.next_raw() % n_top
        pairs += 1
        direct, quotient, laurent = cd_kernel_routes(ctx.params, xi, z, n)
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


def _nearest_grid_node(mu: CircleMeasure, xi: complex) -> int:
    """Index of the grid point closest to xi, by distance to every node."""
    return int(np.argmin(np.abs(mu.boundary_points - xi)))


def sandwich_rows_per_n(mu: CircleMeasure, params, xi0, n_list, delta_grid_size):
    """``sandwich_table`` rows with one profile and one transfer
    table per n, and the target read at the nearest grid point."""
    from opuclab.asymptotics import SANDWICH_RATE_CONSTANT, SandwichRow
    from opuclab.measure import _as_boundary
    from opuclab.szego import entropy_profile

    xi0 = _as_boundary(xi0)
    target = 1.0 / max(float(mu.weight[_nearest_grid_node(mu, xi0)]), 1e-300)
    rows = []
    for n in n_list:
        (prow,) = entropy_profile(mu, xi0, [n], delta_grid_size)
        phi, _ = eval_table(params, xi0, n - 1)
        rows.append(
            SandwichRow(
                n=n,
                cesaro=float(np.mean(np.abs(phi) ** 2)),
                target=target,
                lower=1.0 / prow.f_n,
                upper=(1.0 + SANDWICH_RATE_CONSTANT * prow.k_n ** 0.25) / prow.p_n,
                k_n=prow.k_n,
                p_n=prow.p_n,
                f_n=prow.f_n,
            )
        )
    return rows


def jost_step_defects_loop(params, sol) -> np.ndarray:
    """Per-step relative one-step defects of a Jost solution, one step at a
    time with scalar complex products and one ``np.linalg.norm`` per
    vector: the reference of the array form."""
    n_steps = min(sol.n_max, len(params))
    xi = sol.xi
    a = params.values
    rho = params.rho
    defects = np.empty(n_steps)
    for n in range(n_steps):
        x, y = sol.entries[n]
        pred = np.array(
            [(xi * x - np.conj(a[n]) * y) / rho[n], (y - a[n] * xi * x) / rho[n]]
        )
        defect = float(np.linalg.norm(sol.entries[n + 1] - pred))
        scale = max(1.0, float(np.linalg.norm(sol.entries[n])))
        defects[n] = defect / scale
    return defects


def scattering_rows_per_n(mu: CircleMeasure, params, xi, n_list):
    """Rows of ``experiments._scattering_table`` at the grid node nearest xi.

    The Jost solutions take F and D from the whole grid
    (``herglotz_boundary(mu)[j]``, ``szego_boundary(mu)[j]``) at the node
    ``boundary_points[j]``, and each n re-runs the recurrence residual on
    the solutions clipped to n + 1 entries.
    """
    from opuclab.opuc import dual_parameters
    from opuclab.scattering import JostSolution
    from opuclab.szego import szego_boundary

    j = _nearest_grid_node(mu, xi)
    node = complex(mu.boundary_points[j])
    f_j = herglotz_boundary(mu)[j]
    d_j = szego_boundary(mu)[j]
    n_max = max(n_list)
    phi, phis = eval_table(params, node, n_max)
    psi, psis = eval_table(dual_parameters(params), node, n_max)
    base = np.stack([psi, -psis], axis=1)
    poly = np.stack([phi, phis], axis=1)
    plus = 0.5 / d_j * (base + f_j * poly)
    minus = -0.5 / np.conj(d_j) * (base - np.conj(f_j) * poly)
    rows = []
    for n in n_list:
        residual = max(
            0.0,
            *jost_step_defects_loop(params, JostSolution(node, "+", plus[: n + 1])),
            *jost_step_defects_loop(params, JostSolution(node, "-", minus[: n + 1])),
        )
        rows.append(
            (
                n,
                float(np.mean(np.abs(plus[:n, 1]))),
                float(np.mean(np.abs(minus[:n, 0]))),
                residual,
            )
        )
    return rows


def herglotz_boundary(mu: CircleMeasure) -> np.ndarray:
    """Boundary values of the Herglotz transform at every grid node, by
    ``scattering._herglotz_at``; non-finite at a node hit by an atom."""
    from opuclab.scattering import _herglotz_at

    return _herglotz_at(mu, slice(None), mu.boundary_points)


def schur_iterate_eval(params, f_value: complex, z: complex, n: int) -> complex:
    """f_n(z) from f(z) by n pointwise steps of the Schur recursion."""
    from opuclab.schur import _pointwise_iterates

    return list(_pointwise_iterates(params, f_value, z, n))[n]


def khrushchev_rhs(params, z: complex, f_value: complex, n: int) -> float:
    """(1 - |z b_n f_n|^2)/|1 - z b_n f_n|^2 with b_n = phi_n/phi_n*.

    Khrushchev's formula: this equals the Poisson average of |phi_n*|^2
    against the measure, whose quadrature the tests compare it with.
    """
    from opuclab.errors import DivisionBlowup, OutOfRange
    z = complex(z)
    if abs(z) >= 1.0 - 1e-12:
        raise OutOfRange(f"|z| = {abs(z):.12g} must be interior")
    if abs(z) < 1e-12:
        return 1.0
    pair = eval_pair(params, z, n)
    f_n = schur_iterate_eval(params, f_value, z, n)
    t = z * (pair.phi / pair.phi_star) * f_n
    if abs(1.0 - t) < 1e-12:
        raise DivisionBlowup(f"1 - z b_n f_n = {1.0 - t!r} at z = {z!r}")
    return float((1.0 - abs(t) ** 2) / abs(1.0 - t) ** 2)


def duality_identity_residual(mu: CircleMeasure, params, n_check: int = 32) -> float:
    """Max defect of the pairing identities between a family and its dual.

    Checks Re(phi_n*(xi) conj(psi_n*(xi))) = 1 over the grid for all
    n <= n_check, and Re(1 / (D_mu conj(D_nu))) = 1 over the nodes where
    the Herglotz values are finite, with D_nu = D_mu / F.
    """
    from opuclab.opuc import dual_parameters, eval_grid_table
    from opuclab.szego import szego_boundary

    grid = mu.boundary_points
    _, phis = eval_grid_table(params, grid, n_check)
    _, psis = eval_grid_table(dual_parameters(params), grid, n_check)
    poly_resid = float(np.max(np.abs(np.real(phis * np.conj(psis)) - 1.0)))

    f_grid = herglotz_boundary(mu)
    mask = np.isfinite(f_grid)
    d_grid = szego_boundary(mu)
    d_mu, d_nu = d_grid[mask], (d_grid / f_grid)[mask]
    outer_resid = float(
        np.max(np.abs(np.real(1.0 / (d_mu * np.conj(d_nu))) - 1.0))
    )
    return max(poly_resid, outer_resid)


def jost_target(sol, n) -> np.ndarray:
    """The free solution a Jost solution tracks, at step n or at an array
    of steps: (xi^n, 0) on the "+" side, (0, 1) on the "-" side."""
    zero = np.zeros(np.shape(n))
    if sol.side == "+":
        return np.stack([sol.xi ** np.asarray(n), zero], axis=-1)
    return np.stack([zero, zero + 1.0], axis=-1)


def averaged_jost_deviation(sol, n: int) -> float:
    """(1/n) sum_{k<n} of the distance from entry k to its free target."""
    from opuclab.errors import OutOfRange
    from opuclab.scattering import _row_norms

    if n < 1 or n > sol.n_max + 1:
        raise OutOfRange(f"average over n = {n} entries unavailable")
    deviations = _row_norms(sol.entries[:n] - jost_target(sol, np.arange(n)))
    # a running sum, added in step order
    return float(np.cumsum(deviations)[-1]) / n


def szego_recovery_deviation(mu: CircleMeasure, params, xi: complex, n: int) -> float:
    """(1/n) sum over 1 <= k <= n of |phi_k*(xi) D(xi) - 1|^2 at a grid node.

    The product tends to 1 in Cesaro mean for Szego measures; the boundary
    outer values live on the grid, so xi snaps to its closest node.  The
    k = 0 term is skipped: phi_0* = 1 carries no recursion information and
    D(xi) - 1 alone would pollute the mean.
    """
    from opuclab.errors import OutOfRange
    from opuclab.measure import _as_boundary, snap
    from opuclab.szego import szego_boundary

    mu.require_szego()
    xi = _as_boundary(xi)
    if n < 1:
        raise OutOfRange("deviation order requires n >= 1")
    j, node = snap(mu.grid_size, xi)
    d_val = szego_boundary(mu)[j]
    _, phis = eval_table(params, node, n)
    return float(np.mean(np.abs(phis[1:] * d_val - 1.0) ** 2))
