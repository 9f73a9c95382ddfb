"""Independent slow-path references the fast implementations are tested against.

Everything here works directly from definitions: dense Gram-Schmidt in
L^2(mu) instead of any recursion, plain quadrature sums instead of kernel
algebra.
Agreement between these and the package routines is evidence, not
tautology, because no code is shared beyond the measure container.
The bitwise references (``value_recursion_fresh_arrays``,
``entropy_profile_per_delta``) instead restate a fast routine in its plain
array form, to show that its buffers change no bit; the profile reference
is also the roundoff-level oracle of the spectral Poisson route.  In the
same way ``phi_star_zero_free_per_point`` and ``cd_three_route_per_point``
restate two sampled checks with one transfer pass per point, to show that
evaluating all the points in one table changes no bit, and
``sandwich_rows_per_n`` and ``scattering_rows_per_n`` restate two CSV
tables with one evaluation per n, boundary data read off the whole grid.
``cascade_mp`` and ``monic_from_moments_mp`` run the two O(n^2)
extraction routes in mpmath floating point, the references of their
fixed-point passes.
"""

from __future__ import annotations

import math

import numpy as np

from opuclab.measure import CircleMeasure


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


def cd_kernel_bruteforce(params, xi: complex, z: complex, n: int) -> complex:
    """sum_k conj(phi_k(xi)) phi_k(z) with each pair evaluated separately.

    The conjugate sits on the first argument, matching the quotient form's
    denominator 1 - conj(xi) z.
    """
    from opuclab.opuc import eval_pair

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


def value_recursion_fresh_arrays(xi, q, n_max: int, max_loss: float):
    """The value-space recursion with fresh arrays at every step.

    The reference form of ``opuc._value_recursion``: the same operations in
    the same order, but every product and every new phi, phi* is a new
    array, so a buffer reused too early or swapped a step late shows as a
    bitwise difference.  Same returns and raises.
    """
    from opuclab.errors import PositivityLoss
    from opuclab.schur import ESCAPE_THRESHOLD, digit_loss

    phi = np.ones_like(xi)
    phis = np.ones_like(xi)
    values = np.zeros(n_max, dtype=complex)
    loss = 0.0
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
        loss += digit_loss(abs(a))
        if loss > max_loss:
            return None
        values[n] = complex(a)
        phi, phis = zphi - np.conj(a) * phis, phis - a * zphi
    return values


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
    from opuclab.opuc import eval_table

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
    """``experiments._cd_three_route`` by the one-point kernel functions.

    Each pair takes ``opuc.cd_kernel_sum``, ``cd_kernel_poly`` and
    ``cd_kernel_cmv``, so every kernel value costs its own transfer passes.
    """
    from opuclab.experiments import _within
    from opuclab.opuc import cd_kernel_cmv, cd_kernel_poly, cd_kernel_sum

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
        direct = cd_kernel_sum(ctx.params, xi, z, n)
        quotient = cd_kernel_poly(ctx.params, xi, z, n)
        laurent = cd_kernel_cmv(ctx.params, xi, z, n)
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
    """``asymptotics.sandwich_table`` rows with one profile and one transfer
    table per n, and the target read at the nearest grid point."""
    from opuclab.asymptotics import SANDWICH_RATE_CONSTANT, SandwichRow
    from opuclab.measure import _as_boundary
    from opuclab.opuc import eval_table
    from opuclab.szego import entropy_profile

    xi0 = _as_boundary(xi0)
    target = 1.0 / max(float(mu.weight[_nearest_grid_node(mu, xi0)]), 1e-300)
    rows = []
    for n in n_list:
        prow = entropy_profile(mu, xi0, [n], delta_grid_size).rows[0]
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


def _recurrence_residual_loop(params, sol) -> float:
    """Worst relative one-step defect of a Jost solution, one step at a time."""
    xi = sol.xi
    a = params.values
    rho = params.rho
    worst = 0.0
    for n in range(min(sol.n_max, len(params))):
        x, y = sol.entries[n]
        pred = np.array(
            [(xi * x - np.conj(a[n]) * y) / rho[n], (y - a[n] * xi * x) / rho[n]]
        )
        defect = float(np.linalg.norm(sol.entries[n + 1] - pred))
        scale = max(1.0, float(np.linalg.norm(sol.entries[n])))
        worst = max(worst, defect / scale)
    return worst


def scattering_rows_per_n(mu: CircleMeasure, params, xi, n_list):
    """Rows of ``experiments._scattering_table`` at the grid node nearest xi.

    The Jost solutions take F and D from the whole grid
    (``herglotz_boundary(mu)[j]``, ``szego_boundary(mu)[j]``) at the node
    ``boundary_points[j]``, and each n re-runs the recurrence residual on
    the solutions clipped to n + 1 entries.
    """
    from opuclab.opuc import dual_parameters, eval_table
    from opuclab.scattering import JostSolution, herglotz_boundary
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
            _recurrence_residual_loop(params, JostSolution(node, "+", plus[: n + 1])),
            _recurrence_residual_loop(params, JostSolution(node, "-", minus[: n + 1])),
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
