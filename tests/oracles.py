"""Independent slow-path references the fast implementations are tested against.

Everything here works directly from definitions: dense Gram-Schmidt in
L^2(mu) instead of any recursion, plain quadrature sums instead of kernel
algebra.
Agreement between these and the package routines is evidence, not
tautology, because no code is shared beyond the measure container.
"""

from __future__ import annotations

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


def entropy_profile_per_delta(
    mu: CircleMeasure, xi0: complex, n_list, delta_grid_size: int
):
    """(n, K_n, P_n, F_n) rows with one pair of extensions per delta.

    The profile by its definition, one delta at a time: for each n and
    each resolved delta it evaluates the Poisson kernel at
    z = (1 - delta/n) xi0 once for P(mu, z) and again for P(log w, z), and
    folds the running max of the clipped entropy and the running min of
    P(mu, z).  Rows are plain tuples; the Fejer column comes from the
    package's ``fejer_mean``.
    """
    from opuclab.measure import fejer_mean

    points = np.exp(1j * (2.0 * np.pi * np.arange(mu.grid_size) / mu.grid_size))
    atom_points = np.exp(1j * np.array([a for a, _ in mu.atoms]))
    masses = np.array([m for _, m in mu.atoms])

    def kernel(at, z):
        return (1.0 - abs(z) ** 2) / np.abs(1.0 - np.conj(at) * z) ** 2

    deltas = np.geomspace(1e-4, 1.0 - 1e-4, delta_grid_size)
    rows = []
    for n in n_list:
        k_n = -np.inf
        p_n = np.inf
        for d in deltas[deltas / n >= 8.0 / mu.grid_size]:
            z = complex((1.0 - d / n) * xi0)
            p_mu = float(np.mean(mu.weight * kernel(points, z)))
            if mu.atoms:
                p_mu += float(np.sum(masses * kernel(atom_points, z)))
            p_log = float(np.mean(np.log(mu.weight) * kernel(points, z)))
            k_n = max(k_n, max(float(np.log(p_mu) - p_log), 0.0))
            p_n = min(p_n, p_mu)
        rows.append((n, float(k_n), float(p_n), fejer_mean(mu, xi0, n)))
    return rows
