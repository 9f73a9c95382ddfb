"""Shared family fixtures, built once per session.

Depths cover the deepest sweep any test runs (n = 256 plus the order
needed by kernel quotients); the ell2 family gets the larger grid its
truncation order requires for quadrature-level self-consistency.
"""

import pytest

from opuclab.families import build_family

DEPTH = 257


@pytest.fixture(scope="session")
def leb():
    return build_family({"name": "lebesgue"}, 4096, DEPTH)


@pytest.fixture(scope="session")
def bs_half():
    return build_family({"name": "bernstein_szego", "r": 0.5}, 4096, DEPTH)


@pytest.fixture(scope="session")
def geronimus6():
    return build_family({"name": "geronimus", "a": 0.6}, 4096, DEPTH)


@pytest.fixture(scope="session")
def ell2_half():
    return build_family({"name": "ell2", "c": 0.5, "p": 1.0}, 16384, 256)


@pytest.fixture(scope="session")
def mixed_atom():
    return build_family(
        {
            "name": "mixed",
            "base": {"name": "bernstein_szego", "r": 0.3},
            "atoms": [{"angle": 2.0, "mass": 0.2}],
        },
        4096,
        DEPTH,
    )


@pytest.fixture(scope="session")
def mixed_three_atoms():
    # three atoms off the grid nodes, so each point sums three atom terms
    return build_family(
        {
            "name": "mixed",
            "base": {"name": "lebesgue"},
            "atoms": [
                {"angle": 0.5, "mass": 0.1},
                {"angle": 2.2, "mass": 0.15},
                {"angle": 4.4, "mass": 0.05},
            ],
        },
        4096,
        DEPTH,
    )


@pytest.fixture()
def spy(monkeypatch):
    """spy(read, owner, name, *also): ``owner.name`` runs as before, but each
    call first appends ``read(*args, **kwargs)`` to the list spy returns.  The modules
    in ``also`` bound the same function by name and get the same wrapper."""

    def install(read, owner, name, *also):
        original = getattr(owner, name)
        record = []

        def recorded(*args, **kwargs):
            record.append(read(*args, **kwargs))
            return original(*args, **kwargs)

        for module in (owner, *also):
            monkeypatch.setattr(module, name, recorded)
        return record

    return install


@pytest.fixture(scope="session")
def all_families(leb, bs_half, geronimus6, ell2_half, mixed_atom):
    return (leb, bs_half, geronimus6, ell2_half, mixed_atom)
