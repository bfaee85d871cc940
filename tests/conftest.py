import numpy as np
import pytest

from fermigauss import verify


@pytest.fixture(autouse=True)
def fresh_law_tables():
    """Each test builds the quadrature-law tables (with the Fock-check nodes
    and guard verdict each keeps) and fixed rotations it reads, so a test that
    patches a rule's builder never reads one an earlier test kept."""
    for cached in (verify._law_tables, verify._second_rotation, verify._nc_rotation):
        cached.cache_clear()


def hermitian_matrix(gen, m):
    z = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
    return (z + z.conj().T) / 2.0


def skew_matrix(gen, m):
    z = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
    return (z - z.T) / 2.0


def max_abs(a, b=None):
    a = np.asarray(a)
    return float(np.abs(a if b is None else a - np.asarray(b)).max())
