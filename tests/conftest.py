import numpy as np
import pytest

from cubic27 import fermat_data, htrack, lattice, lines, monodromy, perm


@pytest.fixture(scope="session")
def weyl():
    return lines.weyl_group()


@pytest.fixture(scope="session")
def s4():
    return lines.s4_group()


@pytest.fixture(scope="session")
def klein():
    return lines.monodromy_klein_group()


@pytest.fixture(scope="session")
def w_a5():
    gens = lattice.weyl_presentation_from_six(fermat_data.PRESENTATION_SIX)
    return perm.generate(gens[1:])


@pytest.fixture(scope="session")
def other_s6():
    return monodromy.find_other_s6()


@pytest.fixture(scope="session")
def reduction():
    return lattice.mod3_reduction()


@pytest.fixture(scope="session")
def marking():
    return lattice.marking_vectors(fermat_data.PRESENTATION_SIX)


@pytest.fixture(scope="session")
def symmetric_report():
    return monodromy.compute_monodromy(monodromy.symmetric_family(), budget=40, seed=1)


@pytest.fixture(scope="session")
def full_report():
    return monodromy.compute_monodromy(monodromy.full_family(), budget=300, seed=1)


@pytest.fixture(scope="session")
def reversal_pairs():
    """A function that tracks ``count`` triangles of a family (the symmetric
    one by default), the j-th drawn from default_rng((seed, 7000 + j)), and
    their reverses over the catalog in one ``htrack.track_loop`` batch; it
    returns the results, each triangle's followed by its reverse's."""

    def track(spec=None, count=20, seed=1):
        spec = spec or monodromy.symmetric_family()
        triangles = [
            monodromy.random_loop(spec, np.random.default_rng((seed, 7000 + j)), spec.scale).vertices
            for j in range(count)
        ]
        loops = [v for loop in triangles for v in (loop, loop[::-1])]
        return htrack.track_loop(loops, monodromy._catalog_fiber())

    return track
