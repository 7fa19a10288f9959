import pytest

from cubic27 import fermat_data, lattice, lines, monodromy, perm


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
