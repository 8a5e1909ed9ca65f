import pytest

from ellprym.builder import bielliptic_spec, build_cover, pirola_spec
from ellprym.diffalg import quadric_kernel, trace_split
from ellprym.geometry import decompose_quadric
from ellprym.prym import kernel_E, kernel_full


class Bundle:
    """A built fixture with the full analysis chain precomputed."""

    def __init__(self, spec):
        self.spec = spec
        self.result = build_cover(spec)
        self.datum = self.result.datum
        self.action = self.result.action
        self.split = trace_split(self.datum)
        self.quadrics = quadric_kernel(self.datum)
        self.decs = [decompose_quadric(self.split, G)
                     for G in self.quadrics]
        self.kernel = kernel_E(self.datum, self.split)
        self.criterion = kernel_full(self.kernel)


@pytest.fixture(scope="session")
def pirola():
    return Bundle(pirola_spec())


@pytest.fixture(scope="session")
def biell4():
    return Bundle(bielliptic_spec(4))


@pytest.fixture(scope="session")
def biell3():
    return Bundle(bielliptic_spec(3))


@pytest.fixture(scope="session")
def all_bundles(pirola, biell4, biell3):
    return {"pirola": pirola, "bielliptic4": biell4, "bielliptic3": biell3}
