import pytest

from ellprym.builder import bielliptic_spec, build_cover, pirola_spec
from ellprym.covering import change_basis
from ellprym.diffalg import quadric_kernel, trace_split
from ellprym.geometry import decompose_quadric
from ellprym.prym import kernel_E, kernel_full
from ellprym.scalars import Matrix


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


@pytest.fixture(scope="session")
def moved_frames():
    """The genus-4 double cover and the degree-3 Galois cover at window 13,
    their forms moved by the unimodular B with ones on the diagonal and the
    superdiagonal, as (datum, action) by name: no alpha index hint survives,
    so the analysis solves for alpha.  The double cover goes without an
    action; the Galois cover takes B^-1 M B, a generator that is not
    diagonal."""
    frames = {}
    for name, spec in (("double4", bielliptic_spec(4, 13)),
                       ("pirola", pirola_spec(13))):
        result = build_cover(spec)
        datum = result.datum
        B = Matrix(datum.field, [[int(j - i in (0, 1)) for j in range(4)]
                                 for i in range(4)])
        action = None if name == "double4" else result.action._replace(
            matrix=B.inverse().matmul(result.action.matrix).matmul(B))
        frames[name] = (change_basis(datum, B), action)
    return frames
