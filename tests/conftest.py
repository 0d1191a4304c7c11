import numpy as np
import pytest

from hyperflow.catalog import CATALOG
from hyperflow.descriptors import ProductOfSpheres, Umbilic, derive_umbilic, dimensions
from hyperflow.lorentz import OrthonormalFrame, orthonormalize_frame

CATALOG_NAMES = sorted(CATALOG)
MOVING_NAMES = [n for n in CATALOG_NAMES if n != "ambient_h3"]


def geodesic_chain(depth: int):
    """``circle_h2`` wrapped ``depth`` times in a geodesic umbilic inclusion: normal rank depth + 1."""
    d = CATALOG["circle_h2"]
    for _ in range(depth):
        d = Umbilic(derive_umbilic([1.0] + [0.0] * (dimensions(d).m + 1), 0.0), d)
    return d


def near_horospherical_circle(a: float):
    """The circle of the spherical level a in H^2: horospherical as a -> infinity."""
    return Umbilic(derive_umbilic((0.0, 0.0, -1.0), a), ProductOfSpheres(((1, a * a - 1.0),)))


def random_admissible_frame(rng: np.random.Generator, m: int) -> OrthonormalFrame:
    """A random admissible frame built from a guaranteed-timelike seed set."""
    vecs = [rng.normal(size=m + 1) for _ in range(m)]
    u = 0.8 * rng.normal(size=m)
    vecs.append(np.append(u, np.sqrt(1.0 + u @ u)))
    return orthonormalize_frame(vecs)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(params=CATALOG_NAMES)
def catalog_entry(request):
    return request.param, CATALOG[request.param]
