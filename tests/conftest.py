from fractions import Fraction

import pytest
from hypothesis import settings

from toricap.moment_domain import EllipsoidSpec, make_polygon_domain

# every property suite replays the same examples on every run, keeps no
# example database and has no per-example deadline; a suite sets only its
# own max_examples
settings.register_profile("toricap", derandomize=True, database=None, deadline=None)
settings.load_profile("toricap")


def edges(domain):
    """The polygon's edges as (start, end) vertex pairs, left to right."""
    return list(zip(domain.vertices, domain.vertices[1:]))


def random_polygon_near_diagonal(rng):
    """A random concave polygon lifted so that a chosen vertex sits on,
    just above or just below y = x.  When the lifted graph ends above the
    axis it drops vertically there, so drop tops land above, on and below
    the diagonal; lifting by the last height ends it on the axis."""
    slopes = sorted({Fraction(-rng.randint(0, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))}, reverse=True)
    graph = [(Fraction(0), Fraction(0))]
    for slope in slopes:
        dx = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        graph.append((graph[-1][0] + dx, graph[-1][1] + slope * dx))
    px, py = rng.choice(graph)
    lift = px - py + rng.choice([0, 0, Fraction(1, 7), Fraction(-1, 7)])
    if rng.random() < 0.2:
        lift = -graph[-1][1]
    lift = max(lift, -graph[-1][1], Fraction(1, 5))
    vertices = [(x, y + lift) for x, y in graph]
    if vertices[-1][1] > 0:
        vertices.append((vertices[-1][0], Fraction(0)))
    return make_polygon_domain(vertices)


def random_concave_polygon(rng):
    """A random moment polygon: strictly decreasing rational slopes <= 0,
    rational edge widths, sometimes a final vertical drop."""
    slopes = sorted(
        {Fraction(-rng.randint(0, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 8))},
        reverse=True,
    )
    steps = []
    for slope in slopes:
        dx = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        steps.append((dx, slope * dx))
    drop = Fraction(rng.randint(1, 8), rng.randint(1, 3)) if rng.random() < 0.3 else Fraction(0)
    height = drop - sum(dy for _, dy in steps)
    if height == 0:
        drop = height = Fraction(1)
    x, y = Fraction(0), height
    vertices = [(x, y)]
    for dx, dy in steps:
        x, y = x + dx, y + dy
        vertices.append((x, y))
    if drop:
        vertices.append((x, Fraction(0)))
    return make_polygon_domain(vertices)


@pytest.fixture
def polygon_near_diagonal():
    """``random_polygon_near_diagonal``: call it with a random.Random."""
    return random_polygon_near_diagonal


@pytest.fixture
def concave_polygon():
    """``random_concave_polygon``: call it with a random.Random."""
    return random_concave_polygon


@pytest.fixture
def tri11():
    """Moment simplex of the unit ball."""
    return make_polygon_domain([(0, 1), (1, 0)])


@pytest.fixture
def tri12():
    """Moment simplex of E(1, 2)."""
    return make_polygon_domain([(0, 2), (1, 0)])


@pytest.fixture
def square():
    """Moment image of the unit bidisk."""
    return make_polygon_domain([(0, 1), (1, 1), (1, 0)])


@pytest.fixture
def pentagon():
    """A three-edge concave graph used as a generic fixture."""
    return make_polygon_domain([(0, 2), (1, Fraction(3, 2)), (2, 0)])


@pytest.fixture
def e12():
    return EllipsoidSpec((Fraction(1), Fraction(2)))


@pytest.fixture
def e11():
    return EllipsoidSpec((Fraction(1), Fraction(1)))
