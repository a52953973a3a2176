"""The immutable value types: the dataclass repr, == and hash over the
fields alone, attributes that cannot be set or deleted, no __dict__, and
copies and pickles that equal the original, all from one base class."""
import copy
import inspect
import pathlib
import pickle
from fractions import Fraction

import pytest

from toricap import capacities, moment_domain, rounding_reeb, sft_ledger
from toricap.capacities import AxisMultiple, CapacityReport, Cylinder, LowerBound, Polydisk, ProjectiveSpace
from toricap.moment_domain import EllipsoidSpec, LatticeDirection, _Frozen, equal_diagonal_enclosing_ellipsoids, make_polygon_domain
from toricap.rounding_reeb import Margins, OrbitSplit, ReebOrbitFamily, round_domain
from toricap.sft_ledger import Building, CheckResult, CurveNode, Puncture, ValidationReport

TRIANGLE = make_polygon_domain([(0, 1), (1, 0)])
ROUNDED = round_domain(TRIANGLE, 1e-2, 0.1)
FRACTIONS_0_1 = "(Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))"
END = Puncture(1, 1, "positive")
NODE = CurveNode("a", 0, "top", 0, "1/3", (END,))
END_REPR = "Puncture(cz=1, action=Fraction(1, 1), sign='positive', paired_with=None)"
NODE_REPR = f"CurveNode(id='a', level=0, kind='top', index=0, energy=Fraction(1, 3), punctures=({END_REPR},), divisor_hits=0)"

# every public value type, each with the repr the frozen dataclasses gave it
REPRS = [
    (LatticeDirection(1, 2), "LatticeDirection(l=1, m=2)"),
    (TRIANGLE, f"MomentDomain2D(vertices=({FRACTIONS_0_1}))"),
    (EllipsoidSpec(("1", "3/2")), "EllipsoidSpec(axes=(Fraction(1, 1), Fraction(3, 2)))"),
    (equal_diagonal_enclosing_ellipsoids(make_polygon_domain([(0, 2), (1, 0)])),
     "EnclosureSearch(diagonal=Fraction(2, 3), lower=Fraction(1, 1), upper=Fraction(1, 1), lower_attained=True, "
     "pairs=(EnclosingEllipsoid(x_axis=Fraction(1, 1), y_axis=Fraction(2, 1), "
     "touching_vertices=((Fraction(0, 1), Fraction(2, 1)), (Fraction(1, 1), Fraction(0, 1)))),))"),
    (equal_diagonal_enclosing_ellipsoids(make_polygon_domain([(0, 1), (1, 1), (1, 0)])),
     "EnclosureSearch(diagonal=Fraction(1, 1), lower=Fraction(1, 1), upper=None, lower_attained=False, "
     "pairs=(EnclosingEllipsoid(x_axis=Fraction(2, 1), y_axis=Fraction(2, 1), "
     "touching_vertices=((Fraction(1, 1), Fraction(1, 1)),)),))"),
    (AxisMultiple(0, 1), "AxisMultiple(axis=0, multiple=1)"),
    (CapacityReport(Fraction(1, 2), LatticeDirection(0, 1)), "CapacityReport(value=Fraction(1, 2), minimizer=LatticeDirection(l=0, m=1))"),
    (ProjectiveSpace(2), "ProjectiveSpace(n=2)"),
    (Cylinder(1, 2), "Cylinder(k=1, m=2)"),
    (Polydisk((Fraction(1), Fraction(3, 2))), "Polydisk(radii=(Fraction(1, 1), Fraction(3, 2)))"),
    (LowerBound(Fraction(1, 3)), "LowerBound(value=Fraction(1, 3))"),
    (ReebOrbitFamily(LatticeDirection(2, 2), (0.5, 0.25), 1.5, 2, LatticeDirection(1, 1)),
     "ReebOrbitFamily(direction=LatticeDirection(l=2, m=2), point=(0.5, 0.25), action=1.5, multiplicity=2, "
     "underlying_simple=LatticeDirection(l=1, m=1))"),
    (OrbitSplit(9, 8), "OrbitSplit(elliptic_cz=9, hyperbolic_cz=8)"),
    (ROUNDED, f"SmoothDomain2D(source=MomentDomain2D(vertices=({FRACTIONS_0_1})), tau=0.01, v=0.1, "
              "lines=((1.0, -1.0), (0.9147483863893459, -0.05), (19.914748386389345, -20.0)), "
              "shift=0.09623773649733536, x_max=1.0)"),
    (CheckResult("tree", "pass"), "CheckResult(check='tree', status='pass', detail='')"),
    (ValidationReport((CheckResult("levels", "fail", "occupied levels [0, 2]"),)),
     "ValidationReport(results=(CheckResult(check='levels', status='fail', detail='occupied levels [0, 2]'),))"),
    (END, END_REPR),
    (Puncture(2, "1/2", "negative", ("a", 0)), "Puncture(cz=2, action=Fraction(1, 2), sign='negative', paired_with=('a', 0))"),
    (NODE, NODE_REPR),
    (Building((NODE,), 1, "2/6"), f"Building(nodes=({NODE_REPR},), total_index=1, energy_budget=Fraction(1, 3))"),
    (Building(()), "Building(nodes=(), total_index=0, energy_budget=None)"),
]
VALUES = [value for value, _ in REPRS]


def ids(values):
    return [type(value).__name__ for value in values]


# the values whose caches are checked too: all above, and the square, whose final vertical drop
# caches an infinite steepness
CACHED = VALUES + [make_polygon_domain([(0, 1), (1, 1), (1, 0)])]
CACHED_IDS = ids(VALUES) + ["MomentDomain2D-vertical-drop"]


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@pytest.mark.parametrize("value, text", REPRS, ids=ids(VALUES))
def test_repr_is_the_dataclass_format(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=ids(VALUES))
def test_equality_and_hash_follow_the_fields(value):
    rebuilt = type(value)(*fields(value))
    assert rebuilt == value and not rebuilt != value
    assert hash(value) == hash(rebuilt) == hash(fields(value))
    assert value != fields(value) and fields(value) != value


def test_a_changed_field_or_another_type_is_unequal():
    assert LatticeDirection(1, 2) != LatticeDirection(2, 1)
    assert ReebOrbitFamily(LatticeDirection(1, 1), None, 1.0, 1, LatticeDirection(1, 1)) != \
        ReebOrbitFamily(LatticeDirection(1, 1), None, 1.5, 1, LatticeDirection(1, 1))
    assert round_domain(TRIANGLE, 1e-3, 0.1) != ROUNDED
    for a, b in ((AxisMultiple(0, 1), LatticeDirection(0, 1)), (LowerBound(Fraction(1)), ProjectiveSpace(1))):
        assert a != b and b != a and not a == b
        assert a != fields(a) and b != fields(b)
    assert AxisMultiple(0, 1) != (0, 1) and LatticeDirection(0, 1) != (0, 1)


@pytest.mark.parametrize("value", CACHED, ids=CACHED_IDS)
def test_no_attribute_can_be_set_or_deleted(value):
    # the fields, the caches built from them and a name the type does not have
    names = {*type(value).__match_args__, *getattr(type(value), "__slots__", ()), "x", "punctures"}
    assert not hasattr(value, "__dict__")  # where a name the type does not have could be stored
    for name in names:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, 2)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name, None) is before


@pytest.mark.parametrize("value", CACHED, ids=CACHED_IDS)
def test_copies_and_pickles_equal_the_value(value):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value) and other == value and hash(other) == hash(value)
        for name in getattr(type(value), "__slots__", ()):  # the caches too
            assert getattr(other, name) == getattr(value, name)


def test_constructors_take_positions_and_keywords_as_the_dataclasses_did():
    assert AxisMultiple(axis=0, multiple=1) == AxisMultiple(0, multiple=1) == AxisMultiple(0, 1)
    assert CapacityReport(minimizer=AxisMultiple(0, 1), value=Fraction(1)) == CapacityReport(Fraction(1), AxisMultiple(0, 1))
    for call, message in ((lambda: AxisMultiple(0), "AxisMultiple.__init__() missing 1 required positional argument: 'multiple'"),
                          (lambda: AxisMultiple(0, 1, 2), "AxisMultiple.__init__() takes 3 positional arguments but 4 were given"),
                          (lambda: AxisMultiple(0, multiple=1, x=2), "AxisMultiple.__init__() got an unexpected keyword argument 'x'")):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message


def test_lines_are_plain_pairs_and_margins_a_named_tuple():
    lines, margins = ROUNDED.lines, ROUNDED.margins
    assert type(lines) is tuple and lines[0] == (1.0, -1.0)
    assert all(type(line) is tuple and list(map(type, line)) == [float, float] for line in lines)
    assert tuple(margins) == margins and list(margins._asdict()) == list(Margins._fields)
    assert Margins._fields == ("resolution", "slope_start_low", "slope_start_high", "slope_end", "g_start", "g_end",
                               "containment")


def test_every_value_type_takes_its_semantics_from_the_one_base():
    # the public classes with fields; only the named tuple Margins, a tuple, is exempt
    found = [cls for module in (moment_domain, capacities, rounding_reeb, sft_ledger)
             for name, cls in vars(module).items()
             if inspect.isclass(cls) and cls.__module__ == module.__name__ and not name.startswith("_")
             and hasattr(cls, "__match_args__") and cls is not Margins]
    assert {Puncture, CurveNode, Building, CheckResult, ReebOrbitFamily, AxisMultiple}.issubset(found)
    for cls in found:
        assert issubclass(cls, _Frozen), cls
        assert cls.__match_args__ == cls.__slots__[:len(cls.__match_args__)], cls
        assert not {"__eq__", "__hash__", "__repr__", "__reduce__"} & set(vars(cls)), cls
    # and every value type stores its fields through _Frozen._store, never past the base's __setattr__
    sources = pathlib.Path(moment_domain.__file__).parent.glob("*.py")
    assert [path.name for path in sources if "object.__setattr__" in path.read_text()] == []


# each public value type with a checked constructor, its valid fields, and per field one wrong-typed value with the
# named exception it raises: True, "3", 1.5, or a str where a tuple belongs
GOOD_END, GOOD_NODE = Puncture(1, "1/2", "negative", ("a", 0)), CurveNode("a", 0, "top", 0, "1/3", ())
WRONG_FIELDS = [
    (LatticeDirection, (1, 2), [(True, TypeError), ("3", TypeError)]),
    (moment_domain.MomentDomain2D, ([("0", "1"), ("1", "0")],), [("01", TypeError)]),
    (EllipsoidSpec, (("1", "2"),), [("12", TypeError)]),
    (ProjectiveSpace, (2,), [(True, capacities.UnsupportedShape)]),
    (Cylinder, (1, 0), [("3", capacities.UnsupportedShape), (1.5, capacities.UnsupportedShape)]),
    (Polydisk, (("1", "2"),), [("12", TypeError)]),
    (Puncture, (1, "1/2", "negative", ("a", 0)), [(True, ValueError), (True, TypeError), (1.5, ValueError), ("a0", ValueError)]),
    (CurveNode, ("a", 0, "top", 0, "1/3", (GOOD_END,)),
     [(1.5, ValueError), (True, ValueError), (1.5, ValueError), ("3", ValueError), (True, TypeError), ("ab", ValueError),
      (True, ValueError)]),
    (Building, ((GOOD_NODE,), 0, "1/3"), [("ab", ValueError), (True, ValueError), (1.5, TypeError)]),
    (rounding_reeb.SmoothDomain2D, (TRIANGLE, 1e-2, 0.1, ROUNDED.lines, ROUNDED.shift, ROUNDED.x_max),
     [("ab", TypeError), (True, TypeError), ("3", TypeError), ("ab", TypeError), (True, TypeError), ("3", TypeError)]),
]


@pytest.mark.parametrize("cls, good, wrong", WRONG_FIELDS, ids=[cls.__name__ for cls, _, _ in WRONG_FIELDS])
def test_a_wrong_typed_field_is_rejected_by_name(cls, good, wrong):
    cls(*good)
    assert len(wrong) == len(cls.__match_args__)
    for i, (value, error) in enumerate(wrong):
        with pytest.raises(error) as info:
            cls(*good[:i], value, *good[i + 1:])
        assert type(info.value) is error, (cls, i, value)
