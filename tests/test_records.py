"""The value-object contract of the package's nine immutable record classes.

Each class is built by keyword, positionally and from its defaults; equal
instances compare and hash equal, a record never equals an instance of another
class, fields cannot be assigned or deleted, pickle and deepcopy round-trip
through __init__ (so its checks run again), reprs are the field listing
`Class(name=value, ...)`, and every constructor check keeps its message.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from idealgate.census import SubgroupSet, enumerate_subgroups_bruteforce
from idealgate import lattice
from idealgate.finite import FiniteSubgroup, ProductRing, general_is_ideal
from idealgate.lattice import IdealWitness, IntMatrix, LatticeBasis, ZdDecision, canonical_basis
from idealgate.paper import GoursatTuple
from idealgate.probability import ProbabilityReport

RING = ProductRing((4, 2))
BASIS = canonical_basis(IntMatrix.from_columns([(2, 0), (2, 1)]))

# (class, keyword arguments, repr); the reprs are those the classes had as
# frozen dataclasses, which README's doctest also prints
CASES = [
    (IntMatrix, dict(rows=2, cols=2, entries=(1, 2, 3, 4)), "IntMatrix(rows=2, cols=2, entries=(1, 2, 3, 4))"),
    (
        LatticeBasis,
        dict(ambient_dim=2, matrix=BASIS.matrix),
        "LatticeBasis(ambient_dim=2, matrix=IntMatrix(rows=2, cols=2, entries=(2, 0, 0, 1)))",
    ),
    (
        IdealWitness,
        dict(diagonal=(2, 1), unimodular=IntMatrix(2, 2, (1, 1, 0, 1)), support=(0, 2)),
        "IdealWitness(diagonal=(2, 1), unimodular=IntMatrix(rows=2, cols=2, entries=(1, 1, 0, 1)), support=(0, 2))",
    ),
    (
        ZdDecision,
        dict(ideal=False, witness=None, reason="support_exceeds_rank"),
        "ZdDecision(ideal=False, witness=None, reason='support_exceeds_rank')",
    ),
    (ProductRing, dict(moduli=(4, 2)), "ProductRing(moduli=(4, 2))"),
    (
        FiniteSubgroup,
        # one element: a frozenset's repr order is its hash table's
        dict(ring=RING, generators=((0, 0),), elements=frozenset({(0, 0)})),
        "FiniteSubgroup(ring=ProductRing(moduli=(4, 2)), generators=((0, 0),), elements=frozenset({(0, 0)}))",
    ),
    (
        SubgroupSet,
        dict(ring=ProductRing((2,)), bitsets=(1, 3), generators=((), ((1,),))),
        "SubgroupSet(ring=ProductRing(moduli=(2,)), bitsets=(1, 3), generators=((), ((1,),)))",
    ),
    (
        ProbabilityReport,
        dict(ring="Z_2 x Z_2", ideal_count=4, subgroup_count=5, probability=Fraction(4, 5)),
        "ProbabilityReport(ring='Z_2 x Z_2', ideal_count=4, subgroup_count=5, probability=Fraction(4, 5))",
    ),
    (
        GoursatTuple,
        dict(p=3, r=1, s=2, a1=1, b1=0, a2=2, b2=1, unit=2),
        "GoursatTuple(p=3, r=1, s=2, a1=1, b1=0, a2=2, b2=1, unit=2)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_repr_is_the_field_listing(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, kwargs, text):
    record = cls(**kwargs)
    twin = cls(*kwargs.values())
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1
    for other_cls, other_kwargs, _ in CASES:
        if other_cls is not cls:
            other = other_cls(**other_kwargs)
            assert record.__eq__(other) is NotImplemented
            assert record != other
    assert record.__eq__(tuple(kwargs.values())) is NotImplemented
    assert record != tuple(kwargs.values())


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, text):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_go_through_init(cls, kwargs, text, monkeypatch):
    record = cls(**kwargs)
    calls = []
    init = cls.__init__

    def counting_init(self, *args, **kw):
        calls.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(cls, "__init__", counting_init)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert restored == record and repr(restored) == text
    copied = copy.deepcopy(record)
    assert copied == record and repr(copied) == text
    # one __init__ per pickle protocol and one for deepcopy, each with the fields in order
    assert calls == [tuple(kwargs.values())] * (pickle.HIGHEST_PROTOCOL + 2)


def test_defaults_and_normalisation():
    assert ZdDecision(True) == ZdDecision(True, None, None)
    assert repr(ZdDecision(True)) == "ZdDecision(ideal=True, witness=None, reason=None)"
    subgroup = FiniteSubgroup(RING, [[6, 3]])
    assert subgroup.generators == ((2, 1),) and subgroup.elements is None
    assert subgroup == FiniteSubgroup(RING, ((2, 1),), elements=None)
    assert FiniteSubgroup(RING, ((2, 1),), elements=frozenset({(0, 0), (2, 1)})).order() == 2
    assert ProductRing([4.0, True]).moduli == (4, 1)
    assert type(ProductRing([4.0]).moduli[0]) is int
    assert ProductRing(moduli=iter((4, 2))) == RING


def test_census_members_cache_leaves_the_record_alone():
    census = enumerate_subgroups_bruteforce(RING)
    before = (repr(census), hash(census))
    assert len(census.members) == len(census) == 8
    assert census.members is census.members  # decoded once, then cached
    assert (repr(census), hash(census)) == before
    restored = pickle.loads(pickle.dumps(census))
    assert restored == census and restored.members == census.members


def _raises(message, make):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


IDENTITY = IntMatrix(2, 2, (1, 0, 0, 1))
CHECKS = [
    ("bad shape 0x1", lambda: IntMatrix(0, 1, ())),
    ("bad shape 2x-1", lambda: IntMatrix(2, -1, ())),
    ("entry count does not match shape", lambda: IntMatrix(2, 2, (1, 2, 3))),
    ("basis row count must equal the ambient dimension", lambda: LatticeBasis(3, IDENTITY)),
    ("zero column in a basis", lambda: LatticeBasis(2, IntMatrix(2, 1, (0, 0)))),
    ("pivot rows must strictly increase", lambda: LatticeBasis(2, IntMatrix(2, 2, (0, 1, 1, 0)))),
    ("pivots must be positive", lambda: LatticeBasis(2, IntMatrix(2, 2, (-1, 0, 0, 1)))),
    (
        "entries left of a pivot must be reduced into [0, pivot)",
        lambda: LatticeBasis(2, IntMatrix(2, 2, (1, 0, 3, 2))),
    ),
    ("witness diagonal entries must be nonzero", lambda: IdealWitness((0, 1), IDENTITY, (0, 1))),
    ("witness shape mismatch", lambda: IdealWitness((1, 1), IDENTITY, (0,))),
    ("witness matrix is not unimodular", lambda: IdealWitness((1, 1), IntMatrix(2, 2, (2, 0, 0, 1)), (0, 1))),
    ("a product ring needs at least one factor", lambda: ProductRing(())),
    ("moduli must be >= 1, got (0, 2)", lambda: ProductRing((0, 2))),
    ("moduli must be integers, got (4.5, 2)", lambda: ProductRing((4.5, 2))),
    ("moduli must be integers, got ('4', 2)", lambda: ProductRing(("4", 2))),
    ("moduli must be integers, got (inf, 2)", lambda: ProductRing((float("inf"), 2))),
    ("element entries must be integers, got (1.5, 0)", lambda: FiniteSubgroup(RING, ((1.5, 0),))),
    ("element length 1 != arity 2", lambda: FiniteSubgroup(RING, ((1,),))),
    ("materialized subgroup must contain zero", lambda: FiniteSubgroup(RING, ((2, 1),), frozenset({(2, 1)}))),
    (
        "materialized size must divide the ring order",
        lambda: FiniteSubgroup(RING, ((1, 0),), frozenset({(0, 0), (1, 0), (2, 0)})),
    ),
    ("census needs one generator tuple per member", lambda: SubgroupSet(RING, (1, 3), ((),))),
    ("census members must be pairwise distinct", lambda: SubgroupSet(RING, (1, 1), ((), ()))),
    (
        "probability must equal ideal_count / subgroup_count",
        lambda: ProbabilityReport("Z_2", 2, 2, Fraction(1, 2)),
    ),
    ("probability must lie in (0, 1]", lambda: ProbabilityReport("Z_2", 3, 2, Fraction(3, 2))),
    ("expected a prime, got 4", lambda: GoursatTuple(4, 1, 1, 0, 0, 0, 0, 1)),
    ("exponents must be nonnegative", lambda: GoursatTuple(2, -1, 1, 0, 0, 0, 0, 1)),
    ("need 0 <= b1 <= a1 <= r", lambda: GoursatTuple(2, 1, 1, 2, 0, 0, 0, 1)),
    ("need 0 <= b2 <= a2 <= s", lambda: GoursatTuple(2, 1, 1, 0, 0, 0, 1, 1)),
    ("quotients must have equal order", lambda: GoursatTuple(2, 1, 1, 1, 0, 0, 0, 1)),
    ("trivial quotient admits only the trivial map", lambda: GoursatTuple(2, 1, 1, 0, 0, 0, 0, 3)),
    (
        "unit must be coprime to p and reduced mod p^(a1-b1)",
        lambda: GoursatTuple(3, 1, 1, 1, 0, 1, 0, 3),
    ),
]


# bases with two defects: the first column that fails names the error
FIRST_FAILING_COLUMN = [
    # column 0's pivot is negative, column 1 is zero
    ("pivots must be positive", lambda: LatticeBasis(2, IntMatrix(2, 2, (-1, 0, 0, 0)))),
    # column 1's pivot 2 has 5 to its left, column 2 is zero
    (
        "entries left of a pivot must be reduced into [0, pivot)",
        lambda: LatticeBasis(2, IntMatrix(2, 3, (1, 0, 0, 5, 2, 0))),
    ),
]
CHECK_IDS = [m for m, _ in CHECKS] + [f"{m}, before a zero column" for m, _ in FIRST_FAILING_COLUMN]


@pytest.mark.parametrize("message, make", CHECKS + FIRST_FAILING_COLUMN, ids=CHECK_IDS)
def test_constructor_checks_keep_their_messages(message, make):
    _raises(message, make)


class _LostWrites(list):
    """A basis column that ignores every entry write."""

    def __setitem__(self, index, value):
        pass


def _negate_first_column(basis, pivots):
    # an echelon step that leaves the first pivot negative
    if basis[0][pivots[0]] > 0:
        basis[0][:] = [-x for x in basis[0]]


def _freeze_first_column(basis, pivots):
    # an echelon step after which the reduction cannot change the first column
    basis[0] = _LostWrites(basis[0])


# Every answer of the lattice core comes through LatticeBasis's checks.  The
# ring Z_4 x Z_4 with generators (1, 3), (0, 2), and the same two columns in
# Z^2, leave the entry 3 left of the pivot 2 until the final reduction.
GENERATORS = ((1, 3), (0, 2))
LATTICE_CORE = [
    ("general_is_ideal", lambda: general_is_ideal(FiniteSubgroup(ProductRing((4, 4)), GENERATORS)), False),
    ("order", lambda: FiniteSubgroup(ProductRing((4, 4)), GENERATORS).order(), 8),
    (
        "canonical_basis",
        lambda: canonical_basis(IntMatrix.from_columns(GENERATORS)).matrix,
        IntMatrix(2, 2, (1, 0, 1, 2)),
    ),
]


@pytest.mark.parametrize("name, answer, unbroken", LATTICE_CORE, ids=[name for name, _, _ in LATTICE_CORE])
@pytest.mark.parametrize(
    "spoil, message",
    [
        (_negate_first_column, "pivots must be positive"),
        (_freeze_first_column, "entries left of a pivot must be reduced into [0, pivot)"),
    ],
    ids=["negative pivot", "unreduced entry"],
)
def test_a_broken_echelon_step_is_caught_by_the_basis_checks(name, answer, unbroken, spoil, message, monkeypatch):
    assert answer() == unbroken
    insert = lattice._insert_column

    def broken_step(basis, pivots, vec, dim):
        insert(basis, pivots, vec, dim)
        spoil(basis, pivots)

    monkeypatch.setattr(lattice, "_insert_column", broken_step)
    _raises(message, answer)


class _Reduced:
    """Pickles as the call cls(*args)."""

    def __init__(self, cls, args):
        self.reduction = cls, args

    def __reduce__(self):
        return self.reduction


def test_unpickling_checks_the_fields_again():
    # a pickle made from a record's reduction with one field broken is refused
    # by the same check that refuses the constructor call
    cls, fields = IntMatrix(1, 2, (1, 2)).__reduce__()
    broken = pickle.dumps(_Reduced(cls, fields[:2] + ((1, 2, 3),)))
    _raises("entry count does not match shape", lambda: pickle.loads(broken))
