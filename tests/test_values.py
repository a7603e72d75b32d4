"""The package's value classes: equality, hashing, immutability, repr, pickle and copy.

Each of the seven is a plain class on `combinatorics.Frozen`, which defines
equality, hashing and repr once over each class's `_key`, so importing the
package loads neither `dataclasses` nor the `inspect` machinery behind it.
All but `StructureTable` keep their fields in `__slots__`, with no instance
dict, and `Frozen` restores them for pickle and copy.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rookalg
from rookalg import (
    Context,
    Monomial,
    PartialInjection,
    Permutation,
    StructureTable,
    YoungDiagram,
    structure_table,
)
from rookalg.combinatorics import corner_map
from rookalg.verify import VerificationReport


def _report(**metrics):
    return VerificationReport("gram", {"alpha": 2}, "pass", ("w",), ({"kind": "k"},), metrics)


# (value, its fields in order, its repr)
HASHABLE = [
    (Permutation((2, 1)), ((2, 1),), "Permutation(images=(2, 1))"),
    (PartialInjection((2, None)), ((2, None),), "PartialInjection(target=(2, None))"),
    (YoungDiagram((2, 1)), ((2, 1),), "YoungDiagram(rows=(2, 1))"),
    (Context(2, 3), (2, 3), "Context(alpha=2, n=3)"),
    (
        Monomial(Permutation((2, 1)), (1,)),
        (Permutation((2, 1)), (1,)),
        "Monomial(perm=Permutation(images=(2, 1)), holes=(1,))",
    ),
]
ALL = [value for value, _, _ in HASHABLE] + [structure_table(0), _report()]
# values from the unchecked constructors, which products, inverses and corners go through
TRUSTED = [
    pytest.param(Permutation._trusted((2, 1)), ((2, 1),), "Permutation(images=(2, 1))", id="Permutation._trusted"),
    pytest.param(
        corner_map(Permutation((3, 1, 2)), 2), ((None, 1),), "PartialInjection(target=(None, 1))", id="corner_map"
    ),
]
ROUND_TRIP = [pytest.param(v, id=type(v).__name__) for v in ALL] + [
    pytest.param(p.values[0], id=p.id) for p in TRUSTED
]


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since pytest itself loads inspect
    src = str(Path(rookalg.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import rookalg, rookalg.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("value, fields, text", HASHABLE + TRUSTED, ids=lambda v: type(v).__name__)
def test_values_hash_as_their_fields_and_repeat_them_in_their_repr(value, fields, text):
    assert hash(value) == hash(fields)
    assert repr(value) == text
    assert value == type(value)(*fields)
    assert value != fields


def test_values_of_different_classes_with_the_same_fields_are_unequal():
    same = [Permutation((1,)), PartialInjection((1,)), YoungDiagram((1,))]
    for a in same:
        for b in same:
            assert (a == b) is (a is b)
        assert a != (1,)
        assert a != ((1,),)
    assert Context(1, 1) != (1, 1)
    assert PartialInjection((1, 2, 3)) != Permutation((1, 2, 3))


@pytest.mark.parametrize("value", ALL, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    for name in type(value).__annotations__:
        old = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, old)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is old
    with pytest.raises(AttributeError):
        value.extra = 1


def test_each_report_gets_its_own_metrics_dict():
    a = VerificationReport("gram", {}, "pass")
    b = VerificationReport("gram", {}, "pass")
    assert (a.warnings, a.counterexamples, a.metrics) == ((), (), {})
    assert a.metrics is not b.metrics
    a.metrics["x"] = 1
    assert b.metrics == {}
    assert a != b


def test_reports_compare_every_field_and_are_unhashable():
    assert _report(x=1) == _report(x=1)
    assert _report(x=1) != _report(x=2)
    assert repr(_report(x=1)) == (
        "VerificationReport(suite='gram', params={'alpha': 2}, status='pass', "
        "warnings=('w',), counterexamples=({'kind': 'k'},), metrics={'x': 1})"
    )
    with pytest.raises(TypeError):
        hash(_report())


def test_table_equality_and_repr_leave_out_build_stats():
    a = structure_table(1, use_cache=False)
    b = structure_table(1, use_cache=False)
    assert a.build_stats and a.build_stats is not b.build_stats
    assert a == StructureTable(a.alpha, a.basis, a.rows, a.row_of, {"other": 1})
    assert a == b
    assert a != structure_table(0)
    assert StructureTable(a.alpha, a.basis, a.rows, a.row_of).build_stats == {}
    assert repr(structure_table(0)) == (
        "StructureTable(alpha=0, basis=(Monomial(perm=Permutation(images=()), holes=()),), "
        "rows=(((0, NuPoly(1)),),), row_of=array('I', [0]))"
    )
    assert [a.index_of(m) for m in a.basis] == [0, 1]
    with pytest.raises(TypeError):
        hash(a)


def test_checked_constructors_store_sequences_as_tuples():
    g = Permutation([2, 1])
    assert g.images == (2, 1) and g == Permutation((2, 1)) and hash(g) == hash(Permutation((2, 1)))
    pi = PartialInjection([2, None])
    assert pi.target == (2, None) and hash(pi) == hash(PartialInjection((2, None)))
    m = Monomial(g, [1])
    assert m.holes == (1,) and hash(m) == hash(Monomial(g, (1,)))
    assert YoungDiagram([2, 1]).rows == (2, 1)


def test_checked_permutations_run_their_check_by_name(monkeypatch):
    # the benchmark's tracer counts checked constructions by wrapping this name
    calls = []
    check = Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__", lambda self: calls.append(check(self)))
    g = Permutation((2, 1))
    g * g
    g.inverse()
    assert len(calls) == 1


@pytest.mark.parametrize("value", ROUND_TRIP)
def test_values_survive_pickle_and_copy(value):
    # protocols 0 and 1 refuse slotted classes, NuPoly's too
    clones = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.copy(value), copy.deepcopy(value)]:
        assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)
        with pytest.raises(AttributeError):
            clone.extra = 1


def test_a_copied_table_keeps_its_build_stats_and_index():
    table = structure_table(1, use_cache=False)
    table.index_of(table.basis[1])
    for clone in (pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table)):
        assert clone == table and clone.build_stats == table.build_stats != {}
        assert [clone.index_of(m) for m in table.basis] == [0, 1]


def test_no_value_but_a_table_has_an_instance_dict():
    values = [p.values[0] for p in ROUND_TRIP if not isinstance(p.values[0], StructureTable)]
    assert len({type(v) for v in values}) == 6
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
    g = Permutation((3, 1, 2))
    assert not any(hasattr(v, "__dict__") for v in (g * g, g.inverse(), corner_map(g, 2)))


@pytest.mark.parametrize(
    "make, fields",
    [
        (Permutation, ((2.0, 1.0),)),
        (Permutation, ((True,),)),
        (PartialInjection, ((2.0, None),)),
        (YoungDiagram, ((2.0, 1),)),
        (Context, (2.5, 3)),
        (Context, (2, 3.0)),
        (Monomial, (Permutation((2, 1)), (1.0,))),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_checked_constructors_refuse_entries_that_are_not_ints(make, fields):
    with pytest.raises(ValueError):
        make(*fields)
