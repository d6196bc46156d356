"""The value classes behave as the frozen dataclasses they replaced.

`SimpleType`, `FgAbelianGroup`, `GroupDescriptor`, `CodimReport` and
`SingularLocusReport` are plain classes, so that a `charvar` process need not
import `dataclasses`.  These tests pin what a frozen dataclass gave them:
equality and hash by field, ordering of `SimpleType`, the dataclass `repr`
text, refused assignment, and copies and pickles that round-trip.
"""

import copy
import pickle

import pytest

from charvar import (
    FgAbelianGroup,
    GroupDescriptor,
    classify_singular_locus,
    codim_report,
    parse_group,
)
from charvar.rootsys import SimpleType

# (build, the repr a frozen dataclass printed); build() makes a new equal value
VALUES = {
    "SimpleType": (lambda: SimpleType("D", 7), "SimpleType(family='D', rank=7)"),
    "FgAbelianGroup": (
        lambda: FgAbelianGroup(1, (2, 4)),
        "FgAbelianGroup(free_rank=1, invariant_factors=(2, 4), known=True)",
    ),
    "FgAbelianGroup.from_torsion": (
        lambda: FgAbelianGroup.from_torsion([4, 6], 2),
        "FgAbelianGroup(free_rank=2, invariant_factors=(2, 12), known=True)",
    ),
    "GroupDescriptor": (
        lambda: parse_group("T^1 x A3 x E7[ad]"),
        "GroupDescriptor(torus_rank=1, factors=((SimpleType(family='A', rank=3),"
        " <Isogeny.SIMPLY_CONNECTED: 'sc'>), (SimpleType(family='E', rank=7),"
        " <Isogeny.ADJOINT: 'ad'>)))",
    ),
    "CodimReport": (
        lambda: codim_report(parse_group("T^1 x A3"), 3),
        "CodimReport(group=GroupDescriptor(torus_rank=1, factors=((SimpleType(family='A',"
        " rank=3), <Isogeny.SIMPLY_CONNECTED: 'sc'>),)), r=3, bad_lower=12, red_lower=6,"
        " c_pasbon_lower=12, stable_k_max=10)",
    ),
    "SingularLocusReport": (
        lambda: classify_singular_locus(parse_group("A1"), 2),
        "SingularLocusReport(verdict=<Verdict.UNDETERMINED_R2_RANK1: 'Undetermined_r2_rank1'>,"
        " statements=('r = 2 with a rank-one simple factor: the classification is open',"
        " 'reducible classes can be smooth points: X_2(SL_2) = C^3 (Fricke-Vogt)'))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
class TestValue:
    def test_equal_and_hash_by_fields(self, name):
        build, _ = VALUES[name]
        value, again = build(), build()
        assert value is not again and value == again and not value != again
        assert hash(value) == hash(again)
        assert value != object() and value != repr(value)

    def test_repr_is_the_dataclass_text(self, name):
        build, text = VALUES[name]
        assert repr(build()) == text

    def test_assignment_raises(self, name):
        value = VALUES[name][0]()
        field = repr(value).split("(", 1)[1].split("=", 1)[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.new_field = 1
        assert getattr(value, field) is before

    @pytest.mark.parametrize("round_trip", [
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda v: pickle.loads(pickle.dumps(v)), id="pickle"),
    ])
    def test_copy_and_pickle_round_trip(self, name, round_trip):
        build, text = VALUES[name]
        value = round_trip(build())
        assert value == build() and hash(value) == hash(build()) and repr(value) == text
        with pytest.raises(AttributeError):
            value.new_field = 1


def test_types_sort_by_family_then_rank():
    labels = ["E8", "A10", "D4", "A2", "B2", "G2", "A3"]
    types = [SimpleType.parse(label) for label in labels]
    assert [str(t) for t in sorted(types)] == ["A2", "A3", "A10", "B2", "D4", "E8", "G2"]
    a2, a3 = SimpleType("A", 2), SimpleType("A", 3)
    assert a2 < a3 and a2 <= a3 and a3 > a2 and a3 >= a2 and a2 <= SimpleType("A", 2)
    assert not a3 < a2 and not a2 > a3 and not a2 >= a3
    with pytest.raises(TypeError):
        a2 < (a2.family, a2.rank)


def test_descriptor_defaults():
    g = GroupDescriptor()
    assert g.torus_rank == 0 and g.factors == () and g == GroupDescriptor(0, ())
    assert str(g) == "T^0" and g.is_abelian


def test_group_equality_ignores_how_it_was_built():
    # from_torsion also stores the primary form; equality reads the fields alone
    assert FgAbelianGroup.from_torsion([4, 6], 2) == FgAbelianGroup(2, (2, 12))
    assert hash(FgAbelianGroup.from_torsion([4, 6], 2)) == hash(FgAbelianGroup(2, (2, 12)))
