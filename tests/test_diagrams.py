"""The validation policy: a diagram or a marked category checks itself when
it is made, and no function re-checks a value it is handed."""

import pytest

from laxcat.core import (
    Functor,
    MarkedFinCat,
    chain_cat,
    flat_marking,
    identity_functor,
    sharp_marking,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxcat.diagrams import CatDiagram, MarkedCatDiagram, SetDiagram
from laxcat.errors import InvalidDiagram, InvalidMarking, MalformedTable
from laxcat.grothendieck import grothendieck_cocart
from laxcat.limits import cat_limit, lax_limit, marked_cat_limit

A = walking_arrow()
ID_A = identity_functor(A)
# A -> A sending everything to the object 0: a functor, but not the identity
CONST_0 = Functor(A, A, {"0": "0", "1": "0"},
                  {"id_0": "id_0", "id_1": "id_0", "a01": "id_0"})
ARROW_TRANSITIONS = {"id_0": ID_A, "id_1": ID_A, "a01": ID_A}


def _arrow_diagram(fiber=None, transition=None) -> CatDiagram:
    """A constant diagram over the flat walking arrow, with fibers or
    transitions replaced."""
    return CatDiagram(flat_marking(A), fiber or {"0": A, "1": A},
                      transition or ARROW_TRANSITIONS)


def _chain_transitions(a02: Functor) -> dict[str, Functor]:
    return {"id_0": ID_A, "id_1": ID_A, "id_2": ID_A,
            "a01": ID_A, "a12": ID_A, "a02": a02}


BAD_CAT_DIAGRAMS = {
    "missing fiber": lambda: _arrow_diagram(fiber={"0": A}),
    "missing transition": lambda: _arrow_diagram(
        transition={"id_0": ID_A, "id_1": ID_A}),
    "wrong endpoints": lambda: _arrow_diagram(
        fiber={"0": A, "1": terminal_cat()}),
    "identity transition not the identity": lambda: _arrow_diagram(
        transition={**ARROW_TRANSITIONS, "id_0": CONST_0}),
    "functoriality": lambda: CatDiagram(
        flat_marking(chain_cat(2)), {x: A for x in "012"},
        _chain_transitions(CONST_0)),
    # a03 is no generator of chain_cat(3), and the only transition that fails
    "functoriality at a03 only": lambda: CatDiagram(
        flat_marking(chain_cat(3)), {x: A for x in "0123"},
        {m.name: CONST_0 if m.name == "a03" else ID_A
         for m in chain_cat(3).morphisms}),
    "unmarked transition": lambda: MarkedCatDiagram(
        flat_marking(A), {"0": sharp_marking(A), "1": flat_marking(A)},
        ARROW_TRANSITIONS),
}


@pytest.mark.parametrize("make", BAD_CAT_DIAGRAMS.values(),
                         ids=BAD_CAT_DIAGRAMS.keys())
def test_a_bad_cat_diagram_raises_when_it_is_made(make):
    with pytest.raises(InvalidDiagram):
        make()


def test_a_transition_that_is_no_functor_raises_when_the_diagram_is_made():
    broken = Functor(A, A, {"0": "0", "1": "1"},
                     {"id_0": "id_0", "id_1": "id_1"})  # a01 unmapped
    with pytest.raises(MalformedTable):
        _arrow_diagram(transition={**ARROW_TRANSITIONS, "a01": broken})


SET_VALUES = {"0": ("x", "y"), "1": ("z",)}
SET_ACTION = {"id_0": {"x": "x", "y": "y"}, "id_1": {"z": "z"},
              "a01": {"x": "z", "y": "z"}}
SWAP = {"x": "y", "y": "x"}
SET_CHAIN_ACTION = {"id_0": {"x": "x", "y": "y"}, "id_1": {"x": "x", "y": "y"},
                    "id_2": {"x": "x", "y": "y"},
                    "a01": SWAP, "a12": SWAP, "a02": SWAP}

BAD_SET_DIAGRAMS = {
    "missing value set": lambda: SetDiagram(A, {"0": ("x", "y")}, SET_ACTION),
    "missing action": lambda: SetDiagram(
        A, SET_VALUES, {"id_0": SET_ACTION["id_0"], "id_1": {"z": "z"}}),
    "wrong domain": lambda: SetDiagram(
        A, SET_VALUES, {**SET_ACTION, "a01": {"x": "z"}}),
    "bad image": lambda: SetDiagram(
        A, SET_VALUES, {**SET_ACTION, "a01": {"x": "z", "y": "w"}}),
    "identity action not the identity": lambda: SetDiagram(
        A, SET_VALUES, {**SET_ACTION, "id_0": SWAP}),
    "functoriality": lambda: SetDiagram(
        chain_cat(2), {x: ("x", "y") for x in "012"}, SET_CHAIN_ACTION),
    "functoriality at a03 only": lambda: SetDiagram(
        chain_cat(3), {x: ("x", "y") for x in "0123"},
        {m.name: SWAP if m.name == "a03" else {"x": "x", "y": "y"}
         for m in chain_cat(3).morphisms}),
}


@pytest.mark.parametrize("make", BAD_SET_DIAGRAMS.values(),
                         ids=BAD_SET_DIAGRAMS.keys())
def test_a_bad_set_diagram_raises_when_it_is_made(make):
    with pytest.raises(InvalidDiagram):
        make()


def test_the_good_diagrams_behind_the_bad_ones_are_valid():
    _arrow_diagram()
    CatDiagram(flat_marking(chain_cat(2)), {x: A for x in "012"},
               _chain_transitions(ID_A))
    SetDiagram(A, SET_VALUES, SET_ACTION)
    C3 = chain_cat(3)
    CatDiagram(flat_marking(C3), {x: A for x in "0123"},
               {m.name: ID_A for m in C3.morphisms})
    SetDiagram(C3, {x: ("x", "y") for x in "0123"},
               {m.name: {"x": "x", "y": "y"} for m in C3.morphisms})


@pytest.mark.parametrize("cat, marking", [
    (chain_cat(2), ["id_0", "id_1", "id_2", "a01", "a12"]),  # a02 missing
    (walking_iso(), ["id_a", "id_b"]),  # isomorphisms unmarked
    (A, ["id_0", "id_1", "nowhere"]),  # unknown morphism
], ids=["not closed", "isomorphism unmarked", "unknown morphism"])
def test_a_bad_marking_raises_when_the_marked_category_is_made(cat, marking):
    with pytest.raises(InvalidMarking):
        MarkedFinCat(cat, frozenset(marking))


@pytest.fixture
def validations(monkeypatch):
    """Counts the validate calls of every diagram class from now on."""
    calls = []
    for cls in (CatDiagram, MarkedCatDiagram, SetDiagram):
        def counted(self, _validate=cls.validate):
            calls.append(type(self).__name__)
            _validate(self)
        monkeypatch.setattr(cls, "validate", counted)
    return calls


@pytest.fixture
def diagram():
    return _arrow_diagram()


@pytest.fixture
def marked_diagram():
    return MarkedCatDiagram(
        flat_marking(A), {"0": sharp_marking(A), "1": sharp_marking(A)},
        ARROW_TRANSITIONS)


def test_lax_limit_validates_only_its_end_diagram(diagram, validations):
    lax_limit(diagram)
    assert validations == ["CatDiagram"]


def test_cat_limit_validates_no_diagram(diagram, validations):
    cat_limit(diagram)
    assert validations == []


def test_marked_cat_limit_validates_no_diagram(marked_diagram, validations):
    marked_cat_limit(marked_diagram)
    assert validations == []


def test_grothendieck_cocart_validates_no_diagram(diagram, validations):
    grothendieck_cocart(diagram)
    assert validations == []
