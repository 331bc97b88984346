"""Grothendieck constructions, induced markings, sections, and pullbacks."""

from laxcat.core import (
    Functor,
    discrete_cat,
    flat_marking,
    identity_functor,
    is_iso,
    marked,
    pair_id,
    saturate_marking,
    sharp_marking,
    terminal_cat,
    validate_marking,
    walking_arrow,
)
from laxcat.diagrams import CatDiagram, constant_diagram
from laxcat.equiv import is_equivalent, is_isomorphic
from laxcat.generator import GenParams, gen_category, gen_diagram, gen_marking
from laxcat.grothendieck import (
    all_sections,
    grothendieck_cart,
    grothendieck_cocart,
    is_cocartesian,
    marked_sections,
    pullback_fibered,
    strict_fiber,
)


def _three_object_example(mark_u: bool) -> CatDiagram:
    """Over [1]: F(0) = {x}, F(1) = discrete {a, b}, F(u)(x) = a."""
    I = walking_arrow()
    mk = saturate_marking(I, ["a01"]) if mark_u else frozenset(I.identity.values())
    F0 = discrete_cat(["x"])
    F1 = discrete_cat(["a", "b"])
    u = Functor(F0, F1, {"x": "a"}, {"id_x": "id_a"})
    return CatDiagram(marked(I, mk), {"0": F0, "1": F1},
                      {"a01": u, "id_0": identity_functor(F0),
                       "id_1": identity_functor(F1)})


def test_constant_terminal_fibers_give_base():
    for s in range(10):
        Im = gen_marking(gen_category(GenParams(seed=s)), GenParams(seed=s))
        E = grothendieck_cocart(constant_diagram(Im, terminal_cat()))
        assert is_isomorphic(E.total.cat, Im.cat)
        # the marking transports to the marked morphisms of the base
        transported = {E.fiber_part[m][0] for m in E.total.marked}
        assert transported == set(Im.marked)


def test_three_object_example_cocart():
    E = grothendieck_cocart(_three_object_example(mark_u=False))
    assert E.total.cat.n_objects == 3
    non_id = E.total.cat.nonidentity()
    assert len(non_id) == 1
    [m] = non_id
    assert E.total.cat.src(m) == pair_id("0", "x")
    assert E.total.cat.tgt(m) == pair_id("1", "a")
    assert m not in E.total.marked  # u unmarked in the base


def test_three_object_example_marked():
    E = grothendieck_cocart(_three_object_example(mark_u=True))
    [m] = E.total.cat.nonidentity()
    # the unique lift has identity fiber component over marked u
    assert m in E.total.marked


def test_cart_dual_of_three_object_example():
    E = grothendieck_cart(_three_object_example(mark_u=False))
    assert E.total.cat.n_objects == 3
    [m] = E.total.cat.nonidentity()
    # contravariant packaging: the lift runs from the fiber over 1 to fiber over 0
    assert E.obj_part[E.total.cat.src(m)][0] == "1"
    assert E.obj_part[E.total.cat.tgt(m)][0] == "0"


def test_is_cocartesian():
    E = grothendieck_cocart(_three_object_example(mark_u=False))
    [m] = E.total.cat.nonidentity()
    assert is_cocartesian(E, m)  # its fiber component is id_a
    T = grothendieck_cocart(constant_diagram(
        flat_marking(walking_arrow()), terminal_cat()))
    assert all(is_cocartesian(T, m.name) for m in T.total.cat.morphisms)


def test_fiber_reconstruction_and_marking_validity():
    for s in range(15):
        p = GenParams(seed=s)
        F = gen_diagram(gen_marking(gen_category(p), p), p)
        E = grothendieck_cocart(F)
        validate_marking(E.total.cat, E.total.marked)
        E.proj.validate()
        for i in F.base.cat.objects:
            assert is_isomorphic(strict_fiber(E, i), F.fiber[i])


def test_flat_base_induces_flat_marking():
    for s in range(10):
        p = GenParams(seed=s)
        F = gen_diagram(flat_marking(gen_category(p)), p)
        E = grothendieck_cocart(F)
        assert E.total.marked == E.total.cat.iso_set()


def test_sharp_base_marks_all_cocartesian():
    for s in range(10):
        p = GenParams(seed=s)
        F = gen_diagram(sharp_marking(gen_category(p)), p)
        E = grothendieck_cocart(F)
        expect = {m.name for m in E.total.cat.morphisms
                  if is_cocartesian(E, m.name)}
        assert set(E.total.marked) == expect


def _sections_example(mark_u: bool) -> CatDiagram:
    """F(0) = terminal, F(1) = walking arrow, F(u)(*) = 0 (source of v)."""
    I = walking_arrow()
    mk = saturate_marking(I, ["a01"]) if mark_u else frozenset(I.identity.values())
    F0 = terminal_cat()
    F1 = walking_arrow()
    u = Functor(F0, F1, {"*": "0"}, {"id_*": "id_0"})
    return CatDiagram(marked(I, mk), {"0": F0, "1": F1},
                      {"a01": u, "id_0": identity_functor(F0),
                       "id_1": identity_functor(F1)})


def test_marked_sections_examples():
    flat = grothendieck_cocart(_sections_example(mark_u=False))
    sec = marked_sections(flat)
    assert sec.cat.n_objects == 2
    assert is_equivalent(sec.cat, walking_arrow())
    # flat base: marked sections coincide with all sections
    assert sec.cat.same_table(all_sections(flat).cat)
    strict = grothendieck_cocart(_sections_example(mark_u=True))
    sec2 = marked_sections(strict)
    assert is_equivalent(sec2.cat, terminal_cat())


def test_sections_of_constant_terminal():
    for s in range(8):
        Im = gen_marking(gen_category(GenParams(seed=s)), GenParams(seed=s))
        E = grothendieck_cocart(constant_diagram(Im, terminal_cat()))
        assert is_equivalent(marked_sections(E).cat, terminal_cat())


def test_pullback_identity_and_fiber_pick():
    F = _sections_example(mark_u=True)
    E = grothendieck_cocart(F)
    t = identity_functor(F.base.cat)
    PB = pullback_fibered(t, F.base, E)
    assert PB.total.cat.same_table(E.total.cat)
    assert PB.total.marked == E.total.marked
    # picking an object via the terminal category recovers that fiber, flat
    pick = Functor(terminal_cat(), F.base.cat, {"*": "1"}, {"id_*": "id_1"})
    PB1 = pullback_fibered(pick, flat_marking(terminal_cat()), E)
    assert is_isomorphic(PB1.total.cat, F.fiber["1"])
    assert PB1.total.marked == PB1.total.cat.iso_set()


def test_pullback_shrinks_marking_with_flatter_base():
    F = _sections_example(mark_u=True)
    E = grothendieck_cocart(F)
    flat_base = flat_marking(F.base.cat)
    t = identity_functor(F.base.cat)
    PB = pullback_fibered(t, flat_base, E)
    assert PB.total.cat.same_table(E.total.cat)
    assert set(PB.total.marked) < set(E.total.marked)
