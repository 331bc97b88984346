"""Strict diagrams of categories and sets over a finite base.

A diagram is validated when it is made: the constructors of CatDiagram,
MarkedCatDiagram and SetDiagram call their own ``validate``, which raises
InvalidDiagram (or MalformedTable from a transition's ``Functor.validate``).
The diagrams are frozen, so every diagram that exists has been checked
exactly once, and no function re-checks a diagram it is handed.

Strict functoriality is checked on the pairs (g, m) whose left factor g is a
generator of the base (``FinCat.generator_pairs``), as for a functor: every
other composite follows by induction (see ``Functor.validate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    compose_functors,
    identity_functor,
    opposite_cat,
)
from .errors import InvalidDiagram


@dataclass(frozen=True)
class CatDiagram:
    """A strict functor I -> Cat: a fiber per object, a transition per morphism.

    The constructor checks every fiber and transition, each transition's
    endpoints and functor axioms, identities and strict functoriality."""

    base: MarkedFinCat
    fiber: dict[str, FinCat]
    transition: dict[str, Functor]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        I = self.base.cat
        for x in I.objects:
            if x not in self.fiber:
                raise InvalidDiagram(f"no fiber at {x}")
        for m in I.morphisms:
            T = self.transition.get(m.name)
            if T is None:
                raise InvalidDiagram(f"no transition at {m.name}")
            if not (T.dom.same_table(self.fiber[m.src])
                    and T.cod.same_table(self.fiber[m.tgt])):
                raise InvalidDiagram(f"transition at {m.name} has wrong endpoints")
            T.validate()
        for x in I.objects:
            if not self.transition[I.identity[x]].same_maps(
                    identity_functor(self.fiber[x])):
                raise InvalidDiagram(f"transition at identity of {x} is not id")
        for g, f in I.generator_pairs():
            lhs = self.transition[I.compose(g, f)]
            rhs = compose_functors(self.transition[g], self.transition[f])
            if not lhs.same_maps(rhs):
                raise InvalidDiagram(f"functoriality fails at ({g}, {f})")


def fiberwise_op(F: CatDiagram) -> CatDiagram:
    """Replace every fiber and transition by its opposite; same base."""
    fibers = {x: opposite_cat(C) for x, C in F.fiber.items()}
    trans = {}
    for m, T in F.transition.items():
        src, tgt = F.base.cat.src(m), F.base.cat.tgt(m)
        trans[m] = Functor(fibers[src], fibers[tgt],
                           dict(T.object_map), dict(T.morphism_map))
    return CatDiagram(F.base, fibers, trans)


def constant_diagram(Im: MarkedFinCat, fiber: FinCat) -> CatDiagram:
    I = Im.cat
    idf = identity_functor(fiber)
    return CatDiagram(Im, {x: fiber for x in I.objects},
                      {m.name: idf for m in I.morphisms})


@dataclass(frozen=True)
class MarkedCatDiagram:
    """A strict diagram of marked categories; transitions are marked functors.

    The constructor builds the underlying CatDiagram once, which checks
    itself, and then checks that every transition is marked."""

    base: MarkedFinCat
    fiber: dict[str, MarkedFinCat]
    transition: dict[str, Functor]

    def __post_init__(self) -> None:
        self.validate()

    @cached_property
    def underlying(self) -> CatDiagram:
        return CatDiagram(self.base, {x: F.cat for x, F in self.fiber.items()},
                          dict(self.transition))

    def validate(self) -> None:
        F = self.underlying  # built, and so checked, once
        I = self.base.cat
        for m in I.morphisms:
            if not F.transition[m.name].is_marked(
                    self.fiber[I.src(m.name)].marked,
                    self.fiber[I.tgt(m.name)].marked):
                raise InvalidDiagram(f"transition at {m.name} is not marked")


# -- set-valued diagrams ---------------------------------------------------------


@dataclass(frozen=True)
class SetDiagram:
    """A strict functor base -> Set.

    The constructor checks every value set and action, identities and strict
    functoriality."""

    base: FinCat
    values: dict[str, tuple]
    action: dict[str, dict]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        B = self.base
        for x in B.objects:
            if x not in self.values:
                raise InvalidDiagram(f"no value set at {x}")
        for m in B.morphisms:
            fn = self.action.get(m.name)
            if fn is None:
                raise InvalidDiagram(f"no action at {m.name}")
            if set(fn) != set(self.values[m.src]):
                raise InvalidDiagram(f"action at {m.name} has wrong domain")
            if not set(fn.values()) <= set(self.values[m.tgt]):
                raise InvalidDiagram(f"action at {m.name} has bad image")
        for x in B.objects:
            fn = self.action[B.identity[x]]
            if any(fn[e] != e for e in self.values[x]):
                raise InvalidDiagram(f"identity action at {x} is not id")
        for g, f in B.generator_pairs():
            gf = self.action[B.compose(g, f)]
            for e in self.values[B.src(f)]:
                if gf[e] != self.action[g][self.action[f][e]]:
                    raise InvalidDiagram(f"functoriality fails at ({g}, {f})")


def restrict_set_diagram(F: SetDiagram, G: Functor) -> SetDiagram:
    """F after G, for G: B -> base(F)."""
    return SetDiagram(
        G.dom,
        {b: F.values[G.obj(b)] for b in G.dom.objects},
        {m.name: F.action[G.mor(m.name)] for m in G.dom.morphisms},
    )
