"""Finite categories, functors, and markings.

A finite category is stored as an explicit composition table.  Morphism
identity is by id string: two morphisms are equal iff their ids are equal,
which makes every axiom check a table lookup.  Object and morphism ids are
ordered lexicographically; that ordering is the global tie-breaker wherever
a canonical choice is needed.

Derived categories are assembled in one of two ways.  ``build_category``
takes homs that carry a hashable payload (a pair of legs, a component tuple,
a family, a class's shortest word) and a rule composing payloads; it looks
every composite up among the enumerated homs when it builds, so ids are
minted only where homs are enumerated.  ``subcategory`` restricts a category
to some objects and morphisms, looking up the composites of kept pairs.
Beside them only ``opposite_cat`` and literal tables call ``fincat``.
``functor_key`` (``Functor.key``) mints a functor-category object id and
nothing else: functors are compared by their maps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .errors import InvalidMarking, MalformedTable, UnknownMorphism


def short_id(s: str) -> str:
    """Canonical id, shortened deterministically when very long."""
    if len(s) <= 120:
        return s
    return s[:96] + "#" + hashlib.sha1(s.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Mor:
    name: str
    src: str
    tgt: str


class FinCat:
    """A finite category: objects, morphisms, identities, composition table.

    Values are immutable after construction; every operation on them is pure.
    """

    def __init__(
        self,
        objects: Iterable[str],
        morphisms: Iterable[Mor],
        identity: Mapping[str, str],
        comp: Mapping[tuple[str, str], str],
    ):
        self.objects: tuple[str, ...] = tuple(sorted(objects))
        self.morphisms: tuple[Mor, ...] = tuple(
            sorted(morphisms, key=lambda m: m.name)
        )
        self.identity: dict[str, str] = dict(identity)
        self.comp: dict[tuple[str, str], str] = dict(comp)
        self._mor: dict[str, Mor] = {m.name: m for m in self.morphisms}
        self._identity_names = frozenset(self.identity.values())
        self._hom: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            self._hom.setdefault((m.src, m.tgt), []).append(m.name)
        self._iso_cache: frozenset[str] | None = None
        self._gen_cache: tuple[str, ...] | None = None
        self._layout_cache: tuple[tuple[str, ...], tuple[str, ...]] | None = None
        # the searches out of this category, compiled on first use
        # (constructions.functor_plan)
        self._plan_cache = None

    # -- basic accessors -------------------------------------------------

    def mor(self, name: str) -> Mor:
        try:
            return self._mor[name]
        except KeyError:
            raise UnknownMorphism(name) from None

    def has_mor(self, name: str) -> bool:
        return name in self._mor

    def src(self, name: str) -> str:
        return self.mor(name).src

    def tgt(self, name: str) -> str:
        return self.mor(name).tgt

    def compose(self, g: str, f: str) -> str:
        """g after f.  Defined exactly when tgt(f) == src(g)."""
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise UnknownMorphism(f"no composite ({g} after {f})") from None

    def hom(self, x: str, y: str) -> list[str]:
        return self._hom.get((x, y), [])

    def is_identity(self, name: str) -> bool:
        return name in self._identity_names

    def nonidentity(self) -> list[str]:
        return [m.name for m in self.morphisms if not self.is_identity(m.name)]

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        """All (g, f) with tgt(f) == src(g)."""
        by_src: dict[str, list[str]] = {}
        for m in self.morphisms:
            by_src.setdefault(m.src, []).append(m.name)
        for f in self.morphisms:
            for g in by_src.get(f.tgt, []):
                yield (g, f.name)

    def generators(self) -> tuple[str, ...]:
        """A generating set, computed once: the indecomposable non-identities
        (not a composite of two non-identities), closed under left
        composition by generators with a worklist; when the closure stalls,
        the first unreached non-identity in name order is added and closed
        from alone.

        So every non-identity h is a generator, or g after h' for a generator
        g and a non-identity h' reached before h.  That is why a map is a
        functor once it preserves identities and every composite g after m
        with g a generator (see Functor.validate).  The table is read through
        ``compose``, so a missing composite raises UnknownMorphism.
        """
        if self._gen_cache is None:
            nonid = self.nonidentity()
            out_of: dict[str, list[str]] = {}
            for f in nonid:
                out_of.setdefault(self._mor[f].src, []).append(f)
            try:
                composite = {self.comp[g, f] for f in nonid
                             for g in out_of.get(self._mor[f].tgt, ())}
            except KeyError as hole:
                self.compose(*hole.args[0])  # raises UnknownMorphism
                raise
            gens = [f for f in nonid if f not in composite]
            gens_out_of: dict[str, list[str]] = {}
            for g in gens:
                gens_out_of.setdefault(self._mor[g].src, []).append(g)
            reached = set(gens)
            work = list(gens)
            for f in nonid:
                if f not in reached:  # the closure stalled
                    gens.append(f)
                    gens_out_of.setdefault(self._mor[f].src, []).append(f)
                    reached.add(f)
                    work.append(f)
                while work:
                    r = work.pop()
                    for g in gens_out_of.get(self._mor[r].tgt, ()):
                        h = self.compose(g, r)
                        if h not in reached and not self.is_identity(h):
                            reached.add(h)
                            work.append(h)
            self._gen_cache = tuple(gens)
        return self._gen_cache

    def key_layout(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The objects, and the non-identity morphisms in id order, computed
        once: the order of a functor's images in its key (functor_key)."""
        if self._layout_cache is None:
            self._layout_cache = (self.objects, tuple(self.nonidentity()))
        return self._layout_cache

    def generator_pairs(self) -> Iterator[tuple[str, str]]:
        """All (g, m) with g a generator and tgt(m) == src(g)."""
        into: dict[str, list[str]] = {}
        for m in self.morphisms:
            into.setdefault(m.tgt, []).append(m.name)
        for g in self.generators():
            for m in into.get(self._mor[g].src, ()):
                yield (g, m)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def same_table(self, other: "FinCat") -> bool:
        return other is self or (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.comp == other.comp
        )

    # -- isomorphisms ----------------------------------------------------

    def iso_set(self) -> frozenset[str]:
        if self._iso_cache is None:
            self._iso_cache = frozenset(
                m.name for m in self.morphisms if self.inverse(m.name) is not None
            )
        return self._iso_cache

    def inverse(self, f: str) -> str | None:
        """f's two-sided inverse (unique if any) in Hom(tgt f, src f), or None."""
        m = self.mor(f)
        for g in self.hom(m.tgt, m.src):
            if (
                self.compose(g, f) == self.identity[m.src]
                and self.compose(f, g) == self.identity[m.tgt]
            ):
                return g
        return None


def is_iso(C: FinCat, f: str) -> bool:
    """Exhaustive two-sided inverse search over Hom(tgt(f), src(f))."""
    C.mor(f)  # raises UnknownMorphism
    return f in C.iso_set()


# -- validation ------------------------------------------------------------


def check_axioms(C: FinCat) -> None:
    """Raise MalformedTable unless C is a category: an identity table with
    one endomorphism per object and no other key, endpoints and composites
    among the ids, a total table, and the unit and associativity laws on
    every pair and triple.  The message lists every violation, one
    ``kind: detail`` line each; a stage that finds any stops the check.

    The table is read once, into rows: ``rows[f][g]`` is g after f, filled
    while the entries are checked.  Totality is a count: once every entry
    is a composable pair of known ids with the right endpoints, the entries
    are distinct composable pairs, so the table is total exactly when it
    has one entry per composable pair, and only a short table is searched
    for its holes.  The units are read off the rows.  Associativity is
    checked on every triple (h, g, f), a row at a time: for each f and each
    g out of tgt f, the row of g∘f must be the row of g mapped through the
    row of f, as h∘(g∘f) and (h∘g)∘f are the entries at h of the two.  Only
    a pair whose rows differ lists its failing triples, in the order f, g,
    h of the ids."""
    bad: list[str] = []
    objects, identity, mor = set(C.objects), C.identity, C._mor
    for o in C.objects:
        if o not in identity:
            bad.append(f"dangling: object {o} has no identity")
        elif identity[o] not in mor:
            bad.append(f"dangling: identity of {o} is unknown")
        elif (mor[identity[o]].src, mor[identity[o]].tgt) != (o, o):
            bad.append(f"unit: identity {identity[o]} of {o} is no "
                       f"endomorphism of {o}")
    for o in sorted(set(identity) - objects):
        bad.append(f"dangling: identity given for non-object {o}")
    out: dict[str, list[str]] = {}  # the morphisms out of each object
    for m in C.morphisms:
        if m.src not in objects or m.tgt not in objects:
            bad.append(f"dangling: morphism {m.name} has bad endpoints")
        out.setdefault(m.src, []).append(m.name)
    rows: dict[str, dict[str, str]] = {name: {} for name in mor}
    for (g, f), h in C.comp.items():
        mg, mf, mh = mor.get(g), mor.get(f), mor.get(h)
        if mg is None or mf is None or mh is None:
            bad.append(f"dangling: comp entry ({g},{f})={h} unknown id")
        elif mf.tgt != mg.src:
            bad.append(f"composite: ({g},{f}) not composable")
        elif mh.src != mf.src or mh.tgt != mg.tgt:
            bad.append(f"composite: ({g},{f})={h} has wrong endpoints")
        else:
            rows[f][g] = h
    _fail_on(bad)
    # totality, by counting the composable pairs
    if len(C.comp) != sum(len(out.get(m.tgt, ())) for m in C.morphisms):
        for f in C.morphisms:
            row = rows[f.name]
            bad.extend(f"composite: missing composite ({g},{f.name})"
                       for g in out.get(f.tgt, ()) if g not in row)
        _fail_on(bad)
    # units
    for m in C.morphisms:
        e_src, e_tgt = identity[m.src], identity[m.tgt]
        if rows[e_src][m.name] != m.name:
            bad.append(f"unit: ({m.name}, {e_src})")
        if rows[m.name][e_tgt] != m.name:
            bad.append(f"unit: ({e_tgt}, {m.name})")
    # associativity on every composable triple, a pair of rows at a time
    for f in C.morphisms:
        rf = rows[f.name]
        for g in out.get(f.tgt, ()):
            rg, rgf = rows[g], rows[rf[g]]
            if rgf != {h: rf[hg] for h, hg in rg.items()}:
                bad.extend(f"associativity: ({h}, {g}, {f.name})"
                           for h in out.get(mor[g].tgt, ()) if rgf[h] != rf[rg[h]])
    _fail_on(bad)


def _fail_on(violations: list[str]) -> None:
    if violations:
        raise MalformedTable("axiom failure:\n" + "\n".join(violations))


def fincat(
    objects: Iterable[str],
    morphisms: Iterable[Mor],
    identity: Mapping[str, str],
    comp: Mapping[tuple[str, str], str],
    check: bool = True,
) -> FinCat:
    """Assemble a FinCat, asserting all axioms unless check=False."""
    C = FinCat(objects, morphisms, identity, comp)
    names = [m.name for m in C.morphisms]
    if len(set(names)) != len(names):
        raise MalformedTable("duplicate morphism ids")
    if len(set(C.objects)) != len(C.objects):
        raise MalformedTable("duplicate object ids")
    if check:
        check_axioms(C)
    return C


def build_category(
    objects: Iterable[str],
    homs: Iterable[tuple[str, str, str, Hashable]],
    compose: Callable[[Hashable, Hashable], Hashable],
    is_identity: Callable[[Hashable], bool],
    check: bool = True,
) -> FinCat:
    """Assemble a FinCat from homs ``(name, src, tgt, payload)``.

    ``compose(p2, p1)`` is the payload of the second hom after the first, and
    the composite is the hom with that payload between the outer endpoints.
    A hom from an object to itself whose payload satisfies ``is_identity`` is
    that object's identity.  Every composite is computed when the category
    is built, homs in order and, for each, its partners out of its target in
    hom order; this is the order of the table.  Raises MalformedTable when two
    homs share ``(src, tgt, payload)`` or a composite is not among the homs,
    whether or not ``check`` also checks the axioms.
    """
    homs = list(homs)
    index: dict[tuple[str, str, Hashable], str] = {}
    identity: dict[str, str] = {}
    by_src: dict[str, list] = {}
    for hom in homs:
        name, src, tgt, payload = hom
        key = (src, tgt, payload)
        if key in index:
            raise MalformedTable(f"homs {index[key]} and {name} coincide")
        index[key] = name
        if src == tgt and is_identity(payload):
            identity[src] = name
        by_src.setdefault(src, []).append(hom)
    comp: dict[tuple[str, str], str] = {}
    for n1, s1, t1, p1 in homs:
        for n2, _, t2, p2 in by_src.get(t1, ()):
            try:
                comp[n2, n1] = index[s1, t2, compose(p2, p1)]
            except KeyError:
                raise MalformedTable(
                    f"missing composite ({n2} after {n1})") from None
    morphisms = [Mor(name, src, tgt) for name, src, tgt, _ in homs]
    return fincat(objects, morphisms, identity, comp, check=check)


def subcategory(C: FinCat, objects: Iterable[str], morphisms: Iterable[Mor],
                check: bool = True) -> FinCat:
    """C restricted to the given objects and morphisms, with the composite of
    every composable pair of kept morphisms, each looked up in C."""
    objects = list(objects)
    morphisms = list(morphisms)
    by_src: dict[str, list[str]] = {}
    for m in morphisms:
        by_src.setdefault(m.src, []).append(m.name)
    comp = {(g, f.name): C.compose(g, f.name)
            for f in morphisms for g in by_src.get(f.tgt, ())}
    return fincat(objects, morphisms, {o: C.identity[o] for o in objects},
                  comp, check=check)


# -- markings ---------------------------------------------------------------


@dataclass(frozen=True)
class MarkedFinCat:
    """A finite category with a marking.

    The marked set contains every identity and every isomorphism and is
    closed under composition.  The constructor checks this with
    ``validate_marking`` and raises InvalidMarking otherwise, so a marked
    category that exists has been checked once, and nothing checks it again.
    """

    cat: FinCat
    marked: frozenset[str]

    def __post_init__(self) -> None:
        validate_marking(self.cat, self.marked)

    def is_marked(self, m: str) -> bool:
        self.cat.mor(m)
        return m in self.marked


def validate_marking(C: FinCat, marked: Iterable[str]) -> frozenset[str]:
    """Reject a non-closed marking rather than silently saturating it."""
    S = frozenset(marked)
    for m in S:
        if not C.has_mor(m):
            raise InvalidMarking(f"unknown morphism {m}")
    missing = C.iso_set() - S
    if missing:
        raise InvalidMarking(f"isomorphisms not marked: {sorted(missing)}")
    for g, f in C.composable_pairs():
        if g in S and f in S and C.compose(g, f) not in S:
            raise InvalidMarking(f"not closed: ({g} after {f})")
    return S


def marked(C: FinCat, marked_set: Iterable[str]) -> MarkedFinCat:
    return MarkedFinCat(C, frozenset(marked_set))


def saturate_marking(C: FinCat, S: Iterable[str]) -> frozenset[str]:
    """Smallest marking containing S: add all isos, close under composition."""
    for m in S:
        C.mor(m)
    out = set(S) | set(C.iso_set())
    changed = True
    while changed:
        changed = False
        for g, f in C.composable_pairs():
            if g in out and f in out:
                h = C.compose(g, f)
                if h not in out:
                    out.add(h)
                    changed = True
    return frozenset(out)


def flat_marking(C: FinCat) -> MarkedFinCat:
    """Mark exactly the isomorphisms."""
    return MarkedFinCat(C, C.iso_set())


def sharp_marking(C: FinCat) -> MarkedFinCat:
    """Mark every morphism."""
    return MarkedFinCat(C, frozenset(m.name for m in C.morphisms))


def marked_subcategory(Cm: MarkedFinCat) -> FinCat:
    """The wide subcategory on all objects and exactly the marked morphisms."""
    C = Cm.cat
    return subcategory(C, C.objects,
                       [m for m in C.morphisms if m.name in Cm.marked])


# -- opposites and products ---------------------------------------------------


def opposite_cat(C: FinCat) -> FinCat:
    morphisms = [Mor(m.name, m.tgt, m.src) for m in C.morphisms]
    comp = {(f, g): h for (g, f), h in C.comp.items()}
    return fincat(C.objects, morphisms, C.identity, comp, check=False)


def opposite(Cm: MarkedFinCat) -> MarkedFinCat:
    return MarkedFinCat(opposite_cat(Cm.cat), Cm.marked)


def pair_id(a: str, b: str) -> str:
    return short_id(f"({a}|{b})")


def product(Cm: MarkedFinCat, Dm: MarkedFinCat) -> MarkedFinCat:
    """Cartesian product; a morphism is marked iff both components are."""
    C, D = Cm.cat, Dm.cat
    cat = build_category(
        [pair_id(x, y) for x in C.objects for y in D.objects],
        [(pair_id(f.name, g.name), pair_id(f.src, g.src), pair_id(f.tgt, g.tgt),
          (f.name, g.name)) for f in C.morphisms for g in D.morphisms],
        lambda p2, p1: (C.comp[p2[0], p1[0]], D.comp[p2[1], p1[1]]),
        lambda p: C.is_identity(p[0]) and D.is_identity(p[1]),
        check=False)
    return MarkedFinCat(cat, frozenset(pair_id(f, g) for f in Cm.marked
                                       for g in Dm.marked))


def _product_functor(P: MarkedFinCat, P2: MarkedFinCat, g: Functor,
                     h: Functor) -> Functor:
    """(g x h): product P -> product P2, matching the product id scheme.
    Unchecked: each caller hands it to a diagram constructor, which checks it."""
    A, B = g.dom, h.dom
    omap = {}
    for x in A.objects:
        for y in B.objects:
            omap[pair_id(x, y)] = pair_id(g.obj(x), h.obj(y))
    mmap = {}
    for m in A.morphisms:
        for n in B.morphisms:
            mmap[pair_id(m.name, n.name)] = pair_id(g.mor(m.name), h.mor(n.name))
    return Functor(P.cat, P2.cat, omap, mmap)


# -- functors -----------------------------------------------------------------


@dataclass(frozen=True)
class Functor:
    dom: FinCat
    cod: FinCat
    object_map: Mapping[str, str]
    morphism_map: Mapping[str, str]
    _proved: bool = field(default=False, init=False, repr=False, compare=False)

    def obj(self, x: str) -> str:
        return self.object_map[x]

    def mor(self, f: str) -> str:
        return self.morphism_map[f]

    def validate(self) -> None:
        """Raise MalformedTable unless this is a functor.

        Objects, endpoints and identities are checked everywhere; composites
        only for g after m with g a generator of the domain.  That suffices:
        every non-identity h is g after h' for a generator g and an h' reached
        before it (FinCat.generators), so by induction on when h was reached,
        F(h m) = F(g) F(h' m) = F(g) F(h') F(m) = F(h) F(m).
        A functor marked by ``_by_construction`` skips the composites.
        """
        dom, cod = self.dom, self.cod
        omap, mmap = self.object_map, self.morphism_map
        cod_objects = set(cod.objects)
        for x in dom.objects:
            if omap.get(x) not in cod_objects:
                raise MalformedTable(f"functor: object {x} unmapped or bad image")
        for m in dom.morphisms:
            img = mmap.get(m.name)
            if img is None or not cod.has_mor(img):
                raise MalformedTable(f"functor: morphism {m.name} unmapped")
            c = cod.mor(img)
            if c.src != omap[m.src] or c.tgt != omap[m.tgt]:
                raise MalformedTable(f"functor: {m.name} image has wrong endpoints")
        for x in dom.objects:
            ident = dom.identity.get(x)
            if ident is None:
                raise MalformedTable(f"functor: domain object {x} has no identity")
            if mmap[ident] != cod.identity.get(omap[x]):
                raise MalformedTable(f"functor: identity of {x} not preserved")
        if self._proved:
            return
        dom_compose, cod_compose = dom.compose, cod.compose
        for g, f in dom.generator_pairs():
            if mmap[dom_compose(g, f)] != cod_compose(mmap[g], mmap[f]):
                raise MalformedTable(f"functor: composite ({g},{f}) not preserved")

    def is_marked(self, dom_marked: frozenset[str], cod_marked: frozenset[str]) -> bool:
        return all(self.mor(m) in cod_marked for m in dom_marked)

    def same_maps(self, other: Functor) -> bool:
        return (self.object_map == other.object_map
                and self.morphism_map == other.morphism_map)

    def key(self) -> str:
        """This functor's id as an object of a functor category; not an
        equality test (use same_maps), since a long key is hashed."""
        return functor_key(self.dom, self.object_map, self.morphism_map)


def functor_key(dom: FinCat, object_map: Mapping[str, str],
                morphism_map: Mapping[str, str]) -> str:
    """The id of the functor out of dom with these maps (Functor.key): its
    object images, then its non-identity morphism images, each as source>image
    in the order of dom.key_layout().  This is the one place functor ids are
    minted; the identities' images follow from the objects'."""
    objs, mors = dom.key_layout()
    os = ",".join([f"{x}>{object_map[x]}" for x in objs])
    ms = ",".join([f"{m}>{morphism_map[m]}" for m in mors])
    return short_id(f"F{{{os};{ms}}}")


def _by_construction(F: Functor) -> Functor:
    """Mark F as preserving composites by construction, so that F.validate()
    skips them, and with them the generators of its domain.  Only a maker
    whose docstring proves the claim calls this."""
    object.__setattr__(F, "_proved", True)
    return F


def identity_functor(C: FinCat) -> Functor:
    return Functor(
        C, C,
        {x: x for x in C.objects},
        {m.name: m.name for m in C.morphisms},
    )


def compose_functors(G: Functor, F: Functor) -> Functor:
    """G after F."""
    if not G.dom.same_table(F.cod):
        raise MalformedTable("compose_functors: middle categories differ")
    return Functor(
        F.dom, G.cod,
        {x: G.obj(F.obj(x)) for x in F.dom.objects},
        {m.name: G.mor(F.mor(m.name)) for m in F.dom.morphisms},
    )


def opposite_functor(F: Functor, dom_op: FinCat | None = None,
                     cod_op: FinCat | None = None) -> Functor:
    """The same maps, regarded as a functor between the opposite categories."""
    return Functor(
        dom_op if dom_op is not None else opposite_cat(F.dom),
        cod_op if cod_op is not None else opposite_cat(F.cod),
        dict(F.object_map),
        dict(F.morphism_map),
    )


# -- small standard categories (used by tests and the probe suite) ------------


def terminal_cat() -> FinCat:
    return discrete_cat(["*"])


def discrete_cat(objects: list[str]) -> FinCat:
    return build_category(objects, [(f"id_{x}", x, x, ()) for x in objects],
                          lambda p2, p1: (), lambda p: True)


def chain_cat(n: int) -> FinCat:
    """The linear order 0 -> 1 -> ... -> n as a category."""
    # a poset has at most one morphism per hom, so every payload is ()
    homs = [(f"id_{i}" if i == j else f"a{i}{j}", str(i), str(j), ())
            for i in range(n + 1) for j in range(i, n + 1)]
    return build_category([str(i) for i in range(n + 1)], homs,
                          lambda p2, p1: (), lambda p: True)


def walking_arrow() -> FinCat:
    return chain_cat(1)


def walking_iso() -> FinCat:
    ms = [Mor("id_a", "a", "a"), Mor("id_b", "b", "b"),
          Mor("u", "a", "b"), Mor("v", "b", "a")]
    comp = {
        ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
        ("u", "id_a"): "u", ("id_b", "u"): "u",
        ("v", "id_b"): "v", ("id_a", "v"): "v",
        ("v", "u"): "id_a", ("u", "v"): "id_b",
    }
    return fincat(["a", "b"], ms, {"a": "id_a", "b": "id_b"}, comp)


def parallel_pair() -> FinCat:
    ms = [Mor("id_a", "a", "a"), Mor("id_b", "b", "b"),
          Mor("u", "a", "b"), Mor("v", "a", "b")]
    comp = {
        ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
        ("u", "id_a"): "u", ("id_b", "u"): "u",
        ("v", "id_a"): "v", ("id_b", "v"): "v",
    }
    return fincat(["a", "b"], ms, {"a": "id_a", "b": "id_b"}, comp)
