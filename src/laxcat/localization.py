"""Localization at a marked class via bounded congruence closure on words.

The word problem is solved by breadth-first enumeration of generator words
with rewriting closure inside an explicit length window, not by Knuth-Bendix
completion: bound hits terminate with a witness frontier instead of silently
truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    Mor,
    _product_functor,
    fincat,
    flat_marking,
    identity_functor,
    is_iso,
    opposite_cat,
    product,
    short_id,
)
from .constructions import (
    DEFAULT_CAPS,
    FunCat,
    SizeCaps,
    coslice_cat,
    functor_category,
    marked_functor_category,
    slice_transition,
    twisted_arrow,
)
from .diagrams import CatDiagram, fiberwise_op
from .equiv import is_equivalent, is_essentially_surjective, is_fully_faithful
from .errors import InvariantViolation, MalformedTable, SizeBoundExceeded
from .grothendieck import grothendieck_cart, grothendieck_cocart
from .limits import cat_limit, whisker_functor


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Relation:
    src: str
    tgt: str
    lhs: tuple[str, ...]  # paths in diagram order: (f, g) means g after f
    rhs: tuple[str, ...]


@dataclass(frozen=True)
class Bounds:
    word_length: int = 8
    max_morphisms: int = 4096
    max_words: int = 200_000


@dataclass
class PresentedCat:
    objects: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]
    bounds: Bounds = Bounds()


def inverse_name(m: str) -> str:
    return f"inv_{m}"


def present(Cm: MarkedFinCat) -> PresentedCat:
    """Generators: all non-identity morphisms plus a formal inverse per marked
    non-identity morphism; relations: the composition table plus inverse laws."""
    C = Cm.cat
    arrows = [Arrow(m.name, m.src, m.tgt) for m in C.morphisms
              if not C.is_identity(m.name)]
    relations: list[Relation] = []
    for (g, f), h in sorted(C.comp.items()):
        if C.is_identity(g) or C.is_identity(f):
            continue
        rhs = () if C.is_identity(h) else (h,)
        relations.append(Relation(C.src(f), C.tgt(g), (f, g), rhs))
    for m in sorted(Cm.marked):
        if C.is_identity(m):
            continue
        inv = inverse_name(m)
        arrows.append(Arrow(inv, C.tgt(m), C.src(m)))
        relations.append(Relation(C.src(m), C.src(m), (m, inv), ()))
        relations.append(Relation(C.tgt(m), C.tgt(m), (inv, m), ()))
    return PresentedCat(tuple(C.objects), tuple(arrows), tuple(relations))


@dataclass
class LocalizationResult:
    status: str  # "ok" | "word-bound" | "size-bound"
    cat: FinCat | None = None
    quotient: Functor | None = None
    bound: dict | None = None  # which bound, frontier details

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# -- bounded congruence closure over generator words -------------------------------


_Node = tuple[str, tuple[str, ...]]  # (source object, letters in diagram order)


class _Words:
    """Generator words up to a length cap, keyed by source object, with a
    union-find congruence closed under the presentation relations."""

    def __init__(self, pres: PresentedCat, cap: int, max_words: int):
        self.pres = pres
        self.cap = cap
        self.arrow_tgt = {a.name: a.tgt for a in pres.arrows}
        by_src: dict[str, list[Arrow]] = {}
        for a in pres.arrows:
            by_src.setdefault(a.src, []).append(a)
        self.endpoints: dict[_Node, str] = {}
        frontier: list[tuple[_Node, str]] = [((x, ()), x) for x in pres.objects]
        for nd, t in frontier:
            self.endpoints[nd] = t
        for _ in range(cap):
            nxt = []
            for (s, w), t in frontier:
                for a in by_src.get(t, []):
                    nd = (s, w + (a.name,))
                    self.endpoints[nd] = a.tgt
                    nxt.append((nd, a.tgt))
                    if len(self.endpoints) > max_words:
                        raise SizeBoundExceeded("localization words", "word",
                                                len(self.endpoints), max_words)
            frontier = nxt
        self.parent: dict[_Node, _Node] = {nd: nd for nd in self.endpoints}
        self._close()

    def find(self, nd: _Node) -> _Node:
        p = self.parent
        while p[nd] != nd:
            p[nd] = p[p[nd]]
            nd = p[nd]
        return nd

    def union(self, a: _Node, b: _Node) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # shortlex-least representative wins
        lo, hi = sorted((ra, rb), key=lambda nd: (len(nd[1]), nd[1], nd[0]))
        self.parent[hi] = lo
        return True

    def _object_at(self, nd: _Node, i: int) -> str:
        s, w = nd
        for letter in w[:i]:
            s = self.arrow_tgt[letter]
        return s

    def _close(self) -> None:
        rules = []
        for r in self.pres.relations:
            rules.append((r.lhs, r.rhs, r.src))
            rules.append((r.rhs, r.lhs, r.src))
        changed = True
        while changed:
            changed = False
            for nd in list(self.endpoints):
                s, w = nd
                for lhs, rhs, at_obj in rules:
                    ln = len(lhs)
                    if ln > len(w):
                        continue
                    for i in range(len(w) - ln + 1):
                        if w[i:i + ln] != lhs:
                            continue
                        # empty patterns match anywhere; anchor them to the
                        # relation's object so the substitute stays composable
                        if ln == 0 and self._object_at(nd, i) != at_obj:
                            continue
                        nd2 = (s, w[:i] + rhs + w[i + ln:])
                        if nd2 in self.endpoints and self.union(nd, nd2):
                            changed = True
                # derived equalities propagate as subword substitutions toward
                # class representatives, making the closure a true congruence
                # on the truncated word set
                obj = s
                for i in range(len(w)):
                    o = obj
                    for j in range(i + 1, len(w) + 1):
                        ro, rw = self.find((o, w[i:j]))
                        if rw != w[i:j]:
                            nd2 = (s, w[:i] + rw + w[j:])
                            if nd2 in self.endpoints and self.union(nd, nd2):
                                changed = True
                    obj = self.arrow_tgt[w[i]]

    def classes(self, max_len: int) -> dict[_Node, list[_Node]]:
        """Representative node -> all nodes of length <= max_len in the class."""
        out: dict[_Node, list[_Node]] = {}
        for nd in self.endpoints:
            if len(nd[1]) <= max_len:
                out.setdefault(self.find(nd), []).append(nd)
        return out


def localize(Cm: MarkedFinCat, bounds: Bounds = Bounds(),
             pres: PresentedCat | None = None) -> LocalizationResult:
    """Bounded localization of C at its marked morphisms.

    Succeeds iff some word-length L (within bounds) yields closed hom-sets:
    every composite of class representatives reduces back to a word of
    length <= L inside the closure window of length 2L.
    """
    if pres is None:
        pres = present(Cm)
    result, resolve = _localize_presented(pres, bounds)
    if not result.ok:
        return result
    cat = result.cat
    C = Cm.cat
    quotient = Functor(
        C, cat,
        {x: x for x in C.objects},
        {m.name: ("id_" + C.src(m.name) if C.is_identity(m.name)
                  else resolve(C.src(m.name), m.name))
         for m in C.morphisms},
    )
    quotient.validate()
    for m in Cm.marked:
        if not is_iso(cat, quotient.mor(m)):
            raise InvariantViolation(f"localization: marked {m} not inverted")
    return LocalizationResult("ok", cat=cat, quotient=quotient)


def localize_presentation(pres: PresentedCat,
                          bounds: Bounds = Bounds()) -> LocalizationResult:
    """Bounded word-problem solution for a bare presentation; no quotient
    functor since there is no source category."""
    return _localize_presented(pres, bounds)[0]


def _localize_presented(pres: PresentedCat, bounds: Bounds):
    last_frontier: tuple[tuple, int] | None = None
    for L in range(1, bounds.word_length + 1):
        try:
            words = _Words(pres, 2 * L, bounds.max_words)
        except SizeBoundExceeded as e:
            return LocalizationResult("size-bound", bound={
                "which": "max_words", "cap": e.cap, "at": e.count,
                "word_length": 2 * L}), None
        cls = words.classes(L)
        n = len(cls)
        if n > bounds.max_morphisms:
            return LocalizationResult("size-bound", bound={
                "which": "max_morphisms", "cap": bounds.max_morphisms,
                "at": n, "word_length": L}), None
        rep_of = {}
        for rep, members in cls.items():
            rep_of[rep] = min(members, key=lambda nd: (len(nd[1]), nd[1]))
        # closure and well-definedness of composition at this level
        closed = True
        witness: tuple[tuple, int] | None = None
        comp_class: dict[tuple, _Node] = {}
        for r1, ws1 in cls.items():
            if not closed:
                break
            s1 = rep_of[r1][0]
            t1 = words.endpoints[rep_of[r1]]
            for r2, ws2 in cls.items():
                if t1 != rep_of[r2][0]:
                    continue
                t2 = words.endpoints[rep_of[r2]]
                targets = set()
                for n1 in ws1:
                    for n2 in ws2:
                        if len(n1[1]) + len(n2[1]) <= 2 * L:
                            targets.add(words.find((n1[0], n1[1] + n2[1])))
                if len(targets) != 1:
                    closed = False
                    witness = ((s1, t2), len(targets))
                    break
                tgt_class = targets.pop()
                if tgt_class not in cls:
                    closed = False
                    witness = ((s1, t2), 0)
                    break
                comp_class[(r2, r1)] = tgt_class
            else:
                continue
        if not closed:
            last_frontier = witness
            continue
        # assemble the quotient category
        def mname(rep) -> str:
            s, w = rep_of[rep]
            if not w:
                return "id_" + s
            return short_id("*".join(w))

        objects = list(pres.objects)
        morphisms = []
        identity = {}
        for rep in cls:
            s, w = rep_of[rep]
            morphisms.append(Mor(mname(rep), s, words.endpoints[rep_of[rep]]))
            if not w:
                identity[s] = mname(rep)
        comp = {}
        for (r2, r1), r3 in comp_class.items():
            comp[(mname(r2), mname(r1))] = mname(r3)
        try:
            cat = fincat(objects, morphisms, identity, comp)
        except MalformedTable:
            # bounded closure not yet consistent; widen the window
            last_frontier = ((objects[0], objects[0]), len(cls))
            continue

        def resolve(src: str, generator: str, words=words, mname=mname) -> str:
            return mname(words.find((src, (generator,))))

        return LocalizationResult("ok", cat=cat), resolve
    hom, frontier = last_frontier if last_frontier else (("?", "?"), -1)
    return LocalizationResult("word-bound", bound={
        "which": "word_length", "cap": bounds.word_length,
        "hom": list(hom), "frontier": frontier}), None


# -- universal-property probes --------------------------------------------------------


@dataclass
class ProbeVerdict:
    ok: bool
    failures: list[tuple[str, str]]  # (probe name, reason)


def check_localization_up(Cm: MarkedFinCat, L: LocalizationResult,
                          probes: dict[str, FinCat],
                          caps: SizeCaps = DEFAULT_CAPS) -> ProbeVerdict:
    """For every probe D: precomposition with the quotient functor must be an
    equivalence Fun(|C|, D) -> Fun†(C†, D♭)."""
    if not (L.ok and L.cat is not None and L.quotient is not None):
        raise ValueError("check_localization_up needs a successful localization")
    failures = []
    for name, D in probes.items():
        top = functor_category(L.cat, D, caps)
        bot = marked_functor_category(Cm, flat_marking(D), caps)
        try:
            P = whisker_functor(top, bot, L.quotient, identity_functor(D))
        except KeyError:
            failures.append((name, "precomposition leaves marked functors"))
            continue
        P.validate()  # P is no diagram transition, so no constructor checks it
        if not is_fully_faithful(P):
            failures.append((name, "precomposition not fully faithful"))
        elif not is_essentially_surjective(P):
            failures.append((name, "precomposition not essentially surjective"))
    return ProbeVerdict(not failures, failures)


# -- lax and oplax colimits -------------------------------------------------------------


def lax_colimit(F, bounds: Bounds = Bounds(),
                caps: SizeCaps = DEFAULT_CAPS) -> tuple[LocalizationResult, "FiberedCat"]:
    """Localization of the marked cocartesian Grothendieck construction."""
    E = grothendieck_cocart(F, caps)
    return localize(E.total, bounds), E


def oplax_colimit(F, bounds: Bounds = Bounds(),
                  caps: SizeCaps = DEFAULT_CAPS) -> tuple[LocalizationResult, "FiberedCat"]:
    """Localization of the marked cartesian Grothendieck construction."""
    E = grothendieck_cart(F, caps)
    return localize(E.total, bounds), E


def probe_check_colimit_theorem(F, probes: dict[str, FinCat],
                                caps: SizeCaps = DEFAULT_CAPS,
                                cartesian: bool = False) -> ProbeVerdict:
    """Mapping-out comparison for the colimit half of the main formula.

    For each probe D, compares marked functors out of the Grothendieck total
    against the limit, over the opposite twisted arrow category, of marked
    functors out of (coslice at t) x (flat fiber at s).  No localization is
    computed.
    """
    if cartesian:
        # oplax side reduces to the lax side of the fiberwise-opposite diagram
        # against opposite probes (op of both comparison categories)
        return probe_check_colimit_theorem(
            fiberwise_op(F),
            {n: opposite_cat(D) for n, D in probes.items()},
            caps, cartesian=False)

    Im = F.base
    I = Im.cat
    E = grothendieck_cocart(F, caps)
    tw = twisted_arrow(I, caps)
    coslices = {i: coslice_cat(Im, i) for i in I.objects}

    failures = []
    for name, D in probes.items():
        Dm = flat_marking(D)
        side_a = marked_functor_category(E.total, Dm, caps)

        # P(f: s -> t) = coslice(t) x flat(F(s)), covariant on Tw(I);
        # mapping out is contravariant, so the limit diagram lives over
        # opposite(Tw(I)).
        pfun: dict[str, FunCat] = {}
        pcats = {}
        for f in tw.cat.objects:
            s, t = I.src(f), I.tgt(f)
            pcats[f] = product(coslices[t].marked, flat_marking(F.fiber[s]))
            pfun[f] = marked_functor_category(pcats[f], Dm, caps)
        transitions = {}
        for m in tw.cat.morphisms:
            a, b = tw.legs[m.name]
            f, f2 = m.src, m.tgt
            s, s2 = I.src(f), I.src(f2)
            t, t2 = I.tgt(f), I.tgt(f2)
            cos = slice_transition(Im, coslices[t], coslices[t2], b)
            pre = _product_functor(pcats[f], pcats[f2], cos, F.transition[a])
            transitions[m.name] = whisker_functor(
                pfun[f2], pfun[f], pre, identity_functor(D))
        diagram = CatDiagram(
            flat_marking(opposite_cat(tw.cat)),
            {f: pfun[f].cat for f in tw.cat.objects},
            transitions,
        )
        side_b = cat_limit(diagram, caps)
        verdict = is_equivalent(side_a.cat, side_b.cat)
        if verdict.verdict == "inequivalent":
            failures.append((name, verdict.certificate or "inequivalent"))
    return ProbeVerdict(not failures, failures)

