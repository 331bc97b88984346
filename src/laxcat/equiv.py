"""Isomorphism and equivalence of finite categories.

Equivalence goes through skeletons: finite categories are equivalent iff
their skeletons are isomorphic.  Positive verdicts carry a validated witness
functor; negative verdicts carry a concrete distinguishing certificate.

The isomorphism search first compares invariants (hom-set sizes and object
profiles), then backtracks over object matchings.  For each matching it
assigns morphisms in one static order per call: identities, then greedily
the morphism with the most composition-table entries whose other members
are already placed.  Each assignment forces the composites it forms with the
assigned morphisms it composes with, and those entries check it at once, so
on symmetric products a wrong choice clashes within a few nodes.  Every
complete assignment is validated as a functor before it is returned; which
of several valid witnesses comes back depends on that order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import (FinCat, Functor, _by_construction, compose_functors, is_iso,
                   subcategory)
from .errors import InvariantViolation, MalformedTable, SearchBudgetExceeded

DEFAULT_BUDGET = 10**6


@dataclass
class EquivalenceVerdict:
    verdict: str  # "isomorphic" | "equivalent" | "inequivalent"
    witness: Functor | None = None
    certificate: str | None = None

    def __bool__(self) -> bool:
        return self.verdict != "inequivalent"


# -- skeletons -------------------------------------------------------------


def iso_classes(C: FinCat) -> dict[str, str]:
    """Map each object to the lexicographically least object isomorphic to it."""
    rep = {x: x for x in C.objects}

    def find(x: str) -> str:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for m in C.morphisms:
        if is_iso(C, m.name):
            a, b = find(m.src), find(m.tgt)
            if a != b:
                lo, hi = min(a, b), max(a, b)
                rep[hi] = lo
    return {x: find(x) for x in C.objects}


@dataclass
class SkeletonResult:
    cat: FinCat
    inclusion: Functor  # skeleton -> C, an equivalence by construction
    retraction: Functor  # C -> skeleton, via chosen isos to representatives


def skeleton(C: FinCat) -> SkeletonResult:
    """Full subcategory on one representative per isomorphism class.

    The retraction, m: x -> y |-> rho_y m rho_x^-1 for the chosen isos
    rho_x: x -> rep(x), whose inverses are checked when chosen, is a functor
    by construction: rho_z n rho_y^-1 rho_y m rho_x^-1 = rho_z n m rho_x^-1."""
    reps = iso_classes(C)
    keep = sorted(set(reps.values()))
    keep_set = set(keep)
    morphisms = [m for m in C.morphisms if m.src in keep_set and m.tgt in keep_set]
    skel = subcategory(C, keep, morphisms, check=False)
    inclusion = Functor(skel, C, {x: x for x in keep},
                        {m.name: m.name for m in morphisms})
    # chosen iso rho_x: x -> rep(x); identity when x is its own representative
    rho: dict[str, str] = {}
    rho_inv: dict[str, str] = {}
    for x in C.objects:
        r = reps[x]
        if r == x:
            rho[x] = C.identity[x]
            rho_inv[x] = C.identity[x]
        else:
            u = min(m for m in C.hom(x, r) if is_iso(C, m))
            rho[x] = u
            rho_inv[x] = C.inverse(u)
    retraction = _by_construction(Functor(
        C, skel,
        {x: reps[x] for x in C.objects},
        {m.name: C.compose(rho[m.tgt], C.compose(m.name, rho_inv[m.src]))
         for m in C.morphisms},
    ))
    retraction.validate()
    return SkeletonResult(skel, inclusion, retraction)


# -- isomorphism search -------------------------------------------------------


def _object_profile(C: FinCat, x: str) -> tuple:
    outs = sorted(len(C.hom(x, y)) for y in C.objects)
    ins = sorted(len(C.hom(y, x)) for y in C.objects)
    endo = len(C.hom(x, x))
    iso_endo = sum(1 for m in C.hom(x, x) if is_iso(C, m))
    return (tuple(outs), tuple(ins), endo, iso_endo)


def _cat_invariants(C: FinCat, profiles: dict[str, tuple]) -> dict:
    """C's invariants, profiles holding each object's _object_profile."""
    hom_sizes = sorted(
        len(C.hom(x, y)) for x in C.objects for y in C.objects
    )
    return {
        "objects": C.n_objects,
        "morphisms": C.n_morphisms,
        "hom_multiset": tuple(hom_sizes),
        "profiles": tuple(sorted(profiles.values())),
    }


def _morphism_order(C: FinCat) -> list[str]:
    """Identities, then greedily the morphism the placed ones check most.

    An entry ``(g, f) -> h`` of the composition table links its members, as
    factors or as the composite.  The next morphism is the one with the most
    entries whose other members are all placed: each of those checks its
    image the moment it is chosen, so a wrong choice clashes at once (the
    matching order of VF2, Cordella et al., IEEE TPAMI 2004).  Ties go to the
    smaller hom-set, then to the smaller name.  A lazy max-heap keeps this
    O(|comp| log n).
    """
    entries: dict[str, list[tuple[str, ...]]] = {m.name: [] for m in C.morphisms}
    for (g, f), h in C.comp.items():
        members = tuple(dict.fromkeys((g, f, h)))
        if len(members) > 1:
            for m in members:
                entries[m].append(members)
    hom_size = {m.name: len(C.hom(m.src, m.tgt)) for m in C.morphisms}
    links = dict.fromkeys(entries, 0)  # entries whose other members are placed
    placed: set[str] = set()
    order: list[str] = []
    heap: list[tuple[int, int, str]] = []

    def place(m: str) -> None:
        placed.add(m)
        order.append(m)
        for members in entries[m]:
            rest = [x for x in members if x not in placed]
            if len(rest) == 1:
                x = rest[0]
                links[x] += 1
                heapq.heappush(heap, (-links[x], hom_size[x], x))

    for m in sorted(C.identity.values()):
        place(m)
    for m in entries:
        if m not in placed:
            heapq.heappush(heap, (-links[m], hom_size[m], m))
    while heap:
        neg, _, m = heapq.heappop(heap)
        if m not in placed and -neg == links[m]:
            place(m)
    return order


def is_isomorphic(C: FinCat, D: FinCat,
                  budget: int = DEFAULT_BUDGET) -> EquivalenceVerdict:
    """Backtracking search for a bijective functor, pruned by invariants."""
    prof_c = {x: _object_profile(C, x) for x in C.objects}
    prof_d = {y: _object_profile(D, y) for y in D.objects}
    inv_c, inv_d = _cat_invariants(C, prof_c), _cat_invariants(D, prof_d)
    for key in ("objects", "morphisms", "hom_multiset", "profiles"):
        if inv_c[key] != inv_d[key]:
            return EquivalenceVerdict(
                "inequivalent", certificate=f"invariant mismatch: {key} "
                f"{inv_c[key]!r} vs {inv_d[key]!r}")

    nodes = 0

    objs = sorted(C.objects)

    # both searches keep explicit stacks: functor-category skeletons can be
    # deeper than the interpreter's recursion limit
    def match_objects():
        nonlocal nodes
        if not objs:
            yield {}
            return
        omap: dict[str, str] = {}
        used: set[str] = set()
        stack = [iter(D.objects)]
        while stack:
            x = objs[len(stack) - 1]
            if x in omap:
                used.discard(omap.pop(x))
            advanced = False
            for y in stack[-1]:
                if y in used or prof_c[x] != prof_d[y]:
                    continue
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(budget)
                # hom-size consistency against already-matched objects
                ok = all(
                    len(C.hom(x, x2)) == len(D.hom(y, y2))
                    and len(C.hom(x2, x)) == len(D.hom(y2, y))
                    for x2, y2 in omap.items()
                ) and len(C.hom(x, x)) == len(D.hom(y, y))
                if not ok:
                    continue
                omap[x] = y
                used.add(y)
                advanced = True
                break
            if not advanced:
                stack.pop()
            elif len(stack) == len(objs):
                yield dict(omap)
            else:
                stack.append(iter(D.objects))

    order = _morphism_order(C)
    c_src = {m.name: m.src for m in C.morphisms}
    c_tgt = {m.name: m.tgt for m in C.morphisms}
    iso_c, iso_d = C.iso_set(), D.iso_set()

    def match_morphisms(omap: dict[str, str]):
        nonlocal nodes
        mmap: dict[str, str] = {}
        used: set[str] = set()
        # assigned morphisms indexed by source and by target object; dicts
        # keep insertion order, so the scans below are deterministic
        by_src: dict[str, dict[str, None]] = {x: {} for x in C.objects}
        by_tgt: dict[str, dict[str, None]] = {x: {} for x in C.objects}

        def commit(f: str, d: str) -> None:
            mmap[f] = d
            used.add(d)
            by_src[c_src[f]][f] = None
            by_tgt[c_tgt[f]][f] = None

        def undo(f: str, forced: list[str]) -> None:
            for h in forced + [f]:
                used.discard(mmap.pop(h))
                del by_src[c_src[h]][h]
                del by_tgt[c_tgt[h]][h]

        def try_assign(f: str, d: str) -> list[str] | None:
            """Commits f -> d plus every composite both force; None on clash.

            Checks f against the morphisms assigned before it (and itself)
            that compose with it, on either side; composites forced here are
            not propagated further at this node.
            """
            commit(f, d)
            pairs = [(f, g) for g in by_tgt[c_src[f]]]
            pairs += [(g, f) for g in by_src[c_tgt[f]]]
            forced: list[str] = []
            for (a, b) in pairs:
                h = C.compose(a, b)
                dh = D.compose(mmap[a], mmap[b])
                if h in mmap:
                    if mmap[h] != dh:
                        break
                elif dh in used:
                    break
                else:
                    commit(h, dh)
                    forced.append(h)
            else:
                return forced
            undo(f, forced)
            return None

        def advance(f: str, it) -> tuple[str, list[str]] | None:
            nonlocal nodes
            for d in it:
                if d in used:
                    continue
                if C.is_identity(f) != D.is_identity(d):
                    continue
                if (f in iso_c) != (d in iso_d):
                    continue
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(budget)
                forced = try_assign(f, d)
                if forced is not None:
                    return d, forced
            return None

        # frames: [position, name, candidate iterator, choice, forced names]
        frames: list[list] = []
        i = 0
        while True:
            while i < len(order) and order[i] in mmap:
                i += 1  # forced earlier by a composition constraint
            if i == len(order):
                yield dict(mmap)
            else:
                f = order[i]
                frames.append(
                    [i, f, iter(D.hom(omap[c_src[f]], omap[c_tgt[f]])),
                     None, None])
            while frames:
                fr = frames[-1]
                if fr[3] is not None:
                    undo(fr[1], fr[4])
                    fr[3] = fr[4] = None
                nd = advance(fr[1], fr[2])
                if nd is not None:
                    fr[3], fr[4] = nd
                    i = fr[0] + 1
                    break
                frames.pop()
            else:
                return

    for omap in match_objects():
        for mmap in match_morphisms(omap):
            F = Functor(C, D, omap, mmap)
            try:
                F.validate()
            except MalformedTable:
                continue  # a composite the search never paired is not preserved
            return EquivalenceVerdict("isomorphic", witness=F)
    return EquivalenceVerdict(
        "inequivalent",
        certificate=f"canonical search exhausted at {nodes} nodes")


def is_equivalent(C: FinCat, D: FinCat,
                  budget: int = DEFAULT_BUDGET) -> EquivalenceVerdict:
    """is_isomorphic on skeletons; witness transported along the inclusions.
    As a composite of functors, the witness is a functor by construction."""
    sc, sd = skeleton(C), skeleton(D)
    verdict = is_isomorphic(sc.cat, sd.cat, budget=budget)
    if verdict.verdict == "inequivalent":
        return verdict
    witness = _by_construction(compose_functors(
        sd.inclusion, compose_functors(verdict.witness, sc.retraction)))
    witness.validate()
    if not (is_fully_faithful(witness) and is_essentially_surjective(witness)):
        raise InvariantViolation(
            "transported isomorphism of skeletons is not an equivalence")
    return EquivalenceVerdict("equivalent", witness=witness)


# -- functor-level checks -------------------------------------------------------


def unfaithful_pair(F: Functor) -> tuple[str, str] | None:
    """The first pair (x, y) whose hom F does not map bijectively onto
    hom(Fx, Fy), or None when F is fully faithful."""
    for x in F.dom.objects:
        for y in F.dom.objects:
            image = [F.mor(m) for m in F.dom.hom(x, y)]
            if len(set(image)) != len(image):
                return x, y
            if sorted(image) != sorted(F.cod.hom(F.obj(x), F.obj(y))):
                return x, y
    return None


def unreached_object(F: Functor) -> str | None:
    """The first object of F's codomain isomorphic to no image of F, or None
    when F is essentially surjective."""
    hit = {F.obj(x) for x in F.dom.objects}
    for d in F.cod.objects:
        if d in hit:
            continue
        if not any(
            is_iso(F.cod, m) for h in hit for m in F.cod.hom(h, d)
        ):
            return d
    return None


def is_fully_faithful(F: Functor) -> bool:
    return unfaithful_pair(F) is None


def is_essentially_surjective(F: Functor) -> bool:
    return unreached_object(F) is None
