"""Presentations, bounded localization, lax colimits, and probe checks."""

import random
from collections import deque
from dataclasses import FrozenInstanceError

import pytest

from laxcat.core import (
    Functor,
    chain_cat,
    discrete_cat,
    flat_marking,
    identity_functor,
    is_iso,
    marked,
    saturate_marking,
    sharp_marking,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxcat.constructions import (
    SizeCaps,
    functor_category,
    marked_functor_category,
)
from laxcat.diagrams import CatDiagram, constant_diagram
from laxcat.equiv import is_equivalent, is_essentially_surjective, is_fully_faithful
from laxcat.errors import MalformedTable, SizeBoundExceeded
from laxcat.generator import GenParams, gen_category, gen_diagram, gen_marking
from laxcat.grothendieck import grothendieck_cocart
from laxcat.localization import (
    Arrow,
    Bounds,
    PresentedCat,
    Relation,
    _composites,
    _out_of,
    _paths,
    _Words,
    check_localization_up,
    inverse_name,
    lax_colimit,
    localize,
    localize_presentation,
    oplax_colimit,
    present,
    probe_check_colimit_theorem,
)
from test_limits import whisker_functor

CAPS = SizeCaps(max_objects=1024, max_morphisms=8192, max_candidates=10**6)
PROBES = {
    "terminal": terminal_cat(),
    "arrow": walking_arrow(),
    "iso": walking_iso(),
}


def _whole_category_up_failure(Cm, L, D, bot, caps):
    """The decision the extension check replaced, kept as its oracle: build
    Fun(|L|, D) whole, whisker it by the quotient into bot = Fun†(C, D♭)
    (built here when None is given), and decide the whiskered functor's full
    faithfulness and essential surjectivity."""
    top = functor_category(L.cat, D, caps)
    if bot is None:
        bot = marked_functor_category(Cm, flat_marking(D), caps)
    try:
        P = whisker_functor(top, bot, L.quotient, identity_functor(D))
    except KeyError:
        return "precomposition leaves marked functors"
    P.validate()  # no diagram checks P; a whiskering, it keeps composites
    if not is_fully_faithful(P):
        return "precomposition not fully faithful"
    if not is_essentially_surjective(P):
        return "precomposition not essentially surjective"
    return None


def test_present_flat():
    C = chain_cat(2)
    pres = present(flat_marking(C))
    # isos of a skeletal poset are identities, so no formal inverses appear
    assert {a.name for a in pres.arrows} == set(C.nonidentity())
    W = walking_iso()
    presw = present(flat_marking(W))
    assert inverse_name("u") in {a.name for a in presw.arrows}


def test_present_terminal_sharp_is_empty():
    pres = present(sharp_marking(terminal_cat()))
    assert not pres.arrows
    assert not pres.relations


def test_present_marked_arrow():
    A = walking_arrow()
    pres = present(marked(A, saturate_marking(A, ["a01"])))
    names = {a.name for a in pres.arrows}
    assert names == {"a01", inverse_name("a01")}
    inverse_laws = [r for r in pres.relations if r.rhs == ()]
    assert len(inverse_laws) == 2


def test_localize_flat_recovers_category():
    for s in range(25):
        C = gen_category(GenParams(seed=s))
        r = localize(flat_marking(C))
        assert r.ok, s
        assert is_equivalent(r.cat, C), s
        r.quotient.validate()


def test_localize_sharp_arrow_is_walking_iso():
    r = localize(sharp_marking(walking_arrow()))
    assert r.ok
    # normal forms {id0, id1, u, inv u}: four morphisms total
    assert r.cat.n_morphisms == 4
    assert all(is_iso(r.cat, m.name) for m in r.cat.morphisms)
    assert is_equivalent(r.cat, terminal_cat())


def test_localize_inverts_marked_morphisms():
    for s in range(15):
        p = GenParams(seed=s)
        C = gen_category(p)
        Cm = gen_marking(C, p)
        r = localize(Cm, Bounds(word_length=4, max_words=30_000))
        if not r.ok:
            continue
        for m in Cm.marked:
            assert is_iso(r.cat, r.quotient.morphism_map[m])


def test_localize_invariant_under_saturation():
    for s in range(10):
        p = GenParams(seed=s)
        C = gen_category(p)
        names = sorted(C.nonidentity())
        S = names[: len(names) // 2]
        b = Bounds(word_length=4, max_words=30_000)
        r1 = localize(marked(C, saturate_marking(C, S)), b)
        r2 = localize(marked(C, saturate_marking(C, saturate_marking(C, S))), b)
        assert r1.ok == r2.ok
        if r1.ok:
            assert is_equivalent(r1.cat, r2.cat)


def test_free_monoid_localization_hits_word_bound():
    pres = PresentedCat(
        objects=["x"],
        arrows=[Arrow("m", "x", "x"), Arrow(inverse_name("m"), "x", "x")],
        relations=[
            Relation("x", "x", ("m", inverse_name("m")), ()),
            Relation("x", "x", (inverse_name("m"), "m"), ()),
        ])
    r = localize_presentation(pres, Bounds(word_length=4))
    assert not r.ok
    assert r.status == "word-bound"
    assert r.bound["hom"] == ("x", "x") or r.bound["hom"] == ["x", "x"]


def test_check_localization_up_examples():
    # flat input: the quotient is identity-like, equivalence for every probe
    C = chain_cat(2)
    Cm = flat_marking(C)
    r = localize(Cm)
    assert check_localization_up(Cm, r, PROBES, CAPS).ok
    # sharp [1]: probes compare against the category of isomorphisms
    Am = sharp_marking(walking_arrow())
    ra = localize(Am)
    assert check_localization_up(Am, ra, PROBES, CAPS).ok


def test_check_localization_up_rejects_wrong_candidate():
    # wrong candidate: claim [1] itself (u never inverted) is the localization;
    # its quotient inverts no marked morphism, so it is outside the domain
    A = walking_arrow()
    Am = marked(A, saturate_marking(A, ["a01"]))
    good = localize(Am)
    from laxcat.localization import LocalizationResult
    wrong = LocalizationResult(status="ok", cat=A,
                               quotient=identity_functor(A))
    with pytest.raises(ValueError, match="does not invert marked a01"):
        check_localization_up(Am, wrong, {"arrow": walking_arrow()}, CAPS)
    assert _whole_category_up_failure(Am, wrong, walking_arrow(), None, CAPS) \
        == "precomposition leaves marked functors"
    # collapsing [1] onto the terminal category gives a candidate equivalent
    # to the true localization, as lim [1] marked is a point; the oracle
    # accepts it, and the extension check, whose quotients are the identity
    # on objects, refuses to decide it
    t = terminal_cat()
    collapse = Functor(A, t, {"0": "*", "1": "*"},
                       {"id_0": "id_*", "id_1": "id_*", "a01": "id_*"})
    ok_alt = LocalizationResult(status="ok", cat=t, quotient=collapse)
    with pytest.raises(ValueError, match="identity on objects"):
        check_localization_up(Am, ok_alt, {"arrow": walking_arrow()}, CAPS)
    assert _whole_category_up_failure(Am, ok_alt, walking_arrow(), None,
                                      CAPS) is None
    assert check_localization_up(Am, good, {"arrow": walking_arrow()}, CAPS).ok


def test_check_localization_up_detects_one_sided_inverse():
    # candidate with only a one-sided inverse relation imposed: u is not
    # inverted, so the extension check refuses it; the oracle, on a probe
    # shaped like the candidate itself, tells it from the true localization
    from laxcat.core import Mor, fincat
    from laxcat.localization import LocalizationResult
    A = walking_arrow()
    Am = marked(A, saturate_marking(A, ["a01"]))
    mors = [Mor("id_0", "0", "0"), Mor("id_1", "1", "1"),
            Mor("u", "0", "1"), Mor("w", "1", "0"), Mor("e", "1", "1")]
    comp = {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
            ("u", "id_0"): "u", ("id_1", "u"): "u",
            ("w", "id_1"): "w", ("id_0", "w"): "w",
            ("e", "id_1"): "e", ("id_1", "e"): "e",
            ("w", "u"): "id_0", ("u", "w"): "e",
            ("e", "u"): "u", ("w", "e"): "w", ("e", "e"): "e"}
    onesided = fincat(["0", "1"], mors, {"0": "id_0", "1": "id_1"}, comp)
    q = Functor(A, onesided, {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1", "a01": "u"})
    wrong = LocalizationResult(status="ok", cat=onesided, quotient=q)
    with pytest.raises(ValueError, match="does not invert marked a01"):
        check_localization_up(Am, wrong, {"own-shape": onesided}, CAPS)
    assert _whole_category_up_failure(Am, wrong, onesided, None, CAPS) \
        is not None
    good = localize(Am)
    assert check_localization_up(Am, good, {"own-shape": onesided}, CAPS).ok
    assert _whole_category_up_failure(Am, good, onesided, None, CAPS) is None


def _collapsed_parallel_pair():
    """parallel_pair with nothing marked, and a wrong candidate inside the
    extension check's domain: one arrow a -w-> b, with u, v |-> w."""
    from laxcat.core import Mor, fincat, parallel_pair
    from laxcat.localization import LocalizationResult
    P = parallel_pair()
    arrow = fincat(["a", "b"], [Mor("id_a", "a", "a"), Mor("id_b", "b", "b"),
                                Mor("w", "a", "b")],
                   {"a": "id_a", "b": "id_b"},
                   {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
                    ("w", "id_a"): "w", ("id_b", "w"): "w"})
    q = Functor(P, arrow, {"a": "a", "b": "b"},
                {"id_a": "id_a", "id_b": "id_b", "u": "w", "v": "w"})
    return flat_marking(P), LocalizationResult("ok", cat=arrow, quotient=q)


def test_check_localization_up_rejects_an_in_domain_wrong_candidate():
    from laxcat.checks import probe_suite
    from laxcat.constructions import marked_functor_homs

    Pm, wrong = _collapsed_parallel_pair()
    D = probe_suite()["parallel"]
    v = check_localization_up(Pm, wrong, {"parallel": D}, CAPS)
    assert not v.ok
    [(name, reason)] = v.failures
    assert name == "parallel"
    # the reason names the marked functor that does not extend, and the
    # morphism where its forced extension breaks
    functors = marked_functor_homs(Pm, flat_marking(D), CAPS).functors
    named = [gid for gid in functors if reason.startswith(gid + " ")]
    assert len(named) == 1
    G = functors[named[0]]
    assert G.mor("u") != G.mor("v")
    assert reason in (f"{named[0]} does not extend along the quotient at u",
                      f"{named[0]} does not extend along the quotient at v")
    assert _whole_category_up_failure(Pm, wrong, D, None, CAPS) \
        == "precomposition not essentially surjective"
    # the terminal probe cannot tell the candidate from the localization
    T = {"terminal": terminal_cat()}
    assert check_localization_up(Pm, wrong, T, CAPS).ok
    assert _whole_category_up_failure(Pm, wrong, terminal_cat(), None,
                                      CAPS) is None


def _generated_localizations(count):
    """The localized cocartesian and cartesian totals of the first ``count``
    probe-size instances, where the probe check's localization completes."""
    from dataclasses import replace

    from laxcat.checks import _gen_instance, theorem_defaults
    from laxcat.grothendieck import grothendieck_cart

    params, ctx = theorem_defaults("thm-lax-colim-probe")
    for s in range(count):
        F = _gen_instance(replace(params, seed=s))
        for build in (grothendieck_cocart, grothendieck_cart):
            total = build(F, ctx.caps).total
            r = localize(total, ctx.bounds)
            if r.ok:
                yield total, r


def test_extension_check_agrees_with_the_whole_category_decision():
    # both decide the same universal property; the oracle builds Fun(|L|, D)
    # whole, so at these caps it stops on some cases the extension decides
    from laxcat.checks import probe_suite

    caps = SizeCaps(max_objects=512, max_morphisms=512, max_candidates=10**6)
    localized = decided = only_oracle_capped = 0
    for total, r in _generated_localizations(100):
        localized += 1
        for name, D in probe_suite().items():
            shipped = check_localization_up(total, r, {name: D}, caps)
            try:
                oracle = _whole_category_up_failure(total, r, D, None, caps)
            except SizeBoundExceeded:
                assert shipped.ok, (localized, name)
                only_oracle_capped += 1
                continue
            assert shipped.ok == (oracle is None), (localized, name, oracle)
            decided += 1
    assert localized >= 190
    assert decided >= 1300
    assert only_oracle_capped >= 10


def test_lax_colimit_flat_returns_total_category():
    for s in range(10):
        p = GenParams(seed=s)
        F = gen_diagram(flat_marking(gen_category(p)), p)
        result, E = lax_colimit(F)
        assert result.ok
        assert is_equivalent(result.cat, E.total.cat)


def test_lax_colimit_terminal_fibers_over_sharp_arrow():
    F = constant_diagram(sharp_marking(walking_arrow()), terminal_cat())
    result, _ = lax_colimit(F)
    assert result.ok
    assert is_equivalent(result.cat, terminal_cat())


def test_lax_colimit_three_object_example():
    I = walking_arrow()
    Im = marked(I, saturate_marking(I, ["a01"]))
    F0 = discrete_cat(["x"])
    F1 = discrete_cat(["a", "b"])
    u = Functor(F0, F1, {"x": "a"}, {"id_x": "id_a"})
    F = CatDiagram(Im, {"0": F0, "1": F1},
                   {"a01": u, "id_0": identity_functor(F0),
                    "id_1": identity_functor(F1)})
    result, E = lax_colimit(F)
    assert result.ok
    # inverting the unique cocartesian lift collapses (0,x) onto (1,a)
    assert is_equivalent(result.cat, discrete_cat(["p", "q"]))
    assert check_localization_up(E.total, result, PROBES, CAPS).ok
    assert probe_check_colimit_theorem(F, PROBES, CAPS).ok


def test_oplax_colimit_flat_returns_total():
    for s in range(5):
        p = GenParams(seed=s)
        F = gen_diagram(flat_marking(gen_category(p)), p)
        result, E = oplax_colimit(F)
        assert result.ok
        assert is_equivalent(result.cat, E.total.cat)


def test_probe_check_constant_terminal_vs_functor_category():
    from laxcat.constructions import functor_category
    I = chain_cat(2)
    for Im in [flat_marking(I), sharp_marking(I)]:
        F = constant_diagram(Im, terminal_cat())
        assert probe_check_colimit_theorem(F, PROBES, CAPS).ok
        E = grothendieck_cocart(F)
        from laxcat.constructions import marked_functor_category
        side_a = marked_functor_category(E.total, flat_marking(walking_arrow()),
                                         CAPS)
        if Im.marked == flat_marking(I).marked:
            # flat case: mapping out of the colimit = Fun(I, D)
            assert is_equivalent(side_a.cat,
                                 functor_category(I, walking_arrow(), CAPS).cat)


def test_probe_check_terminal_probe_trivial():
    for s in range(5):
        p = GenParams(seed=s, max_objects=2, max_morphisms=5,
                      fiber_max_objects=2, fiber_max_morphisms=4)
        F = gen_diagram(gen_marking(gen_category(p), p), p)
        v = probe_check_colimit_theorem(F, {"terminal": terminal_cat()}, CAPS)
        assert v.ok


def test_triangle_consistency_probe_vs_completed_localization():
    # wherever the bounded localization completes, the probe equivalences
    # and the localized category tell one consistent story
    for s in range(6):
        p = GenParams(seed=s, max_objects=2, max_morphisms=5,
                      fiber_max_objects=2, fiber_max_morphisms=4)
        F = gen_diagram(gen_marking(gen_category(p), p), p)
        assert probe_check_colimit_theorem(F, PROBES, CAPS).ok
        result, E = lax_colimit(F, Bounds(word_length=4), CAPS)
        if result.ok:
            assert check_localization_up(E.total, result, PROBES, CAPS).ok


def test_check_localization_up_validates_the_precomposition(monkeypatch):
    # the forced extension is validated as a functor: with a wrong inverse
    # in the probe it is none, which is reported, never passed
    from laxcat.core import FinCat

    Cm = sharp_marking(walking_arrow())
    r = localize(Cm)
    z3 = localize_presentation(PresentedCat(
        ("x",), (Arrow("a", "x", "x"),),
        (Relation("x", "x", ("a", "a", "a"), ()),))).cat
    assert check_localization_up(Cm, r, {"z3": z3}, CAPS).ok
    real = FinCat.inverse
    corrupted = []

    def wrong(self, f):
        g = real(self, f)
        if self is z3 and g is not None and g != f:
            g = next(h for h in self.hom(self.tgt(f), self.src(f)) if h != g)
            corrupted.append((f, g))
        return g

    monkeypatch.setattr(FinCat, "inverse", wrong)
    v = check_localization_up(Cm, r, {"z3": z3}, CAPS)
    assert corrupted
    assert not v.ok
    [(name, reason)] = v.failures
    assert name == "z3" and "does not extend along the quotient" in reason


def test_check_localization_up_rejects_a_failed_localization():
    from laxcat.localization import LocalizationResult

    Cm = sharp_marking(walking_arrow())
    failed = LocalizationResult("word-bound")
    with pytest.raises(ValueError):
        check_localization_up(Cm, failed, PROBES, CAPS)


def test_localize_reports_an_uninverted_marked_morphism_as_a_bug(monkeypatch):
    from laxcat import localization
    from laxcat.errors import InvariantViolation

    monkeypatch.setattr(localization, "is_iso", lambda C, f: False)
    with pytest.raises(InvariantViolation, match="not inverted"):
        localize(sharp_marking(walking_arrow()))


def test_localize_widens_only_on_malformed_tables(monkeypatch):
    from laxcat import localization
    from laxcat.errors import MalformedTable, UnknownMorphism

    def malformed(*args, **kw):
        raise MalformedTable("inconsistent closure")

    monkeypatch.setattr(localization, "build_category", malformed)
    r = localize(sharp_marking(walking_arrow()), Bounds(word_length=2))
    assert r.status == "word-bound"

    def bug(*args, **kw):
        raise UnknownMorphism("a bug, not a window too narrow")

    monkeypatch.setattr(localization, "build_category", bug)
    with pytest.raises(UnknownMorphism):
        localize(sharp_marking(walking_arrow()), Bounds(word_length=2))


# -- the closure: seeded relations plus the one-letter extension worklist -----------


_Node = tuple[str, tuple[str, ...]]  # (source object, letters in diagram order)


def _tuple_paths(objects, out_of: dict[str, list[Arrow]], cap: int,
                 max_words: int) -> dict[_Node, str]:
    """Every path of at most ``cap`` arrows mapped to its target, breadth
    first from the empty path at each object (``out_of`` is the arrows by
    source, from ``_out_of``).  Raises SizeBoundExceeded as soon as there
    are more than ``max_words`` paths."""
    endpoints: dict[_Node, str] = {(x, ()): x for x in objects}
    frontier = list(endpoints.items())
    for _ in range(cap):
        nxt = []
        for (s, w), t in frontier:
            for a in out_of.get(t, ()):
                nd = (s, w + (a.name,))
                endpoints[nd] = a.tgt
                nxt.append((nd, a.tgt))
                if len(endpoints) > max_words:
                    raise SizeBoundExceeded("localization words", "word",
                                            len(endpoints), max_words)
        frontier = nxt
    return endpoints


class _TupleWords:
    """The closure as it was before it ran on node numbers, kept verbatim
    (with its ``_paths`` as ``_tuple_paths``) as the reference the shipped
    closure is compared with: the same seeds and worklist, on a dict of
    (source, letters) nodes.

    Generator words up to a length cap, keyed by source object, with a
    union-find congruence closed under the presentation relations.

    Call a word of length <= cap a node.  The partition is the least
    equivalence on nodes that joins the two sides of each relation and is
    closed under context (u ~ v gives x·u·y ~ x·v·y when both are nodes).
    Each relation whose sides are both nodes is seeded once (an occurrence
    in a longer word follows by context).  Then a worklist holds every
    nonempty node once; a node w = p·a = b·q taken from it is joined with
    rep(p)·a and with b·rep(q).  Each join is sound: p ~ rep(p) gives
    p·a ~ rep(p)·a by context, and rep(p)·a is a node, no longer than p·a
    and a path, since each class of a well-typed presentation
    (``PresentedCat`` checks it) has one source and one target.

    A node's representative changes only when a join absorbs its class,
    that is when the class's root loses to a shortlex-smaller root; the
    winning class keeps its representative.  So each join that absorbs a
    class puts back on the worklist every one-letter extension x·c and c·x
    (that is a node) of every member x of the absorbed class, unless it is
    already there.  Hence every node w = p·a = b·q is taken after the last
    change of rep(p) and of rep(q), and once the worklist is empty w ~
    rep(p)·a and w ~ b·rep(q) for the final representatives: the fixpoint
    is closed under one-letter extension on both sides (p ~ p' puts p·a and
    p'·a with rep(p)·a), hence under every context x·u·y in the window,
    every subword of a node being a node, and it is the least congruence.
    It terminates: a node is queued once at the start and then only by an
    absorption, of which there are fewer than nodes.  The least congruence
    is unique and representatives are shortlex-least, so the partition and
    every representative depend on neither the order of the worklist nor
    that of the joins: they are those of the closure by repeated full passes
    that this one replaced.  Member lists are kept for the classes of more
    than one node only.  When no seed joins two nodes the discrete
    partition is already that congruence, and no worklist is made.
    """

    def __init__(self, pres: PresentedCat, cap: int, max_words: int):
        self.pres = pres
        self.arrow_tgt = {a.name: a.tgt for a in pres.arrows}
        self.out_of = _out_of(pres.arrows)
        self.endpoints = _tuple_paths(pres.objects, self.out_of, cap, max_words)
        self.parent: dict[_Node, _Node] = {nd: nd for nd in self.endpoints}
        self.cap = cap
        self._close()

    def find(self, nd: _Node) -> _Node:
        p = self.parent
        while p[nd] != nd:
            p[nd] = p[p[nd]]
            nd = p[nd]
        return nd

    def union(self, a: _Node, b: _Node) -> _Node | None:
        """Join the classes of a and b; the root that lost, or None when
        they were one class already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        # shortlex-least representative wins
        if (len(rb[1]), rb[1], rb[0]) < (len(ra[1]), ra[1], ra[0]):
            ra, rb = rb, ra
        self.parent[rb] = ra
        return rb

    def _close(self) -> None:
        endpoints, parent, cap = self.endpoints, self.parent, self.cap
        members: dict[_Node, list[_Node]] = {}  # classes of 2 or more nodes

        def absorb(lost: _Node) -> list[_Node]:
            """Move the members of the class of root ``lost`` to the class
            that absorbed it, and return them."""
            moved = members.pop(lost, None) or [lost]
            members.setdefault(parent[lost], [parent[lost]]).extend(moved)
            return moved

        for r in self.pres.relations:
            lhs, rhs = (r.src, r.lhs), (r.src, r.rhs)
            if lhs in endpoints and rhs in endpoints:
                lost = self.union(lhs, rhs)
                if lost is not None:
                    absorb(lost)
        if not members:
            return
        out_of, into = self.out_of, {}
        for a in self.pres.arrows:
            into.setdefault(a.tgt, []).append(a)
        queue = deque(nd for nd in endpoints if nd[1])
        queued = set(queue)

        def requeue(moved: list[_Node]) -> None:
            """Queue the one-letter extensions of nodes whose rep changed."""
            for s, x in moved:
                if len(x) == cap:
                    continue
                for c in out_of.get(endpoints[s, x], ()):
                    ext = (s, x + (c.name,))
                    if ext not in queued:
                        queued.add(ext)
                        queue.append(ext)
                for c in into.get(s, ()):
                    ext = (c.src, (c.name,) + x)
                    if ext not in queued:
                        queued.add(ext)
                        queue.append(ext)

        arrow_tgt = self.arrow_tgt
        while queue:
            nd = queue.popleft()
            queued.remove(nd)
            s, w = nd
            rp = self.find((s, w[:-1]))[1]
            rq = self.find((arrow_tgt[w[0]], w[1:]))[1]
            for nd2 in ((s, rp + w[-1:]), (s, w[:1] + rq)):
                if nd2 != nd:
                    lost = self.union(nd, nd2)
                    if lost is not None:
                        requeue(absorb(lost))

    def classes(self, max_len: int) -> dict[_Node, list[_Node]]:
        """Representative node -> all nodes of length <= max_len in the class."""
        out: dict[_Node, list[_Node]] = {}
        for nd in self.endpoints:
            if len(nd[1]) <= max_len:
                out.setdefault(self.find(nd), []).append(nd)
        return out


def _words(pres: PresentedCat, cap: int, max_words: int) -> _Words:
    """The shipped closure on a fresh window of ``cap``."""
    return _Words(pres, _paths(pres.objects, _out_of(pres.arrows), cap, max_words))


class _PassWords(_TupleWords):
    """The seeded closure with the pass loop the worklist replaced: full
    passes over the nodes w = p·a = b·q, joining w with rep(p)·a and with
    b·rep(q), until a pass joins nothing.  ``passes`` counts the passes.
    Kept as a third reference."""

    def _close(self):
        for r in self.pres.relations:
            lhs, rhs = (r.src, r.lhs), (r.src, r.rhs)
            if lhs in self.endpoints and rhs in self.endpoints:
                self.union(lhs, rhs)
        self.passes = 0
        changed = True
        while changed:
            changed = False
            self.passes += 1
            for nd in self.endpoints:
                s, w = nd
                if w:
                    rp = self.find((s, w[:-1]))[1]
                    rq = self.find((self.arrow_tgt[w[0]], w[1:]))[1]
                    for nd2 in ((s, rp + w[-1:]), (s, w[:1] + rq)):
                        if nd2 != nd:
                            changed |= bool(self.union(nd, nd2))


class _SubwordWords(_TupleWords):
    """The seeded closure with the pass it had before the one-letter pass:
    each subword of each node is replaced by the representative of its
    class, until nothing changes.  Kept as a second reference."""

    def _close(self):
        for r in self.pres.relations:
            lhs, rhs = (r.src, r.lhs), (r.src, r.rhs)
            if lhs in self.endpoints and rhs in self.endpoints:
                self.union(lhs, rhs)
        changed = True
        while changed:
            changed = False
            for nd in list(self.endpoints):
                s, w = nd
                obj = s
                for i in range(len(w)):
                    o = obj
                    for j in range(i + 1, len(w) + 1):
                        rw = self.find((o, w[i:j]))[1]
                        if rw != w[i:j]:
                            nd2 = (s, w[:i] + rw + w[j:])
                            if nd2 in self.endpoints and self.union(nd, nd2):
                                changed = True
                    obj = self.arrow_tgt[w[i]]


class _RewritingWords(_TupleWords):
    """The closure as it was before relations were seeded: every relation is
    matched in both directions at every position of every word (an empty
    side anchored at the relation's object), beside the subword pass.  Kept
    as an independent reference for the shipped closure."""

    def _object_at(self, nd, i):
        s, w = nd
        for letter in w[:i]:
            s = self.arrow_tgt[letter]
        return s

    def _close(self):
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
                        if ln == 0 and self._object_at(nd, i) != at_obj:
                            continue
                        nd2 = (s, w[:i] + rhs + w[i + ln:])
                        if nd2 in self.endpoints and self.union(nd, nd2):
                            changed = True
                obj = s
                for i in range(len(w)):
                    o = obj
                    for j in range(i + 1, len(w) + 1):
                        rw = self.find((o, w[i:j]))[1]
                        if rw != w[i:j]:
                            nd2 = (s, w[:i] + rw + w[j:])
                            if nd2 in self.endpoints and self.union(nd, nd2):
                                changed = True
                    obj = self.arrow_tgt[w[i]]


def _random_presentation(seed: int) -> PresentedCat:
    """A seeded well-typed presentation: both sides of a relation are random
    walks between the same objects, and either side may be empty."""
    rng = random.Random(seed)
    objects = [f"x{i}" for i in range(rng.randint(1, 3))]
    arrows = [Arrow(f"g{k}", rng.choice(objects), rng.choice(objects))
              for k in range(rng.randint(1, 4))]
    out = {x: [a for a in arrows if a.src == x] for x in objects}

    def walk(start, steps):
        path, at = [], start
        for _ in range(steps):
            if not out[at]:
                break
            a = rng.choice(out[at])
            path.append(a.name)
            at = a.tgt
        return tuple(path), at

    relations = []
    for _ in range(rng.randint(1, 4)):
        start = rng.choice(objects)
        lhs, end = walk(start, rng.randint(0, 3))
        # a right side: a walk to the same end, or the identity at a loop
        for _ in range(20):
            rhs, at = walk(start, rng.randint(0, 3))
            if at == end and rhs != lhs:
                relations.append(Relation(start, end, lhs, rhs))
                break
    return PresentedCat(tuple(objects), tuple(arrows), tuple(relations))


def _differential_presentations():
    for s in range(12):
        p = GenParams(seed=s, max_objects=3, max_morphisms=8)
        C = gen_category(p)
        yield f"marked{s}", present(gen_marking(C, p))
        yield f"sharp{s}", present(sharp_marking(C))
    # in seeds 577, 1017 and 2692 a join made for a node changes the
    # representative of that node's own prefix or suffix, so the node must
    # be taken again, also when the sweep is at it
    for s in (*range(60), 577, 1017, 2692):
        yield f"random{s}", _random_presentation(s)
    # an arrow id may be the empty string, and a word's first letter with it
    yield "empty-id", PresentedCat(
        ("x",), (Arrow("", "x", "x"), Arrow("a", "x", "x")),
        (Relation("x", "x", ("a", "a"), ("a",)),))


def _localize_stream_total(seed: int) -> PresentedCat:
    """The presentation the localize benchmark's lax colimit of stream
    ``seed`` closes: the marked cocartesian total of its default diagram."""
    p = GenParams(seed=seed)
    F = gen_diagram(gen_marking(gen_category(p), p), p)
    return present(grothendieck_cocart(F).total)


def _all_words(window) -> list:
    """Every word of a shipped window, in number order."""
    return window.words(len(window.tgts))


def _partition(words) -> dict:
    # a reference closure keeps its paths in its own endpoints dict
    nodes = _all_words(words.window) if isinstance(words, _Words) else words.endpoints
    return {nd: words.find(nd) for nd in nodes}


def test_seeded_closure_matches_the_rewriting_closure():
    compared = 0
    for label, pres in _differential_presentations():
        for cap in range(2, 7):
            try:
                shipped = _partition(_words(pres, cap, 4000))
            except SizeBoundExceeded:
                break
            for reference in (_TupleWords, _PassWords, _SubwordWords, _RewritingWords):
                assert shipped == _partition(reference(pres, cap, 4000)), \
                    (label, cap, reference.__name__)
            compared += 1
    assert compared >= 300
    # a window of the localize benchmark, against the faster references alone;
    # the pass loop needs a third pass there, so some join comes late enough
    # that the worklist must take a node again after its first look
    pres = _localize_stream_total(12)
    shipped = _partition(_words(pres, 6, 10_000))
    assert len(shipped) == 9168
    assert shipped == _partition(_TupleWords(pres, 6, 10_000))
    passes = _PassWords(pres, 6, 10_000)
    assert passes.passes >= 3
    assert shipped == _partition(passes)
    assert shipped == _partition(_SubwordWords(pres, 6, 10_000))


def test_closure_does_not_depend_on_the_order_of_the_relations():
    # the worklist's order follows the arrow order (through the word
    # enumeration and the extension lists), the partition must not
    for label, pres in _differential_presentations():
        rng = random.Random(label)
        arrows, relations = list(pres.arrows), list(pres.relations)
        rng.shuffle(arrows)
        rng.shuffle(relations)
        shuffled = PresentedCat(pres.objects, tuple(arrows), tuple(relations))
        for cap in range(2, 7):
            try:
                words = _words(pres, cap, 4000)
            except SizeBoundExceeded:
                break
            assert _partition(words) == _partition(_words(shuffled, cap, 4000)), \
                (label, cap)


def test_member_lists_are_the_classes_of_two_or_more_words():
    # the requeue reads a class's members off its root, so after every
    # closure, fresh or widened, the member lists are exactly the classes
    # of two or more words, each under its root
    for label, pres in _differential_presentations():
        grown = _words(pres, 1, 4000)
        for cap in range(2, 7):
            try:
                fresh = _words(pres, cap, 4000)
            except SizeBoundExceeded:
                break
            grown.widen(cap, 4000)
            for words in (fresh, grown):
                classes: dict[int, list[int]] = {}
                for i in range(len(words.window.tgts)):
                    classes.setdefault(words._find(i), []).append(i)
                assert {r: sorted(ms) for r, ms in words.members.items()} == \
                    {r: ms for r, ms in classes.items() if len(ms) > 1}, (label, cap)


def test_closure_takes_a_bounded_number_of_words():
    # the sweep takes each nonempty word of this window once, and the
    # worklist takes about 5% of them again (9,640 takes for 9,168 words);
    # one more full pass over the window would exceed 1.5 takes per word
    pres = _localize_stream_total(12)
    words = _words(pres, 6, 10_000)
    n = len(_all_words(words.window))
    assert n - len(pres.objects) < words.taken <= 1.5 * n
    # a widened window counts the takes of every closure
    grown = _words(pres, 4, 10_000)
    before = grown.taken
    grown.widen(6, 10_000)
    assert n - grown.window.level[5] <= grown.taken - before <= 1.5 * n


def test_endpoints_keep_the_order_of_the_paths():
    # the order of the window's paths fixes that of classes, so the
    # quotient's hom order and the hom a word bound reports; it is
    # _tuple_paths' order, paths and their targets, for a fresh window and
    # for one widened a length at a time
    for label, pres in _differential_presentations():
        out_of = _out_of(pres.arrows)
        grown = _Words(pres, _paths(pres.objects, out_of, 0, 4000))
        for cap in range(1, 7):
            try:
                expected = _tuple_paths(pres.objects, out_of, cap, 4000)
            except SizeBoundExceeded:
                break
            grown.widen(cap, 4000)
            for words in (_words(pres, cap, 4000), grown):
                window = words.window
                endpoints = dict(zip(_all_words(window), window.tgts))
                assert list(endpoints.items()) == list(expected.items()), \
                    (label, cap)
                assert _all_words(words.window) == list(expected), (label, cap)


def test_words_are_built_on_request_as_the_paths():
    # word(i), words(n) and index agree with _tuple_paths' order on a fresh
    # window and on one widened a length at a time
    checked = 0
    for label, pres in _differential_presentations():
        out_of = _out_of(pres.arrows)
        grown = _paths(pres.objects, out_of, 0, 4000)
        for cap in range(0, 7):
            try:
                expected = list(_tuple_paths(pres.objects, out_of, cap, 4000))
            except SizeBoundExceeded:
                break
            grown.widen(cap, 4000)
            for window in (_paths(pres.objects, out_of, cap, 4000), grown):
                assert len(window.tgts) == len(expected), (label, cap)
                assert [window.word(i) for i in range(len(expected))] == expected, \
                    (label, cap)
                for n in {*window.level, len(expected) // 2, len(expected)}:
                    assert window.words(n) == expected[:n], (label, cap, n)
                assert [window.index(nd) for nd in expected] == \
                    list(range(len(expected))), (label, cap)
                checked += 1
    assert checked >= 400


def test_index_rejects_what_is_no_path_of_the_window():
    # a: x -> y, b: y -> x, c: x -> x; the window of cap 2
    pres = PresentedCat(("x", "y"), (Arrow("a", "x", "y"), Arrow("b", "y", "x"),
                                     Arrow("c", "x", "x")), ())
    window = _paths(pres.objects, _out_of(pres.arrows), 2, 4000)
    assert window.index(("x", ("a", "b"))) == window.walk(0, ("a", "b"))
    # c leaves from x, not from y where a ends: an unchecked walk lands on
    # some other word of the window
    assert window.walk(0, ("a", "c")) < len(window.tgts)
    assert window.word(window.walk(0, ("a", "c"))) != ("x", ("a", "c"))
    for nd in (("x", ("a", "c")),  # a letter that leaves from another object
               ("x", ("zz",)),  # an unknown letter
               ("x", ("c", "c", "c")),  # longer than the cap
               ("z", ())):  # an unknown source
        with pytest.raises(KeyError):
            window.index(nd)


def test_widened_window_closes_to_the_fresh_closure():
    # a window grown in place keeps its joins and closes to the partition
    # of a window enumerated and closed at the larger cap
    widened = 0
    for label, pres in _differential_presentations():
        grown = _words(pres, 1, 4000)
        for cap in range(2, 7):
            try:
                fresh = _partition(_TupleWords(pres, cap, 4000))
            except SizeBoundExceeded:
                break
            grown.widen(cap, 4000)
            assert _partition(grown) == fresh, (label, cap)
            widened += 1
    assert widened >= 300
    # relations met only at cap 3 join the old classes of a and b, so the
    # old words b·a, b·b, b·c, a·b, c·b change representative and must be
    # taken again, though none is new to the window
    abc = PresentedCat(("x",), tuple(Arrow(n, "x", "x") for n in "abc"), (
        Relation("x", "x", ("c", "c", "c"), ("a",)),
        Relation("x", "x", ("c", "c", "c"), ("b",))))
    grown = _words(abc, 2, 4000)
    grown.widen(3, 4000)
    assert grown.find(("x", ("b", "c"))) == ("x", ("a", "c"))
    assert _partition(grown) == _partition(_TupleWords(abc, 3, 4000))
    # the localize ladder's windows 2, 4, 6 on the benchmark's stream 12
    pres = _localize_stream_total(12)
    grown = _words(pres, 2, 10_000)
    for cap in (4, 6):
        grown.widen(cap, 10_000)
        assert _partition(grown) == _partition(_TupleWords(pres, cap, 10_000)), cap


def test_word_count_bound_is_recorded_as_before():
    # the max_words record of a fresh or a widened window is that of the
    # path enumeration one word at a time, including a window whose objects
    # alone outnumber max_words
    for label, pres in _differential_presentations():
        out_of = _out_of(pres.arrows)
        for max_words in range(1, 40, 3):
            for cap in range(0, 7):
                try:
                    _tuple_paths(pres.objects, out_of, cap, max_words)
                    expected = None
                except SizeBoundExceeded as e:
                    expected = (e.count, e.cap)
                for start in (0, cap // 2):
                    try:
                        window = _paths(pres.objects, out_of, start, max_words)
                        window.widen(cap, max_words)
                        got = None
                    except SizeBoundExceeded as e:
                        got = (e.count, e.cap)
                    assert got == expected, (label, max_words, cap, start)
                if expected is not None:
                    break


def _all_pairs_composites(words, cls, L: int):
    """_composites as it was before one find per pair of classes: the
    composite classes of every pair of members whose composite is in the
    window.  Kept as the reference for the one-find version."""
    endpoints = dict(zip(_all_words(words.window), words.window.tgts))
    comp = {}
    for r1, ws1 in cls.items():
        for r2, ws2 in cls.items():
            if r2[0] != endpoints[r1]:
                continue
            targets = {words.find((n1[0], n1[1] + n2[1]))
                       for n1 in ws1 for n2 in ws2
                       if len(n1[1]) + len(n2[1]) <= 2 * L}
            # a single class outside cls is popped, so it counts as 0
            tgt = targets.pop() if len(targets) == 1 else None
            if tgt not in cls:
                return None, ((r1[0], endpoints[r2]), len(targets))
            comp[(r2, r1)] = tgt
    return comp, None


def test_one_find_composites_match_the_all_pairs_composites():
    outcomes = set()
    presentations = list(_differential_presentations())
    presentations += [(f"stream{s}", _localize_stream_total(s)) for s in (4, 12)]
    for label, pres in presentations:
        for L in range(1, 5):
            try:
                words = _words(pres, 2 * L, 20_000)
            except SizeBoundExceeded:
                break
            cls = words.classes(L)
            shipped = _composites(words, cls)
            assert shipped == _all_pairs_composites(words, cls, L), (label, L)
            outcomes.add(shipped[0] is None)
            if shipped[1] is not None:
                assert shipped[1][1] == 0, (label, L)
    assert outcomes == {True, False}


def test_cyclic_group_of_order_three():
    pres = PresentedCat(("x",), (Arrow("a", "x", "x"),),
                        (Relation("x", "x", ("a", "a", "a"), ()),))
    r = localize_presentation(pres)
    assert r.ok
    assert r.cat.n_morphisms == 3


def test_klein_four_group():
    a, b = Arrow("a", "x", "x"), Arrow("b", "x", "x")
    pres = PresentedCat(("x",), (a, b), (
        Relation("x", "x", ("a", "a"), ()),
        Relation("x", "x", ("b", "b"), ()),
        Relation("x", "x", ("a", "b"), ("b", "a"))))
    r = localize_presentation(pres)
    assert r.ok
    assert r.cat.n_morphisms == 4
    assert all(r.cat.compose(m, m) == "id_x" for m in r.cat.hom("x", "x"))


BAD_PRESENTATIONS = {
    "duplicate object": (("x", "x"), (), ()),
    "duplicate arrow": (("x",), (Arrow("a", "x", "x"), Arrow("a", "x", "x")), ()),
    "arrow off the objects": (("x",), (Arrow("a", "x", "y"),), ()),
    "unknown arrow": (("x",), (Arrow("a", "x", "x"),),
                      (Relation("x", "x", ("a", "zz"), ()),)),
    "side not a path": (("x", "y"), (Arrow("a", "x", "y"),),
                        (Relation("x", "y", ("a", "a"), ("a",)),)),
    "side ends elsewhere": (("x", "y"), (Arrow("a", "x", "y"), Arrow("b", "x", "x")),
                            (Relation("x", "y", ("a",), ("b",)),)),
    "empty side between two objects": (("x", "y"), (Arrow("a", "x", "y"),),
                                       (Relation("x", "y", ("a",), ()),)),
    "relation off the objects": (("x",), (), (Relation("z", "z", (), ()),)),
}


@pytest.mark.parametrize("case", sorted(BAD_PRESENTATIONS))
def test_presentation_checks_itself_when_made(case):
    with pytest.raises(MalformedTable):
        PresentedCat(*BAD_PRESENTATIONS[case])


def test_presented_category_is_frozen():
    pres = present(sharp_marking(walking_arrow()))
    with pytest.raises(FrozenInstanceError):
        pres.relations = ()


def test_word_bound_of_zero_reports_no_hom():
    r = localize(sharp_marking(walking_arrow()), Bounds(word_length=0))
    assert r.status == "word-bound"
    assert r.bound == {"which": "word_length", "cap": 0}
