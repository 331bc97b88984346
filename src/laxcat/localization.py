"""Localization at a marked class via bounded congruence closure on words.

The word problem is solved by breadth-first enumeration of generator words
with congruence closure inside an explicit length window, not by Knuth-Bendix
completion: bound hits terminate with a witness frontier instead of silently
truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    _product_functor,
    build_category,
    flat_marking,
    identity_functor,
    is_iso,
    opposite,
    opposite_cat,
    pair_id,
    product,
    short_id,
)
from .constructions import (
    DEFAULT_CAPS,
    FunHoms,
    SizeCaps,
    SliceCat,
    coslice_cat,
    marked_functor_homs,
    slice_transition,
    twisted_arrow,
)
from .diagrams import CatDiagram, fiberwise_op
from .errors import InvariantViolation, MalformedTable, SizeBoundExceeded
from .grothendieck import grothendieck_cart, grothendieck_cocart, total_mor_id
from .limits import (FamilyPlan, LimitReader, _family_obj_id, _Whiskering,
                     end_reader, limit_hom)


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


@dataclass(frozen=True)
class PresentedCat:
    """A category presented by arrows and relations between paths.  It checks
    itself when made, raising ``MalformedTable``: objects and arrow ids are
    distinct, arrows end at objects, and each side of a relation is a path of
    known arrows from ``src`` to ``tgt`` (an empty side needs src == tgt)."""

    objects: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        objects = set(self.objects)
        ends = {a.name: (a.src, a.tgt) for a in self.arrows}
        if (len(objects) != len(self.objects) or len(ends) != len(self.arrows)
                or not objects.issuperset(x for st in ends.values() for x in st)):
            raise MalformedTable("presentation: duplicate objects or arrow ids, "
                                 "or an arrow that does not end at objects")
        for r in self.relations:
            for side in (r.lhs, r.rhs):
                at = r.src if r.src in objects else None
                for letter in side:
                    s, t = ends.get(letter, (None, None))
                    at = t if at is not None and s == at else None
                if at is None or at != r.tgt:
                    raise MalformedTable(
                        f"presentation: relation side {list(side)} is not a "
                        f"path of known arrows from {r.src!r} to {r.tgt!r}")


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


def _out_of(arrows) -> dict[str, list[Arrow]]:
    """The arrows by source, each list in the arrows' order."""
    out: dict[str, list[Arrow]] = {}
    for a in arrows:
        out.setdefault(a.src, []).append(a)
    return out


class _Window:
    """Every path of at most ``cap`` arrows, numbered breadth first from the
    empty path at each object (``out_of`` is the arrows by source, from
    ``_out_of``, and its order fixes the numbering): path number i has
    target ``tgts[i]``, length ``lens[i]`` and first letter ``heads[i]``
    (None for an empty path).  The empty path at the j-th object is number
    j, and ``level[k]`` is the number of paths shorter than k, for k up to
    cap + 1.  ``widen`` appends the longer paths, so a window is a prefix
    of every wider window of the same arrows.  The window keeps these
    arrays only: a path's ``(source, letters)`` is built when it is asked
    for, by ``word`` for one path and by ``words`` for the first n.

    The numbering is arithmetic on both sides.  The one-letter extensions
    p·a of a path p shorter than the cap are contiguous, numbers
    ``first_child[p]`` up to ``first_child[p + 1]``, in ``out_of`` order:
    p·a is ``first_child[p] + pos[a]``, ``pos[a]`` the place of a among the
    arrows out of its source, and ``pre[p·a]`` is p.  Within a length, the
    paths are grouped by source in object order and each group is
    lexicographic in the places of its letters, so the paths of length k + 1
    that begin with c are those of length k out of the target of c, in the
    same order: c·x is x plus a shift that depends on c and on the length
    of x only (``left_shifts``).  So every one-letter extension of a path
    has a higher number than the path, and the paths in number order are
    the empty paths and then the extensions of each path in turn.  This is
    why the closure (``_Words``) links a fresh path p·a under the root of
    rep(p)·a with no tie-break and no requeue: that root is shortlex-
    smaller, and the only path whose representative changes is p·a, the
    sweep's own, whose extensions are numbered above it."""

    __slots__ = ("objects", "out_of", "pos", "root", "tgts", "pre",
                 "lens", "heads", "first_child", "level", "cap")

    def __init__(self, objects, out_of: dict[str, list[Arrow]]):
        self.objects = tuple(objects)
        self.out_of = out_of
        self.pos = {a.name: k for arrows in out_of.values()
                    for k, a in enumerate(arrows)}
        self.root = {x: j for j, x in enumerate(self.objects)}
        self.tgts: list[str] = list(self.objects)
        self.pre: list[int] = [-1] * len(self.objects)
        self.lens: list[int] = [0] * len(self.objects)
        self.heads: list[str | None] = [None] * len(self.objects)
        self.first_child = [len(self.objects)]  # one past the last, as well
        self.level = [0, len(self.objects)]
        self.cap = 0

    def widen(self, cap: int, max_words: int) -> None:
        """Append the paths of lengths up to ``cap``, breadth first.  Raises
        SizeBoundExceeded once there are more than ``max_words`` paths,
        with the count an enumeration one path at a time stops at (the
        check is made after each path's extensions); the window is then
        left half made."""
        tgts, pre, heads = self.tgts, self.pre, self.heads
        first_child, level, out_of = self.first_child, self.level, self.out_of
        # the path that crosses the bound is the (max_words + 1)-th, or the
        # first appended when the objects alone outnumber max_words
        limit = max(len(tgts), max_words)
        first_child.pop()
        for k in range(self.cap, cap):
            for i in range(level[-2], level[-1]):
                first_child.append(len(tgts))
                arrows = out_of.get(tgts[i])
                if arrows:
                    head = heads[i]
                    for a in arrows:
                        tgts.append(a.tgt)
                        pre.append(i)
                        heads.append(a.name if head is None else head)
                    if len(tgts) > limit:
                        raise SizeBoundExceeded("localization words", "word",
                                                limit + 1, max_words)
            level.append(len(tgts))
            self.lens.extend([k + 1] * (level[-1] - level[-2]))
        first_child.append(len(tgts))
        self.cap = max(self.cap, cap)

    def word(self, i: int) -> _Node:
        """Path number i as ``(source, letters)``."""
        pre, first_child, tgts, out_of = (self.pre, self.first_child,
                                          self.tgts, self.out_of)
        letters = []
        while pre[i] >= 0:
            p = pre[i]
            letters.append(out_of[tgts[p]][i - first_child[p]].name)
            i = p
        return self.objects[i], tuple(reversed(letters))

    def words(self, n: int) -> list[_Node]:
        """The paths numbered below n, as ``(source, letters)``, in order:
        the empty paths, then the extensions of each path in turn."""
        out: list[_Node] = [(x, ()) for x in self.objects]
        append, tgts, out_of, p = out.append, self.tgts, self.out_of, 0
        while len(out) < n:
            arrows = out_of.get(tgts[p])
            if arrows:
                s, w = out[p]
                for a in arrows:
                    append((s, w + (a.name,)))
            p += 1
        del out[n:]
        return out

    def walk(self, i: int, letters: tuple[str, ...]) -> int:
        """The number of path i followed by ``letters``, which must continue
        it to a path of the window."""
        first_child, pos = self.first_child, self.pos
        for a in letters:
            i = first_child[i] + pos[a]
        return i

    def index(self, nd: _Node) -> int:
        """The number of path ``nd``; KeyError when it is no path of the
        window: an unknown source or letter, a letter that does not leave
        from the target of the letters before it, or more letters than the
        cap."""
        s, letters = nd
        if len(letters) <= self.cap and s in self.root:
            first_child, pos, tgts, out_of = (self.first_child, self.pos,
                                              self.tgts, self.out_of)
            i = self.root[s]
            for a in letters:
                # a leaves from the walk's object, where its place holds it
                # (arrow ids are distinct)
                k = pos.get(a)
                arrows = out_of.get(tgts[i], ())
                if k is None or k >= len(arrows) or arrows[k].name != a:
                    break
                i = first_child[i] + k
            else:
                return i
        raise KeyError(nd)

    def left_shifts(self) -> list[dict[str, int]]:
        """``shift[k][c]`` for each k such that some path of the window is
        k + 1 long: c·x is x + shift[k][c] for every path x of length k out
        of the target of c.  It is the first number of the paths of length
        k + 1 out of the source of c that begin with c, less the first
        number of those of length k out of its target."""
        objects, out_of, level = self.objects, self.out_of, self.level
        count = dict.fromkeys(objects, 1)  # paths of the current length
        start = self.root  # the first number of those out of each object
        shifts = []
        for k in range(self.cap):
            if level[k + 1] == level[k + 2]:
                break  # no path of length k + 1, nor longer, so no c·x
            shift: dict[str, int] = {}
            nxt_count, nxt_start, at = {}, {}, level[k + 1]
            for x in objects:
                nxt_start[x] = at
                for a in out_of.get(x, ()):
                    shift[a.name] = at - start[a.tgt]
                    at += count[a.tgt]
                nxt_count[x] = at - nxt_start[x]
            shifts.append(shift)
            count, start = nxt_count, nxt_start
        return shifts


def _paths(objects, out_of: dict[str, list[Arrow]], cap: int,
           max_words: int) -> _Window:
    """The window of every path of at most ``cap`` arrows (``_Window``).
    Raises SizeBoundExceeded as soon as there are more than ``max_words``
    paths."""
    window = _Window(objects, out_of)
    window.widen(cap, max_words)
    return window


class _Words:
    """Generator words up to a length cap, numbered in a ``_Window``, with a
    union-find congruence on the numbers closed under the presentation
    relations.

    Call a word of length <= cap a node.  The partition is the least
    equivalence on nodes that joins the two sides of each relation and is
    closed under context (u ~ v gives x·u·y ~ x·v·y when both are nodes).
    Each relation whose sides are both nodes is seeded once (an occurrence
    in a longer word follows by context).  Then every nonempty node is
    taken once by a sweep in number order, and after it every node on a
    worklist of requeued nodes; a node w = p·a = b·q that is taken is
    joined with rep(p)·a and with b·rep(q).  Each join is sound: p ~ rep(p)
    gives p·a ~ rep(p)·a by context, and rep(p)·a is a node, no longer than
    p·a and a path, since each class of a well-typed presentation
    (``PresentedCat`` checks it) has one source and one target.  Every join,
    seeded or not, puts the two roots under the shortlex-least of them.

    A node's representative changes only when a join absorbs its class,
    that is when the class's root loses to a shortlex-smaller root; the
    winning class keeps its representative.  When a join absorbs a class
    while the sweep is at node i (before the sweep, i is the last number it
    skips, and after it the last node), each member x of the absorbed class
    puts on the worklist every one-letter extension x·c and c·x (that is a
    node) numbered i or less, unless it is already there.  An extension
    numbered above i needs no requeue: the sweep has not taken it yet and
    takes it later, after this change.  So a member x numbered i or above
    requeues nothing, as its extensions are longer than x and numbered
    above it (``_Window``).  Node i itself is requeued when it is
    an extension of x, since its joins read the representatives from
    before the change.  Hence every node w = p·a = b·q is taken after the
    last change of rep(p) and of rep(q), by the sweep or from the
    worklist, and once the worklist is empty w ~ rep(p)·a and w ~ b·rep(q)
    for the final representatives: the fixpoint is closed under one-letter
    extension on both sides (p ~ p' puts p·a and p'·a with rep(p)·a), hence
    under every context x·u·y in the window, every subword of a node being
    a node, and it is the least congruence.  It terminates: the sweep takes
    each node once, and a node is queued only by an absorption, of which
    there are fewer than nodes.  The least congruence is unique and
    representatives are shortlex-least, so the partition and every
    representative depend on neither the order in which nodes are taken
    nor that of the joins: they are those of the worklist of every node
    and of the closure by repeated full passes that this one replaced.
    Member lists are kept for the classes of more than one node only.
    With no seed and no class of two nodes the discrete partition is
    already that congruence, and nothing is swept.  ``taken`` counts the
    nodes taken, by the sweep and from the worklist, over every closure.

    A fresh node needs no tie-break.  Say the sweep's node i = p·a is still
    a class of its own (a root with no members) and p is not its own
    representative.  Then i goes straight under the root of rep(p)·a, the
    join of the two that the loop would make anyway, and it is then joined
    with b·rep(q) as any node.  No words are compared: rep(p) has p's
    source (one source per class) and is shortlex-smaller than p, so
    rep(p)·a is shortlex-smaller than p·a, and the root of its class, the
    shortlex-least node there, is smaller still.  Nothing is requeued: the
    join absorbs the class {i} alone, and i, the sweep's node, is no
    member numbered below it.

    The closure runs on node numbers (``_Window``): ``parent`` is a list,
    and for w = p·a = b·q, p is ``pre[w]``, b is ``heads[w]``, rep(p)·a is
    ``first_child[rep(p)] + w - first_child[p]`` (a is at the same place
    among the arrows out of the common target), q is w less b's left shift
    at the length of q, and b·rep(q) is rep(q) plus b's left shift at the
    length of rep(q).  So no word is built or hashed on the way.  The loop
    finds roots inline, halving paths, and compares two roots by length,
    then by first letter, and builds their words (``_Window.word``) only
    when both agree.
    ``find`` speaks of nodes as (source, letters) pairs, built on request,
    and ``representatives`` maps each class's root, its number, to its
    representative's pair, in the window's order of the classes' first nodes.

    ``widen`` grows the window in place to a larger cap and closes it again.
    The partition so far stays: its joins are sound in the larger window.
    Only the relations new to the window are seeded; the sweep takes the
    new nodes, and the extensions of every member of a class that a join,
    seeded or not, absorbs are requeued as above.  That reaches the same
    fixpoint: an old node met its conditions when the smaller window
    closed, and keeps them until a representative of its prefix or suffix
    changes, which requeues it, as an old node is numbered below every new
    one.  As before, nothing is swept while the partition is discrete and
    no relation is new to the window.
    """

    __slots__ = ("pres", "window", "parent", "members", "taken")

    def __init__(self, pres: PresentedCat, window: _Window):
        """The closed congruence on ``window``, which must be the window of
        ``pres``' objects and arrows (``_paths(pres.objects,
        _out_of(pres.arrows), cap, max_words)``)."""
        self.pres = pres
        self.window = window
        self.parent = list(range(len(window.tgts)))
        self.members: dict[int, list[int]] = {}  # classes of 2 or more nodes
        self.taken = 0
        self._close(-1, 0)

    def widen(self, cap: int, max_words: int) -> None:
        """Grow the window to ``cap`` and close the congruence on it.  Raises
        SizeBoundExceeded as ``_paths`` does, after which the words are
        half made and not to be read."""
        window = self.window
        old, n = window.cap, len(window.tgts)
        window.widen(cap, max_words)
        self.parent.extend(range(n, len(window.tgts)))
        self._close(old, n)

    def _find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def find(self, nd: _Node) -> _Node:
        window = self.window
        return window.word(self._find(window.index(nd)))

    def _close(self, old_cap: int, new: int) -> None:
        """Seed the relations longer than ``old_cap`` on a side and close,
        sweeping the nodes numbered from ``new`` on."""
        window, parent, members = self.window, self.parent, self.members
        cap, walk, root, word = window.cap, window.walk, window.root, window.word
        pre, lens, heads = window.pre, window.lens, window.heads
        first_child, objects = window.first_child, window.objects
        n = len(parent)
        # both sides of a relation are paths (PresentedCat checks it), so nodes
        todo = [(walk(root[r.src], r.lhs), walk(root[r.src], r.rhs))
                for r in self.pres.relations
                if old_cap < max(len(r.lhs), len(r.rhs)) <= cap]
        if not (todo or members):
            return  # no seed and no class of two nodes: nothing to close
        shifts = window.left_shifts()
        into: dict[str, list[str]] = {}
        for a in self.pres.arrows:
            into.setdefault(a.tgt, []).append(a.name)
        stack: list[int] = []  # the worklist
        queued = bytearray(n)
        # the sweep's node (before the sweep the last node it skips, after it
        # the last node): a join requeues the extensions numbered up to it
        at = max(new, window.level[1]) - 1
        taken = n - 1 - at  # the sweep's nodes, and then the worklist's
        while True:
            # join the pairs in todo, each under the shortlex-least root
            for u, v in todo:
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]  # path halving
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u == v:
                    continue
                # equal lengths: the first letters decide, or else the words
                if lens[v] < lens[u] or lens[v] == lens[u] and (
                        heads[v] < heads[u] if heads[v] != heads[u]
                        else word(v)[::-1] < word(u)[::-1]):
                    u, v = v, u
                parent[v] = u
                moved = members.pop(v, None) or [v]
                members.setdefault(u, [u]).extend(moved)
                for x in moved:  # requeue extensions of x numbered <= at
                    k = lens[x]
                    if x >= at or k == cap:
                        continue
                    for ext in range(first_child[x], min(first_child[x + 1], at + 1)):
                        if not queued[ext]:
                            queued[ext] = 1
                            stack.append(ext)
                    s = x  # the empty path at x's source
                    while pre[s] >= 0:
                        s = pre[s]
                    for c in into.get(objects[s], ()):
                        ext = x + shifts[k][c]
                        if ext <= at and not queued[ext]:
                            queued[ext] = 1
                            stack.append(ext)
            # take the next node: the sweep's, or else one from the worklist
            if at + 1 < n:
                i = at = at + 1
            elif stack:
                i = stack.pop()
                queued[i] = 0
                taken += 1
            else:
                break
            p, b, k = pre[i], heads[i], lens[i]
            rp = p
            while parent[rp] != rp:
                parent[rp] = rp = parent[parent[rp]]
            rq = i - shifts[k - 1][b]
            while parent[rq] != rq:
                parent[rq] = rq = parent[parent[rq]]
            u = first_child[rp] + i - first_child[p]  # rep(p)·a
            if i == at and rp != p and parent[i] == i and i not in members:
                # a fresh node goes under the root of rep(p)·a, shortlex-
                # smaller, and requeues nothing, being the sweep's node
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                parent[i] = u
                members.setdefault(u, [u]).append(i)
                todo = ((i, rq + shifts[lens[rq]][b]),)
            else:
                todo = ((i, u), (i, rq + shifts[lens[rq]][b]))
        self.taken += taken

    def representatives(self, max_len: int) -> dict[int, _Node]:
        """The representative of each class of the nodes of length <= max_len,
        keyed by its number, the class's root, in the window's order of each
        class's first node.  Only their words are built; a representative
        is no longer than its members."""
        window = self.window
        n = window.level[min(max_len, window.cap) + 1]
        return {r: window.word(r) for r in dict.fromkeys(map(self._find, range(n)))}


def _name(rep: _Node) -> str:
    """A class's id, from its shortlex-least word: ``id_x`` for the empty
    word at x, otherwise the letters joined by "*"."""
    return short_id("*".join(rep[1])) if rep[1] else "id_" + rep[0]


def _quotient(words: _Words, reps: dict[int, _Node],
              compose: Callable[[int, int], int]) -> FinCat:
    """One morphism per class of ``reps`` (``_Words.representatives``), in
    its order, named by its representative (``_name``).  Its build_category
    payload is its root: ``compose(r2, r1)`` is the root of r2 after r1."""
    tgts = words.window.tgts
    return build_category(
        words.pres.objects,
        [(_name(rep), rep[0], tgts[r], r) for r, rep in reps.items()],
        compose, lambda r: not reps[r][1])


def localize(Cm: MarkedFinCat, bounds: Bounds = Bounds()) -> LocalizationResult:
    """Bounded localization of C at its marked morphisms.

    Succeeds iff some word-length L (within bounds) yields closed hom-sets:
    every composite of class representatives reduces back to a word of
    length <= L inside the closure window of length 2L.
    """
    result, image = _localize_presented(present(Cm), bounds)
    if not result.ok:
        return result
    cat = result.cat
    C = Cm.cat
    quotient = Functor(
        C, cat,
        {x: x for x in C.objects},
        {m.name: (cat.identity[C.src(m.name)] if C.is_identity(m.name)
                  else image[m.name])
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


def _composites(words: _Words, cls: dict[int, _Node]):
    """Each composite class keyed (second, first), all by their roots, and
    None; or None and the hom and class count of the first pair whose
    composites are not one class.

    ``cls`` is ``words.representatives(L)`` on a window of 2L.  One find
    per pair of classes decides it: the composite of r2 after r1 is the class of
    r1·r2, a node as both are at most L long.  For members n1 ~ r1 and n2 ~ r2 the congruence the window is
    closed under gives n1·n2 ~ r1·n2 ~ r1·r2, each a node since a
    representative is no longer than its members, so every member pair
    composes into that one class.  So the failing pair is one whose
    composite class is not in ``cls`` (its representative is longer than L),
    and the count, which is that of the other composite classes, is always
    0 here; it is len(cls) only where ``_localize_presented`` finds the
    table inconsistent."""
    window, find = words.window, words._find
    walk, tgts = window.walk, window.tgts
    by_src: dict[str, list[int]] = {}
    for r, rep in cls.items():
        by_src.setdefault(rep[0], []).append(r)
    comp: dict[tuple[int, int], int] = {}
    for r1 in cls:
        for r2 in by_src.get(tgts[r1], ()):
            tgt = find(walk(r1, cls[r2][1]))
            if tgt not in cls:
                return None, ((cls[r1][0], tgts[r2]), 0)
            comp[r2, r1] = tgt
    return comp, None


def _localize_presented(pres: PresentedCat, bounds: Bounds):
    last_frontier: tuple[tuple, int] | None = None
    words = _Words(pres, _paths(pres.objects, _out_of(pres.arrows), 0,
                                bounds.max_words))
    for L in range(1, bounds.word_length + 1):
        try:
            words.widen(2 * L, bounds.max_words)
        except SizeBoundExceeded as e:
            return LocalizationResult("size-bound", bound={
                "which": "max_words", "cap": e.cap, "at": e.count,
                "word_length": 2 * L}), None
        cls = words.representatives(L)
        if len(cls) > bounds.max_morphisms:
            return LocalizationResult("size-bound", bound={
                "which": "max_morphisms", "cap": bounds.max_morphisms,
                "at": len(cls), "word_length": L}), None
        comp_class, last_frontier = _composites(words, cls)
        if comp_class is None:
            continue
        try:
            cat = _quotient(words, cls, lambda r2, r1: comp_class[r2, r1])
        except MalformedTable:
            # bounded closure not yet consistent; widen the window
            last_frontier = ((pres.objects[0], pres.objects[0]), len(cls))
            continue
        # the morphism of cat each generator goes to
        return LocalizationResult("ok", cat=cat), {
            a.name: _name(words.find((a.src, (a.name,)))) for a in pres.arrows}
    # with no word length tried there is no frontier to report
    bound = {"which": "word_length", "cap": bounds.word_length}
    if last_frontier is not None:
        hom, frontier = last_frontier
        bound.update(hom=list(hom), frontier=frontier)
    return LocalizationResult("word-bound", bound=bound), None


# -- universal-property probes --------------------------------------------------------


@dataclass
class ProbeVerdict:
    ok: bool
    failures: list[tuple[str, str]]  # (probe name, reason)


def check_localization_up(Cm: MarkedFinCat, L: LocalizationResult,
                          probes: dict[str, FinCat],
                          caps: SizeCaps = DEFAULT_CAPS) -> ProbeVerdict:
    """For every probe D: precomposition with the quotient q must be an
    equivalence Fun(|L|, D) -> Fun†(C†, D♭).  Decided (_up_failure) on what
    ``localize`` returns: q is the identity on objects and L is generated by
    the q(m) and the inverses of the marked q(m); else raises ValueError."""
    if not (L.ok and L.cat is not None and L.quotient is not None):
        raise ValueError("check_localization_up needs a successful localization")
    failures = []
    for name, D in probes.items():
        functors = marked_functor_homs(Cm, flat_marking(D), caps).functors
        reason = _up_failure(Cm, L, D, functors.values())
        if reason is not None:
            failures.append((name, reason))
    return ProbeVerdict(not failures, failures)


def _up_failure(Cm: MarkedFinCat, L: LocalizationResult, D: FinCat,
                functors: Iterable[Functor]) -> str | None:
    """Why precomposition with L's quotient q is no equivalence
    Fun(|L|, D) -> Fun†(C, D♭), or None: the first of ``functors`` (all marked
    G: C -> D♭; only maps are read, so C -> D^op♭ stands for opposite(C) -> D♭)
    that does not extend along q, and where.  Raises ValueError off the domain
    of check_localization_up, where every morphism of L is a word in the
    letters q(m) and q(m)^-1 for marked m (``_quotient``).  There a functor out
    of L is determined by its restriction, and a transformation between
    restrictions is natural on every letter (on q(m)^-1 invert the square),
    hence on L: precomposition is injective on objects and fully faithful.  It
    is essentially surjective iff every G extends strictly, as a^-1 H a
    extends G if a: G ≅ H q.  An extension is forced on the letters,
    q(m)^-1 |-> G(m)^-1, so G extends iff the forced H, one composite in D per
    morphism along a breadth-first pass, is a functor with H q = G."""
    C, cat, q = Cm.cat, L.cat, L.quotient
    if cat.objects != C.objects or any(q.obj(x) != x for x in C.objects):
        raise ValueError("the quotient is not the identity on objects")
    letters = {q.mor(m): (m, False) for m in C.nonidentity()}
    for m in sorted(Cm.marked):
        inv = cat.inverse(q.mor(m))
        if inv is None:
            raise ValueError(f"the quotient does not invert marked {m}")
        letters.setdefault(inv, (m, True))
    out_of = {x: [h for h in letters if cat.src(h) == x] for x in cat.objects}
    order = [cat.identity[x] for x in cat.objects]
    reached, prev = set(order), {}
    for h in order:  # grows as the pass reaches morphisms
        for letter in out_of[cat.tgt(h)]:
            k = cat.compose(letter, h)
            if k not in reached:
                reached.add(k)
                prev[k] = (h, letter)
                order.append(k)
    if len(reached) != cat.n_morphisms:
        raise ValueError("the letters do not generate the localization")
    for G in functors:
        image = {h: D.inverse(G.mor(m)) if inv else G.mor(m)
                 for h, (m, inv) in letters.items()}
        hmap = {cat.identity[x]: D.identity[G.obj(x)] for x in cat.objects}
        for k, (h, letter) in prev.items():  # in the order they were reached
            hmap[k] = D.compose(image[letter], hmap[h])
        try:
            Functor(cat, D, G.object_map, hmap).validate()
        except MalformedTable as e:
            return f"{G.key()} does not extend along the quotient: {e}"
        for m in C.nonidentity():
            if hmap[q.mor(m)] != G.mor(m):
                return f"{G.key()} does not extend along the quotient at {m}"
    return None


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

    For each probe D, decides whether the canonical comparison functor c
    from the marked functors out of the Grothendieck total to the limit,
    over the opposite twisted arrow category, of the marked functors out of
    (coslice at t) x (flat fiber at s) is an equivalence: fully faithful and
    essentially surjective.  The end is read hom by hom and neither side is
    built as a category; comparison_failure proves the decision exact.  No
    localization is computed.  The oplax comparison (cartesian) reduces to
    the lax one in _mapping_out.
    """
    _, compared = _mapping_out(F, probes, caps, cartesian)
    failures = [(name, reason) for name, _, reason in compared
                if reason is not None]
    return ProbeVerdict(not failures, failures)


def _inclusion(F, E: "FiberedCat", co: SliceCat, P: MarkedFinCat,
               f: str) -> Functor:
    """iota_f: coslice(t) x F(s) -> E.total for f: s -> t, sending (c: t -> u, x)
    to (u, F(c f) x) and (k: c -> c', phi) to (a, F(c' f) phi), where a is
    k's witness, a c = c'.

    The latter is a morphism (u, F(c f) x) -> (u', F(c' f) x') of E, as
    F(a) F(c f) = F(c' f).  It preserves composites: for k': c' -> c'' with
    witness a' and phi': x' -> x'', E composes (a', F(c'' f) phi') after
    (a, F(c' f) phi) to (a' a, F(c'' f) phi' F(a') F(c' f) phi)
    = (a' a, F(c'' f)(phi' phi)).  A marked (k, phi) has a marked and phi
    invertible, so its image is marked.  Both are checked here all the same,
    as for any functor built from its maps; P is the product the FunHoms at
    f is over."""
    I = F.base.cat
    T = F.transition
    after = {c: T[I.compose(c, f)] for c in co.cat.objects}
    X = F.fiber[I.src(f)]
    omap = {pair_id(c, x): pair_id(I.tgt(c), after[c].obj(x))
            for c in co.cat.objects for x in X.objects}
    mmap = {pair_id(k.name, phi.name):
            total_mor_id(co.witness[k.name], after[k.tgt].mor(phi.name),
                         after[k.src].obj(phi.src))
            for k in co.cat.morphisms for phi in X.morphisms}
    iota = Functor(P.cat, E.total.cat, omap, mmap)
    iota.validate()
    if not iota.is_marked(P.marked, E.total.marked):
        raise InvariantViolation(f"inclusion at {f} is not a marked functor")
    return iota


def comparison_failure(side_a: FunHoms, end: LimitReader,
                       fun: dict[str, FunHoms], iota: dict[str, Functor],
                       post: Functor, ident: list[tuple[str, int]]) -> str | None:
    """Why the comparison functor c: Fun†(E.total, D♭) -> end is no
    equivalence, naming a witness, or None: it is one when fully faithful
    and essentially surjective (Mac Lane, Categories for the Working
    Mathematician, IV.4).  end is the end_reader over opposite(Tw(I)) of
    f |-> fun[f] = Fun†(P(f), D♭), P(f) = coslice(t) x F(s) for f: s -> t,
    and c sends G to the family (f |-> G iota_f), each component whiskered
    by _Whiskering (post is the identity of D) and named by _family_obj_id,
    as the end names its families; a transformation a goes to
    (f |-> a iota_f).  Neither side is built as a category: side_a lists the
    functors G (no hom of it is read) and the end is read one hom at a time.

    The images are compatible families: along m = (a, b): f -> f2 of Tw,
    with b f2 a = f, iota_f2 pre(m) sends (c, x) to (u, F(c b f2) F(a) x)
    = (u, F(c f) x), which is iota_f(c, x), and likewise on morphisms; so an
    image outside the end raises InvariantViolation, as does an image of two
    functors, by the second point below.

    Why the decision is exact.  ident lists, for each object (t, y) of
    E.total in order, f = id_t and the index of (id_t, y) in P(id_t).
    - iota_{id_t}(id_t, y) = (t, y), since F(id_t) = id.  So a
      transformation a' is the identity components of its image: c(a') at
      id_t has the component a'_{(t, y)} at (id_t, y).  Hence c is faithful,
      and if an end morphism beta is c(a'), then a' is a, the family
      a_{(t, y)} = (beta_{id_t})_{(id_t, y)} read off beta.
    - Every morphism (u, phi): (s, x) -> (t, y) of E.total is
      iota_{id_t}(id, phi) iota_{id_s}(k_u, id_x), k_u: id_s -> u in
      coslice(s), since iota_{id_s}(k_u, id_x) = (u, F(u) id_x) and
      iota_{id_t}(id, phi) = (id_t, phi).  So G is determined by c(G): c is
      injective on objects.
    - So beta has a preimage iff a is a natural G => H, decided on the
      generator squares of E.total (FunHoms.is_natural), and c(a) = beta: for
      every f, the component tuple of a iota_f is that of beta_f (the
      endpoints agree, as beta is read from hom(c(G), c(H))).  c is full iff
      every beta of every hom(c(G), c(H)) passes, and a failure names
      hom(G, H).
    - An end object X outside the image is reached iff some image c(G) has
      an end morphism c(G) -> X with every component invertible in D: the
      componentwise inverses form a family, since each transition is a
      functor and so sends inverses to inverses, which is then the inverse
      in the end.  Else the failure names X.
    So a failing verdict is a counterexample to c being an equivalence, not
    merely to c being an isomorphism.  The end's ``cat limit`` morphism cap
    counts the end morphisms read, up to the first failure: those between
    images, then those from images to objects outside the image."""
    D = post.cod
    whisker = {f: _Whiskering(side_a.functors, {}, H.functors, H.find, iota[f], post)
               for f, H in fun.items()}
    preimage: dict[str, str] = {}
    for gid in side_a.objects:
        try:
            xid = _family_obj_id({f: W.obj(gid) for f, W in whisker.items()})
        except KeyError as out:
            raise InvariantViolation(
                f"comparison: {out.args[0]} is not a marked functor") from None
        if xid not in end.obj_family or preimage.setdefault(xid, gid) != gid:
            raise InvariantViolation(f"comparison: the image of {gid} is no "
                                     "end object, or that of another functor")

    def components(beta):
        return {f: H.hom_of[beta[f]][3] for f, H in fun.items()}

    def has_preimage(gid, hid, beta):
        comps = components(beta)
        a = [comps[f][k] for f, k in ident]
        return (side_a.is_natural(gid, hid, a)
                and all(W.components(a) == comps[f] for f, W in whisker.items()))

    images = [xid for xid in end.objects if xid in preimage]
    for xid in images:
        for yid in images:
            gid, hid = preimage[xid], preimage[yid]
            if not all(has_preimage(gid, hid, beta)
                       for beta in limit_hom(end, xid, yid)):
                return f"comparison not fully faithful on hom({gid}, {hid})"
    for xid in end.objects:
        if xid not in preimage and not any(
                all(is_iso(D, m) for c in components(beta).values() for m in c)
                for yid in images for beta in limit_hom(end, yid, xid)):
            return f"comparison not essentially surjective: no image reaches {xid}"
    return None


def _end_diagram(F, E: "FiberedCat", caps: SizeCaps):
    """What the probe check reads that does not depend on the probe: Tw(I),
    P(f) = coslice(t) x flat(F(s)) keyed by (s, t) for f: s -> t, the
    CatDiagram of P over Tw(I), the inclusions iota_f (_inclusion) and the
    family plan over opposite(Tw(I)) that every probe's end reads with.  E
    is grothendieck_cocart(F)."""
    Im = F.base
    I = Im.cat
    tw = twisted_arrow(I, caps)
    coslices = {i: coslice_cat(Im, i) for i in I.objects}

    # P(f: s -> t) = coslice(t) x flat(F(s)), covariant on Tw(I) through pre;
    # mapping out is contravariant, so the limit lives over opposite(Tw(I)).
    pcats: dict[tuple[str, str], MarkedFinCat] = {}
    for f in tw.cat.objects:
        s, t = I.src(f), I.tgt(f)
        if (s, t) not in pcats:
            pcats[s, t] = product(coslices[t].marked, flat_marking(F.fiber[s]))
    pcat = {f: pcats[I.src(f), I.tgt(f)] for f in tw.cat.objects}
    pre = {}
    for m in tw.cat.morphisms:
        a, b = tw.legs[m.name]
        cos = slice_transition(Im, coslices[I.tgt(m.src)], coslices[I.tgt(m.tgt)], b)
        pre[m.name] = _product_functor(pcat[m.src], pcat[m.tgt], cos, F.transition[a])
    # a product of marked functors is marked
    pre_diagram = CatDiagram(flat_marking(tw.cat),
                             {f: P.cat for f, P in pcat.items()}, pre)
    iota = {f: _inclusion(F, E, coslices[I.tgt(f)], P, f) for f, P in pcat.items()}
    return tw, pcats, pre_diagram, iota, FamilyPlan(opposite_cat(tw.cat))


def _mapping_out(F, probes: dict[str, FinCat], caps: SizeCaps,
                 cartesian: bool = False):
    """The total the colimit theorem localizes, E.total for
    E = grothendieck_cocart(F), and for each probe D in turn its name, side
    A and why the comparison functor from side A to the end is no
    equivalence, or None (comparison_failure).  Side A is the marked
    functors E.total -> D♭, a FunHoms none of whose homs is read.

    With cartesian, the oplax side reduces to the lax side of the
    fiberwise-opposite diagram against opposite probes, here and nowhere
    else.  The cartesian total is opposite(E.total) for E the cocartesian
    total of fiberwise_op(F), and it is the total returned.  A marked
    functor opposite(E.total) -> D♭ is one E.total -> D^op♭ with the same
    maps, so side A lists the functors out of the returned total."""
    if cartesian:
        F, probes = fiberwise_op(F), {n: opposite_cat(D) for n, D in probes.items()}
    E = grothendieck_cocart(F, caps)
    I = F.base.cat
    tw, pcats, pre_diagram, iota, plan = _end_diagram(F, E, caps)
    at = {x: i for i, x in enumerate(E.total.cat.objects)}
    ident: list = [None] * len(at)
    for t in I.objects:
        f = I.identity[t]
        index = {p: k for k, p in enumerate(iota[f].dom.objects)}
        for y in F.fiber[t].objects:
            p = pair_id(f, y)
            ident[at[iota[f].obj(p)]] = (f, index[p])
    if None in ident:
        raise InvariantViolation("comparison: an object of the total is no "
                                 "identity component")

    compared = []
    for name, D in probes.items():
        Dm = flat_marking(D)
        side_a = marked_functor_homs(E.total, Dm, caps)
        fun = {st: marked_functor_homs(P, Dm, caps) for st, P in pcats.items()}
        post = identity_functor(D)
        fun_at = {f: fun[I.src(f), I.tgt(f)] for f in tw.cat.objects}
        end = end_reader(pre_diagram, plan, fun_at,
                         {m.name: post for m in tw.cat.morphisms}, caps)
        compared.append((name, side_a, comparison_failure(side_a, end, fun_at,
                                                          iota, post, ident)))
    return (opposite(E.total) if cartesian else E.total), compared
