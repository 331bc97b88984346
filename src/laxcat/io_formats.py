"""JSON file formats: categories, functors, diagrams, presentations, reports.

All writers emit canonical JSON (sorted keys, fixed separators) so that equal
values serialize to identical bytes.
"""

from __future__ import annotations

import json
from operator import itemgetter

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    Mor,
    fincat,
    identity_functor,
)
from .diagrams import CatDiagram
from .errors import MalformedTable
from .localization import Arrow, PresentedCat, Relation


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _require_keys(data: dict, allowed: set[str], what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise MalformedTable(f"{what}: unknown keys {sorted(unknown)}")


def _strings(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def _string_map(value) -> bool:
    return isinstance(value, dict) and _strings(list(value.values()))


def _entries(entries, fields: tuple[str, ...], what: str) -> list[tuple]:
    """The values of ``fields`` in each entry of a list of objects that have
    exactly those fields, all strings."""
    keys = set(fields)
    if isinstance(entries, list) and all(
            isinstance(e, dict) and e.keys() == keys for e in entries):
        rows = list(map(itemgetter(*fields), entries))  # fields has >= 2
        if all(isinstance(v, str) for row in rows for v in row):
            return rows
    raise MalformedTable(f"{what} must be a list of objects with exactly "
                         f"the string fields {', '.join(fields)}")


def category_to_data(C: FinCat, marked: frozenset[str] | None = None) -> dict:
    data = {
        "objects": list(C.objects),
        "morphisms": [{"id": m.name, "src": m.src, "tgt": m.tgt}
                      for m in C.morphisms if not C.is_identity(m.name)],
        "composition": [{"after": g, "before": f, "equals": h}
                        for (g, f), h in sorted(C.comp.items())
                        if not (C.is_identity(g) or C.is_identity(f))],
        "identities": dict(C.identity),
    }
    if marked is not None:
        data["marked"] = sorted(marked)
    return data


def category_from_data(data: dict) -> tuple[FinCat, frozenset[str] | None]:
    """Returns the category and the marked set if one was given (identities
    and isomorphisms are added to it before validation)."""
    C, mk = _category_parts(data)
    return C, None if mk is None else MarkedFinCat(C, mk).marked


def marked_category_from_data(data: dict) -> MarkedFinCat:
    C, mk = _category_parts(data)
    return MarkedFinCat(C, C.iso_set() if mk is None else mk)


def _category_parts(data: dict) -> tuple[FinCat, frozenset[str] | None]:
    """The checked category and the unchecked marked set of a file."""
    if not isinstance(data, dict):
        raise MalformedTable("category: expected a JSON object")
    _require_keys(data, {"objects", "morphisms", "composition", "identities",
                         "marked"}, "category")
    objects = data.get("objects")
    if not _strings(objects):
        raise MalformedTable("category: objects must be a list of strings")
    # a key given must have its type, falsy or not; an absent marked means
    # no marking, and absent or empty identities mean the ids id_x
    identities, marked = data.get("identities", {}), data.get("marked", [])
    if not (_string_map(identities) and _strings(marked)):
        raise MalformedTable("category: identities must map objects to "
                             "strings, and marked must be a list of strings")
    morphisms = [Mor(*e) for e in _entries(data.get("morphisms", []),
                                           ("id", "src", "tgt"),
                                           "category: morphisms")]
    identity = dict(identities or {x: f"id_{x}" for x in objects})
    named = {m.name for m in morphisms}
    for x, i in identity.items():
        if i not in named:
            morphisms.append(Mor(i, x, x))
            named.add(i)
    comp = {(g, f): h for g, f, h in _entries(data.get("composition", []),
                                              ("after", "before", "equals"),
                                              "category: composition")}
    # identity composites are synthesized
    for m in morphisms:
        if m.src not in identity or m.tgt not in identity:
            raise MalformedTable(f"category: morphism {m.name} does not end "
                                 f"at objects with identities")
        comp[(identity[m.tgt], m.name)] = m.name
        comp[(m.name, identity[m.src])] = m.name
    C = fincat(objects, morphisms, identity, comp)
    if "marked" not in data:
        return C, None
    return C, frozenset(marked) | frozenset(identity.values()) | C.iso_set()


def probes_from_data(data: dict) -> dict[str, FinCat]:
    """The checked categories of a probe manifest ``{name: category}``."""
    if not isinstance(data, dict):
        raise MalformedTable("probes: expected a JSON object {name: category}")
    return {name: category_from_data(d)[0] for name, d in data.items()}


def functor_to_data(F: Functor) -> dict:
    return {"object_map": dict(F.object_map),
            "morphism_map": dict(F.morphism_map)}


def functor_from_data(data: dict, dom: FinCat, cod: FinCat) -> Functor:
    if not (isinstance(data, dict) and _string_map(data.get("object_map"))
            and _string_map(data.get("morphism_map", {}))):
        raise MalformedTable("functor: expected the string maps object_map "
                             "and morphism_map")
    _require_keys(data, {"object_map", "morphism_map"}, "functor")
    omap = dict(data["object_map"])
    mmap = dict(data.get("morphism_map", {}))
    unknown = [x for x in omap if x not in dom.objects] + [
        m for m in mmap if not dom.has_mor(m)]
    if unknown:
        raise MalformedTable(f"functor: {unknown[0]} is not in the domain")
    for x, i in dom.identity.items():
        if omap.get(x) in cod.identity:  # otherwise validate reports x
            mmap.setdefault(i, cod.identity[omap[x]])
    F = Functor(dom, cod, omap, mmap)
    F.validate()
    return F


def diagram_to_data(F: CatDiagram) -> dict:
    return {
        "base": category_to_data(F.base.cat, F.base.marked),
        "fibers": {x: category_to_data(c) for x, c in F.fiber.items()},
        "transitions": {m: functor_to_data(T)
                        for m, T in F.transition.items()
                        if not F.base.cat.is_identity(m)},
    }


def diagram_from_data(data: dict) -> CatDiagram:
    if not (isinstance(data, dict) and isinstance(data.get("fibers"), dict)
            and isinstance(data.get("transitions", {}), dict)):
        raise MalformedTable("diagram: expected a JSON object with a fibers "
                             "object and a transitions object")
    _require_keys(data, {"base", "fibers", "transitions"}, "diagram")
    base = marked_category_from_data(data.get("base"))
    fibers = {x: category_from_data(c)[0] for x, c in data["fibers"].items()}
    missing = [x for x in base.cat.objects if x not in fibers]
    if missing:
        raise MalformedTable(f"diagram: no fiber at base objects {missing}")
    extra = sorted(set(fibers).difference(base.cat.objects))
    if extra:
        raise MalformedTable(f"diagram: fibers at non-objects {extra}")
    given = data.get("transitions", {})
    unknown = sorted(m for m in given if not base.cat.has_mor(m))
    if unknown:
        raise MalformedTable(f"diagram: transitions at non-morphisms {unknown}")
    transitions = {}
    for x in base.cat.objects:
        transitions[base.cat.identity[x]] = identity_functor(fibers[x])
    for m, fd in given.items():
        transitions[m] = functor_from_data(
            fd, fibers[base.cat.src(m)], fibers[base.cat.tgt(m)])
    return CatDiagram(base, fibers, transitions)


def presentation_to_data(p: PresentedCat) -> dict:
    return {
        "objects": list(p.objects),
        "arrows": [{"id": a.name, "src": a.src, "tgt": a.tgt}
                   for a in p.arrows],
        "relations": [
            {"lhs": list(r.lhs), "rhs": list(r.rhs)}
            if r.lhs and r.rhs else
            {"lhs": list(r.lhs), "rhs": list(r.rhs), "src": r.src, "tgt": r.tgt}
            for r in p.relations
        ],
    }


def presentation_from_data(data: dict) -> PresentedCat:
    """The checked presentation of a file.  A relation may leave out ``src``
    and ``tgt`` when one of its sides is a nonempty path, which gives them."""
    if not (isinstance(data, dict)
            and set(data) == {"objects", "arrows", "relations"}
            and _strings(data["objects"]) and isinstance(data["arrows"], list)
            and isinstance(data["relations"], list)):
        raise MalformedTable("presentation: expected the lists objects, arrows "
                             "and relations, and no other key")
    arrows = [Arrow(*e) for e in _entries(data["arrows"], ("id", "src", "tgt"),
                                          "presentation: arrows")]
    ends = {a.name: (a.src, a.tgt) for a in arrows}
    relations = []
    for e in data["relations"]:
        if not (isinstance(e, dict) and _strings(e.get("lhs"))
                and _strings(e.get("rhs"))
                and _strings([e.get("src", ""), e.get("tgt", "")])):
            raise MalformedTable(f"presentation: bad relation entry {e!r}")
        _require_keys(e, {"lhs", "rhs", "src", "tgt"}, "relation")
        path = e["lhs"] or e["rhs"]
        if "src" in e or "tgt" in e or not path:
            s, t = e.get("src"), e.get("tgt")
        else:  # an unknown arrow leaves its endpoint None, which is rejected
            s, t = ends.get(path[0], (None,))[0], ends.get(path[-1], (None, None))[1]
        relations.append(Relation(s, t, tuple(e["lhs"]), tuple(e["rhs"])))
    return PresentedCat(tuple(data["objects"]), tuple(arrows), tuple(relations))


def localization_to_data(result) -> dict:
    data = {"status": result.status}
    if result.cat is not None:
        data["category"] = category_to_data(result.cat)
    if result.quotient is not None:
        data["quotient"] = functor_to_data(result.quotient)
    if result.bound is not None:
        data["bound"] = result.bound
    return data


def verdict_to_data(v) -> dict:
    data = {"verdict": v.verdict}
    if v.witness is not None:
        data["witness"] = functor_to_data(v.witness)
    if v.certificate:
        data["certificate"] = v.certificate
    return data
