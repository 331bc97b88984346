"""JSON file formats: categories, functors, diagrams, presentations, reports.

All writers emit canonical JSON (sorted keys, fixed separators) so that equal
values serialize to identical bytes.
"""

from __future__ import annotations

import json

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
    if not isinstance(objects, list) or not all(isinstance(x, str) for x in objects):
        raise MalformedTable("category: objects must be a list of strings")
    morphisms = []
    for entry in data.get("morphisms", []):
        if not isinstance(entry, dict) or set(entry) != {"id", "src", "tgt"}:
            raise MalformedTable(f"category: bad morphism entry {entry!r}")
        morphisms.append(Mor(entry["id"], entry["src"], entry["tgt"]))
    identity = dict(data.get("identities") or
                    {x: f"id_{x}" for x in objects})
    named = {m.name for m in morphisms}
    for x, i in identity.items():
        if i not in named:
            morphisms.append(Mor(i, x, x))
            named.add(i)
    comp = {}
    for entry in data.get("composition", []):
        if not isinstance(entry, dict) or set(entry) != {"after", "before", "equals"}:
            raise MalformedTable(f"category: bad composition entry {entry!r}")
        comp[(entry["after"], entry["before"])] = entry["equals"]
    # identity composites are synthesized
    src = {m.name: m.src for m in morphisms}
    tgt = {m.name: m.tgt for m in morphisms}
    for m in morphisms:
        comp[(identity[tgt[m.name]], m.name)] = m.name
        comp[(m.name, identity[src[m.name]])] = m.name
    C = fincat(objects, morphisms, identity, comp)
    marked = data.get("marked")
    if marked is None:
        return C, None
    return C, frozenset(marked) | frozenset(identity.values()) | C.iso_set()


def functor_to_data(F: Functor) -> dict:
    return {"object_map": dict(F.object_map),
            "morphism_map": dict(F.morphism_map)}


def functor_from_data(data: dict, dom: FinCat, cod: FinCat) -> Functor:
    _require_keys(data, {"object_map", "morphism_map"}, "functor")
    mmap = dict(data.get("morphism_map", {}))
    for x, i in dom.identity.items():
        mmap.setdefault(i, cod.identity[data["object_map"][x]])
    F = Functor(dom, cod, dict(data["object_map"]), mmap)
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
    if not isinstance(data, dict):
        raise MalformedTable("diagram: expected a JSON object")
    _require_keys(data, {"base", "fibers", "transitions"}, "diagram")
    base = marked_category_from_data(data["base"])
    fibers = {x: category_from_data(c)[0] for x, c in data["fibers"].items()}
    transitions = {}
    for x in base.cat.objects:
        transitions[base.cat.identity[x]] = identity_functor(fibers[x])
    for m, fd in data.get("transitions", {}).items():
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


def _strings(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def presentation_from_data(data: dict) -> PresentedCat:
    """The checked presentation of a file.  A relation may leave out ``src``
    and ``tgt`` when one of its sides is a nonempty path, which gives them."""
    if not (isinstance(data, dict)
            and set(data) == {"objects", "arrows", "relations"}
            and _strings(data["objects"]) and isinstance(data["arrows"], list)
            and isinstance(data["relations"], list)):
        raise MalformedTable("presentation: expected the lists objects, arrows "
                             "and relations, and no other key")
    arrows = []
    for e in data["arrows"]:
        if not (isinstance(e, dict) and set(e) == {"id", "src", "tgt"}
                and _strings(list(e.values()))):
            raise MalformedTable(f"presentation: bad arrow entry {e!r}")
        arrows.append(Arrow(e["id"], e["src"], e["tgt"]))
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
