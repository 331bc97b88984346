"""JSON file formats: categories, functors, diagrams, presentations, reports.

All writers emit canonical JSON (sorted keys, fixed separators) so that equal
values serialize to identical bytes.  Each public reader checks its file once
against its kind's shape (``_check_shape``), then only builds.  A shape is
``str``, ``[item]``, ``{str: item}`` or a record whose "?" keys are optional.
A category file and a diagram's base may give a marking; a fiber and a
probe are categories without one (``_PLAIN``), so a ``marked`` key there is
rejected at its path.
"""

from __future__ import annotations

import json

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    Mor,
    fincat,
    flat_marking,
    identity_functor,
)
from .diagrams import CatDiagram
from .errors import MalformedTable
from .localization import Arrow, PresentedCat, Relation

_ROW = {"id": str, "src": str, "tgt": str}
_PLAIN = {"objects": [str], "morphisms?": [_ROW],  # a fiber or a probe
          "composition?": [{"after": str, "before": str, "equals": str}],
          "identities?": {str: str}}
_CATEGORY = {**_PLAIN, "marked?": [str]}
_FUNCTOR = {"object_map": {str: str}, "morphism_map?": {str: str}}
_DIAGRAM = {"base": _CATEGORY, "fibers": {str: _PLAIN},
            "transitions?": {str: _FUNCTOR}}
_PRESENTATION = {"objects": [str], "arrows": [_ROW], "relations": [
    {"lhs": [str], "rhs": [str], "src?": str, "tgt?": str}]}
_PROBES = {str: _PLAIN}


def _check_shape(data, shape, what: str) -> None:
    """Raise MalformedTable at the path of the first field of data off its shape."""
    bad = _misfit(data, shape)
    if bad is not None:
        raise MalformedTable(what + bad)


def _misfit(value, shape) -> str | None:
    """None if ``value`` has ``shape``, else its path to the problem."""
    if shape is str:
        return None if isinstance(value, str) else ": expected a string"
    if not isinstance(value, type(shape)):
        return ": expected a list" if isinstance(shape, list) else ": expected an object"
    if isinstance(value, dict) and str not in shape:  # a record
        given = 0
        for key, item in shape.items():
            name = key.rstrip("?")
            if name in value:
                given += 1
                bad = _misfit(value[name], item)
                if bad is not None:
                    return f".{name}{bad}"
            elif name == key:
                return f": missing key {name}"
        unknown = given < len(value) and value.keys() - {k.rstrip("?") for k in shape}
        return f": unknown keys {sorted(unknown)}" if unknown else None
    item = shape[0] if isinstance(shape, list) else shape[str]
    items = value if isinstance(value, list) else value.values()
    # one pass over strings, or over rows of exactly the same string fields
    if item is str and all(isinstance(v, str) for v in items):
        return None
    if item is not str and all(s is str for s in item.values()) and all(
            isinstance(e, dict) and e.keys() == item.keys() for e in items) and all(
            isinstance(v, str) for e in items for v in e.values()):
        return None
    for k, v in enumerate(value) if items is value else value.items():
        bad = _misfit(v, item)
        if bad is not None:
            return (f"[{k}]" if items is value else f".{k}") + bad
    return None


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


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


def category_from_data(data) -> tuple[FinCat, frozenset[str] | None]:
    """The category, and its marked set (with identities and isos) if given."""
    _check_shape(data, _CATEGORY, "category")
    C = _category(data)
    Cm = _marking(C, data)
    return C, None if Cm is None else Cm.marked


def marked_category_from_data(data) -> MarkedFinCat:
    _check_shape(data, _CATEGORY, "category")
    C = _category(data)
    return _marking(C, data) or flat_marking(C)


def _category(data: dict) -> FinCat:
    """The category of file data."""
    objects = data["objects"]
    identity = data.get("identities") or {x: f"id_{x}" for x in objects}
    morphisms = [Mor(e["id"], e["src"], e["tgt"]) for e in data.get("morphisms", ())]
    named = {m.name for m in morphisms}
    for x, i in identity.items():
        if i not in named:
            morphisms.append(Mor(i, x, x))
            named.add(i)
    rows = data.get("composition", ())
    comp = {(e["after"], e["before"]): e["equals"] for e in rows}
    for e in rows if len(comp) < len(rows) else ():  # a pair given twice
        if comp[e["after"], e["before"]] != e["equals"]:
            raise MalformedTable(f"category: composition entry {e} contradicts another")
    # unit composites not given are synthesized; check_axioms checks the rest
    for m in morphisms:
        if m.src not in identity or m.tgt not in identity:
            raise MalformedTable(f"category: morphism {m.name} does not end "
                                 f"at objects with identities")
        comp.setdefault((identity[m.tgt], m.name), m.name)
        comp.setdefault((m.name, identity[m.src]), m.name)
    return fincat(objects, morphisms, identity, comp)


def _marking(C: FinCat, data: dict) -> MarkedFinCat | None:
    """The marking of C that file data gives, with C's identities and
    isomorphisms, or None if it gives none."""
    if "marked" not in data:
        return None
    return MarkedFinCat(C, C.iso_set().union(data["marked"], C.identity.values()))


def probes_from_data(data) -> dict[str, FinCat]:
    """The checked categories of a probe manifest ``{name: category}``."""
    _check_shape(data, _PROBES, "probes")
    return {name: _category(d) for name, d in data.items()}


def functor_to_data(F: Functor) -> dict:
    return {"object_map": dict(F.object_map),
            "morphism_map": dict(F.morphism_map)}


def functor_from_data(data, dom: FinCat, cod: FinCat) -> Functor:
    _check_shape(data, _FUNCTOR, "functor")
    return _functor(data, dom, cod)


def _functor(data: dict, dom: FinCat, cod: FinCat) -> Functor:
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


def diagram_from_data(data) -> CatDiagram:
    _check_shape(data, _DIAGRAM, "diagram")
    I = _category(data["base"])
    base = _marking(I, data["base"]) or flat_marking(I)
    fibers = {x: _category(c) for x, c in data["fibers"].items()}
    missing = [x for x in I.objects if x not in fibers]
    if missing:
        raise MalformedTable(f"diagram: no fiber at base objects {missing}")
    extra = sorted(set(fibers).difference(I.objects))
    if extra:
        raise MalformedTable(f"diagram: fibers at non-objects {extra}")
    given = data.get("transitions", {})
    unknown = sorted(m for m in given if not I.has_mor(m))
    if unknown:
        raise MalformedTable(f"diagram: transitions at non-morphisms {unknown}")
    transitions = {I.identity[x]: identity_functor(fibers[x]) for x in I.objects}
    for m, fd in given.items():
        transitions[m] = _functor(fd, fibers[I.src(m)], fibers[I.tgt(m)])
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


def presentation_from_data(data) -> PresentedCat:
    """The checked presentation of a file.  A relation may leave out ``src``
    and ``tgt`` when one of its sides is a nonempty path, which gives them."""
    _check_shape(data, _PRESENTATION, "presentation")
    arrows = [Arrow(e["id"], e["src"], e["tgt"]) for e in data["arrows"]]
    ends = {a.name: (a.src, a.tgt) for a in arrows}
    relations = []
    for e in data["relations"]:
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
