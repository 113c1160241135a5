"""Target/bundle config documents: JSON with bit-exact rational round-trips.

Schema, read through ``jsonread`` (rationals are "p/q" strings or JSON
integers, never floats or bools; ints nonnegative JSON integers; str fields,
ids and component names included, JSON strings, never numbers; bool a JSON
true or false; lists JSON lists; and every pairing vector has curve_rank
entries, one per curve class):

    {
      "name": str, "dim": int, "curve_rank": int,
      "c1_tangent_pairing": ["p/q", ...],            # optional
      "components": [
        {"id": str, "r": int, "age": "p/q", "involution": str,
         "basis": [{"name": str, "degree": int, "curve_pairing": ["p/q",...]?}],
         "pairing": [["p/q", ...], ...],
         "mult": [[a, b, g, "p/q"], ...]?,           # optional product table rows
         "untwisted_restriction": [["p/q",...], ...]?}
      ],
      "bundles": [
        {"name": str, "pulled_back": bool, "rank": "p/q",
         "c1_pairing": ["p/q", ...],
         "eigen": [{"component": str, "l": int, "rank": "p/q", "ch": ["p/q", ...]}],
         "lines": [{"c1_pairing": ["p/q",...], "c1": {"component": ["p/q",...]}}]?}
      ],
      "jfunction_file": str?                          # optional
    }

`ch` lists the Chern character of F_i^(l) in the component's basis; its
degree-0 entry must equal the eigen rank.  Validation re-checks every
structural invariant (age reciprocity, involution compatibility of the
eigen data, ...) before a model is returned.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from ..errors import InvariantViolation, SchemaError
from ..exactalg import sc
from ..jsonread import (array, boolean, decode_json, integer, mapping, matrix, optional,
                        rational, rationals, required, string)
from .model import BasisClass, BundleModel, CohClass, Component, TargetModel


def target_to_obj(t: TargetModel, bundles: List[BundleModel]) -> dict:
    comps = []
    for c in t.components:
        basis = []
        for b in c.basis:
            entry = {"name": b.name, "degree": b.degree}
            if b.curve_pairing:
                entry["curve_pairing"] = [str(x) for x in b.curve_pairing]
            basis.append(entry)
        comp = {
            "id": c.cid,
            "r": c.r,
            "age": str(c.age),
            "involution": c.involution,
            "basis": basis,
            "pairing": [[str(x) for x in row] for row in c.pairing],
            "mult": sorted(
                [a, b, g, str(w)]
                for (a, b), prods in c.mult.items()
                for g, w in prods.items()
            ),
        }
        if c.untwisted_restriction is not None:
            comp["untwisted_restriction"] = [[str(x) for x in row]
                                             for row in c.untwisted_restriction]
        comps.append(comp)
    obj = {
        "name": t.name,
        "dim": t.dim,
        "curve_rank": t.curve_rank,
        "c1_tangent_pairing": [str(x) for x in t.c1_tangent_pairing],
        "components": comps,
        "bundles": [bundle_to_obj(F) for F in bundles],
    }
    if t.jfunction_file:
        obj["jfunction_file"] = t.jfunction_file
    return obj


def bundle_to_obj(F: BundleModel) -> dict:
    eigen = []
    for (cid, l) in sorted(F.eigen):
        comp = F.target.by_id[cid]
        cls = F.eigen[(cid, l)]
        ch = [str_scalar(cls.coeff(cid, i)) for i in range(len(comp.basis))]
        eigen.append({"component": cid, "l": l, "rank": str(F.eigen_rank(cid, l)), "ch": ch})
    obj = {
        "name": F.name,
        "pulled_back": F.pulled_back,
        "rank": str(F.rank),
        "c1_pairing": [str(x) for x in F.c1_pairing],
        "eigen": eigen,
    }
    if F.lines is not None:
        rows = []
        for (pair, cls) in F.lines:
            support = sorted({cid for (cid, _i) in cls.terms} | {"0"})
            rows.append({
                "c1_pairing": [str(x) for x in pair],
                "c1": {cid: [str_scalar(cls.coeff(cid, i))
                             for i in range(len(F.target.by_id[cid].basis))]
                       for cid in support},
            })
        obj["lines"] = rows
    return obj


def str_scalar(x) -> str:
    """Rational scalars as 'p/q'; anything else is a config error."""
    x = sc(x)
    if not x.is_rational():
        raise SchemaError("config files carry plain rational coefficients only")
    return str(x.as_fraction())


def target_from_obj(obj: dict) -> Tuple[TargetModel, Dict[str, BundleModel]]:
    name = required(obj, "name", "$", string)
    dim = required(obj, "dim", "$", integer)
    curve_rank = required(obj, "curve_rank", "$", integer)
    comps = []
    comp_objs = required(obj, "components", "$", array)
    if not comp_objs:
        raise SchemaError("$.components: expected a nonempty list")
    for ci, cobj in enumerate(comp_objs):
        path = f"$.components[{ci}]"
        basis = []
        for bi, bobj in enumerate(required(cobj, "basis", path, array)):
            bpath = f"{path}.basis[{bi}]"
            degree = required(bobj, "degree", bpath, integer)
            if degree % 2:
                raise SchemaError(f"{bpath}.degree: odd-degree classes are not supported")
            cp = tuple(optional(bobj, "curve_pairing", bpath, rationals, []))
            basis.append(BasisClass(required(bobj, "name", bpath, string), degree, cp))
        mult = {}
        for row in optional(cobj, "mult", path, array, []):
            if len(array(row, f"{path}.mult")) != 4:
                raise SchemaError(f"{path}.mult: rows are [a, b, g, 'p/q']")
            a, b, g = (integer(x, f"{path}.mult") for x in row[:3])
            mult.setdefault((a, b), {})[g] = rational(row[3], f"{path}.mult")
        comps.append(Component(
            cid=required(cobj, "id", path, string), r=required(cobj, "r", path, integer),
            age=required(cobj, "age", path, rational),
            involution=required(cobj, "involution", path, string),
            basis=basis, pairing=required(cobj, "pairing", path, matrix), mult=mult,
            untwisted_restriction=optional(cobj, "untwisted_restriction", path, matrix, None),
        ))
    c1t = tuple(optional(obj, "c1_tangent_pairing", "$", rationals, []))
    target = TargetModel(name, dim, curve_rank, comps, c1_tangent_pairing=c1t,
                         jfunction_file=optional(obj, "jfunction_file", "$", string, None))
    bundles = {}
    for fi, fobj in enumerate(optional(obj, "bundles", "$", array, [])):
        path = f"$.bundles[{fi}]"
        eigen = {}
        for ei, eobj in enumerate(required(fobj, "eigen", path, array)):
            epath = f"{path}.eigen[{ei}]"
            cid = required(eobj, "component", epath, string)
            if cid not in target.by_id:
                raise SchemaError(f"{epath}.component: unknown component {cid!r}")
            comp = target.by_id[cid]
            ch = required(eobj, "ch", epath, array)
            if len(ch) != len(comp.basis):
                raise SchemaError(f"{epath}.ch: expected {len(comp.basis)} coefficients")
            cls = CohClass(target, {
                (cid, i): sc(rational(x, f"{epath}.ch[{i}]")) for i, x in enumerate(ch)
            })
            if cls.coeff(cid, 0) != sc(required(eobj, "rank", epath, rational)):
                raise InvariantViolation("eigen rank consistency",
                                         f"{epath}: ch_0 != rank")
            eigen[(cid, required(eobj, "l", epath, integer))] = cls
        lines = None
        if "lines" in fobj:
            lines = []
            for li, lobj in enumerate(array(fobj["lines"], f"{path}.lines")):
                lpath = f"{path}.lines[{li}]"
                pair = tuple(required(lobj, "c1_pairing", lpath, rationals))
                terms = {(cid, i): sc(v)
                         for cid, coeffs in required(lobj, "c1", lpath, mapping).items()
                         for i, v in enumerate(rationals(coeffs, f"{lpath}.c1[{cid}]")) if v}
                lines.append((pair, CohClass(target, terms)))
        F = BundleModel(
            required(fobj, "name", path, string), target, eigen,
            pulled_back=optional(fobj, "pulled_back", path, boolean, False),
            c1_pairing=tuple(optional(fobj, "c1_pairing", path, rationals, [])),
            lines=lines,
        )
        if F.rank != required(fobj, "rank", path, rational):
            raise InvariantViolation("rank sum", f"{path}: declared rank != eigen rank sum")
        bundles[F.name] = F
    return target, bundles


def load_target(text: str) -> Tuple[TargetModel, Dict[str, BundleModel]]:
    """Parse and fully validate a config document."""
    return target_from_obj(decode_json(text))


def dump_target(t: TargetModel, bundles: List[BundleModel]) -> str:
    return json.dumps(target_to_obj(t, bundles), indent=2, sort_keys=True)
