"""Target/bundle config documents: JSON with bit-exact rational round-trips.

Schema (rationals are "p/q" strings or JSON integers, never floats or bools;
ints nonnegative JSON integers, lists JSON lists, and every pairing vector has
curve_rank entries, one per curve class):

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
from fractions import Fraction
from typing import Dict, List, Tuple

from ..errors import InvariantViolation, SchemaError
from ..exactalg import sc
from .model import BasisClass, BundleModel, CohClass, Component, TargetModel

Frac = Fraction


def decode_json(text: str):
    """The value of a JSON document, or a SchemaError at $."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"$: invalid JSON ({e})") from None


def _frac(s, path: str) -> Frac:
    if isinstance(s, str) or type(s) is int:     # no float (inexact) or bool
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"{path}: expected a rational 'p/q', got {s!r}")


def _int(x, path: str) -> int:
    if type(x) is not int or x < 0:     # no bool, float or string
        raise SchemaError(f"{path}: expected a nonnegative integer, got {x!r}")
    return x


def _list(x, path: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"{path}: expected a list, got {x!r}")
    return x


def _str(x, path: str) -> str:
    if not isinstance(x, str):
        raise SchemaError(f"{path}: expected a string, got {x!r}")
    return x


def _req(obj, key, path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj[key]


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
    name = _str(_req(obj, "name", "$"), "$.name")
    dim = _int(_req(obj, "dim", "$"), "$.dim")
    curve_rank = _int(_req(obj, "curve_rank", "$"), "$.curve_rank")
    comps = []
    comp_objs = _req(obj, "components", "$")
    if not isinstance(comp_objs, list) or not comp_objs:
        raise SchemaError("$.components: expected a nonempty list")
    for ci, cobj in enumerate(comp_objs):
        path = f"$.components[{ci}]"
        basis = []
        for bi, bobj in enumerate(_list(_req(cobj, "basis", path), f"{path}.basis")):
            bpath = f"{path}.basis[{bi}]"
            degree = _int(_req(bobj, "degree", bpath), f"{bpath}.degree")
            if degree % 2:
                raise SchemaError(f"{bpath}.degree: odd-degree classes are not supported")
            cp = tuple(_frac(x, f"{bpath}.curve_pairing")
                       for x in _list(bobj.get("curve_pairing", []), f"{bpath}.curve_pairing"))
            basis.append(BasisClass(_str(_req(bobj, "name", bpath), f"{bpath}.name"), degree, cp))
        pairing = [[_frac(x, f"{path}.pairing") for x in _list(row, f"{path}.pairing")]
                   for row in _list(_req(cobj, "pairing", path), f"{path}.pairing")]
        mult = {}
        for row in _list(cobj.get("mult", []), f"{path}.mult"):
            if len(_list(row, f"{path}.mult")) != 4:
                raise SchemaError(f"{path}.mult: rows are [a, b, g, 'p/q']")
            a, b, g = (_int(x, f"{path}.mult") for x in row[:3])
            mult.setdefault((a, b), {})[g] = _frac(row[3], f"{path}.mult")
        restriction = None
        if "untwisted_restriction" in cobj:
            rpath = f"{path}.untwisted_restriction"
            restriction = [[_frac(x, rpath) for x in _list(row, rpath)]
                           for row in _list(cobj["untwisted_restriction"], rpath)]
        comps.append(Component(
            cid=str(_req(cobj, "id", path)),
            r=_int(_req(cobj, "r", path), f"{path}.r"),
            age=_frac(_req(cobj, "age", path), f"{path}.age"),
            involution=str(_req(cobj, "involution", path)),
            basis=basis, pairing=pairing, mult=mult,
            untwisted_restriction=restriction,
        ))
    c1t = tuple(_frac(x, "$.c1_tangent_pairing")
                for x in _list(obj.get("c1_tangent_pairing", []), "$.c1_tangent_pairing"))
    target = TargetModel(name, dim, curve_rank, comps,
                         c1_tangent_pairing=c1t,
                         jfunction_file=obj.get("jfunction_file"))
    bundles = {}
    for fi, fobj in enumerate(_list(obj.get("bundles", []), "$.bundles")):
        path = f"$.bundles[{fi}]"
        eigen = {}
        for ei, eobj in enumerate(_list(_req(fobj, "eigen", path), f"{path}.eigen")):
            epath = f"{path}.eigen[{ei}]"
            cid = str(_req(eobj, "component", epath))
            if cid not in target.by_id:
                raise SchemaError(f"{epath}.component: unknown component {cid!r}")
            comp = target.by_id[cid]
            ch = _list(_req(eobj, "ch", epath), f"{epath}.ch")
            if len(ch) != len(comp.basis):
                raise SchemaError(f"{epath}.ch: expected {len(comp.basis)} coefficients")
            cls = CohClass(target, {
                (cid, i): sc(_frac(x, f"{epath}.ch[{i}]")) for i, x in enumerate(ch)
            })
            rank = _frac(_req(eobj, "rank", epath), f"{epath}.rank")
            head = cls.coeff(cid, 0)
            if (head.is_zero and rank != 0) or (not head.is_zero and head.as_fraction() != rank):
                raise InvariantViolation("eigen rank consistency",
                                         f"{epath}: ch_0 != rank")
            eigen[(cid, _int(_req(eobj, "l", epath), f"{epath}.l"))] = cls
        lines = None
        if "lines" in fobj:
            lines = []
            for li, lobj in enumerate(_list(fobj["lines"], f"{path}.lines")):
                lpath = f"{path}.lines[{li}]"
                pair = tuple(_frac(x, f"{lpath}.c1_pairing") for x in
                             _list(_req(lobj, "c1_pairing", lpath), f"{lpath}.c1_pairing"))
                c1 = _req(lobj, "c1", lpath)
                if not isinstance(c1, dict):
                    raise SchemaError(f"{lpath}.c1: expected an object, got {c1!r}")
                terms = {}
                for cid, coeffs in c1.items():
                    for i, x in enumerate(_list(coeffs, f"{lpath}.c1[{cid}]")):
                        v = _frac(x, f"{lpath}.c1[{cid}]")
                        if v:
                            terms[(cid, i)] = sc(v)
                lines.append((pair, CohClass(target, terms)))
        F = BundleModel(
            _str(_req(fobj, "name", path), f"{path}.name"), target, eigen,
            pulled_back=bool(fobj.get("pulled_back", False)),
            c1_pairing=tuple(_frac(x, f"{path}.c1_pairing")
                             for x in _list(fobj.get("c1_pairing", []), f"{path}.c1_pairing")),
            lines=lines,
        )
        declared = _frac(_req(fobj, "rank", path), f"{path}.rank")
        if F.rank != declared:
            raise InvariantViolation("rank sum", f"{path}: declared rank != eigen rank sum")
        bundles[F.name] = F
    return target, bundles


def load_target(text: str) -> Tuple[TargetModel, Dict[str, BundleModel]]:
    """Parse and fully validate a config document."""
    return target_from_obj(decode_json(text))


def dump_target(t: TargetModel, bundles: List[BundleModel]) -> str:
    return json.dumps(target_to_obj(t, bundles), indent=2, sort_keys=True)
