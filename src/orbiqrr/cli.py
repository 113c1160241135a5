"""The orbiqrr command line.

Subcommands: target, bernoulli, delta, ifunction, mirror-map, invariants,
quantize, check.  All output is deterministic JSON (sorted keys) unless
--format pretty/csv is chosen; rationals print as "p/q" strings, rational
functions as {num, den} coefficient arrays, series as sparse rows.

Exit codes: 0 success (--help and --version too), 1 domain error (a
structured {"error": {"code", "message"}} payload on stdout), 2 usage error.
Every usage error, argparse's own included (a bad int, a missing, unknown or
conflicting flag), prints {"error": {"code": "UsageError", ...}} on stderr
and nothing on stdout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .bernoulli import bernoulli_value
from .cache import ArtifactCache, Hit
from .errors import OrbiqrrError, SchemaError, UsageError
from .exactalg import Scalar, deg_from_json, sc, zero_deg
from .fockquant import (
    build_point_potential,
    commutator_cocycle,
    mat_eye_like,
    quantize_monomial,
    string_residual,
)
from .genus0 import (
    JFunction,
    build_point_table,
    check_universal_equation,
    hypergeometric_modification,
    j_closed_form_Pn,
    load_j_function,
)
from .genus0.correlators import CorrelatorTable
from .genus0.lefschetz import check_extractable, extract_invariants, lefschetz_chain
from .jsonread import array, decode_json, integer, rational, required, rows_of, string
from .loopops import (
    check_delta_symplectomorphism,
    class_Am,
    delta_operator,
    euler_s_values,
    genus1_prefactor_symbol,
    log_delta,
)
from .orbtarget import (
    bmu,
    bmu_character,
    dump_target,
    load_target,
    point,
    projective_space,
    trivial_bundle,
    weighted_projective,
    wps_pullback_line,
)
from .serre import check_serre_cone

Frac = Fraction


# -- target / bundle resolution ---------------------------------------------------


def _number(parse, tok: str, spec: str):
    """parse(tok), or a UsageError that names the bad token and its spec."""
    try:
        return parse(tok)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad number {tok!r} in {spec!r}") from None


def _read_text(path: str, field: str) -> str:
    """The text of a user-named file, or a SchemaError naming the field and path."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise SchemaError(f"{field}: cannot read {path!r} ({e.strerror})") from None


def _builtin_target(spec: str):
    """The built-in target ``spec`` names (in any case), or None."""
    low = spec.lower()
    if low == "point":
        return point()
    if low.startswith("p") and low[1:].isdecimal():
        return projective_space(int(low[1:]))
    if low.startswith("bmu") and low[3:].isdecimal():
        return bmu(int(low[3:]))
    if low.startswith("wps:"):
        return weighted_projective([_number(int, w, spec) for w in spec[4:].split(",")])
    return None


def resolve_target(spec: str):
    """point | Pn | Bmun | WPS:w0,w1,... | path-to-config.json -> (target, bundles);
    a built-in name wins over a file of that name (./P2 names the file)."""
    t = _builtin_target(spec)
    if t is not None:
        return t, {}
    if not os.path.exists(spec):
        raise UsageError(f"unknown target {spec!r}")
    t, bundles = load_target(_read_text(spec, "target"))
    if t.jfunction_file:
        # a config names its J-function file relative to itself
        t.jfunction_file = os.path.abspath(
            os.path.join(os.path.dirname(spec), t.jfunction_file))
    return t, bundles


def resolve_bundle(t, bundles, spec: str):
    if spec in bundles:
        return bundles[spec]
    low = spec.lower()
    if low == "trivial" or low.startswith("trivial:"):
        return trivial_bundle(t, _number(int, spec[8:], spec) if ":" in spec else 1)
    if low.startswith("char:"):
        return bmu_character(t, _number(int, spec[5:], spec))
    if low.startswith("o"):
        return wps_pullback_line(t, _number(int, spec[1:], spec))
    raise UsageError(f"unknown bundle {spec!r} for target {t.name}")


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def target_request(spec: str, t) -> dict:
    """The cache-request fields that name a target.

    A built-in spec is its own name.  A config file is also keyed by the
    sha256 of its bytes and of the jfunction_file it names (when that file
    exists), so that an edited file never serves the entry of its old
    content.
    """
    fields = {"target": spec}
    if _builtin_target(spec) is None:
        fields["config_sha256"] = _file_sha256(spec)
        if t.jfunction_file and os.path.isfile(t.jfunction_file):
            fields["jfunction_sha256"] = _file_sha256(t.jfunction_file)
    return fields


def parse_s_list(text: str):
    """Comma list of s-values starting at s_0; 'L' denotes ln(lambda)."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok in ("L", "l", "ln", "lnlambda"):
            out.append(Scalar.log_lambda())
        elif tok.endswith("L") or tok.endswith("l"):
            out.append(Scalar.log_lambda() * sc(_number(Frac, tok[:-1], text)))
        else:
            out.append(sc(_number(Frac, tok, text)))
    if not out:                  # an empty list would check, or compute, nothing
        raise UsageError(f"no s-value in --s {text!r}")
    return out


# -- serialization -----------------------------------------------------------------


def series_rows(e) -> list:
    rows = []
    t = e.target
    for (n, d), cls in sorted(e.data.items()):
        for (cid, idx), c in sorted(cls.terms.items()):
            rows.append({
                "d": list(d), "zpow": n, "component": cid,
                "basis": t.by_id[cid].basis[idx].name, "coeff": c.to_obj(),
            })
    return rows


def operator_obj(op) -> dict:
    t = op.target
    blocks = {}
    for (n, _d), cls in sorted(op.data.items()):
        blocks[str(n)] = {
            f"{cid}/{t.by_id[cid].basis[idx].name}": c.to_obj()
            for (cid, idx), c in sorted(cls.terms.items())
        }
    return {"kind": "multiplication", "zmin": op.zmin, "zmax": op.zmax, "blocks": blocks}


def emit(obj, fmt: str) -> str:
    if isinstance(obj, Hit):     # a cache hit prints its verified text as stored
        if fmt == "json":
            return obj.text
        obj = obj.doc
    if fmt == "csv":
        rows = obj.get("rows") if isinstance(obj, dict) else None
        if rows is None:
            raise UsageError("--format csv only applies to row-shaped output")
        buf = io.StringIO()
        if rows:
            cols = sorted({k for r in rows for k in r})
            buf.write(",".join(cols) + "\n")
            for r in rows:
                buf.write(",".join(json.dumps(r.get(c, ""), sort_keys=True)
                                   if not isinstance(r.get(c, ""), str)
                                   else str(r.get(c, "")) for c in cols) + "\n")
        return buf.getvalue().rstrip("\n")
    return json.dumps(obj, sort_keys=True, indent=2 if fmt == "pretty" else None)


# -- subcommands -------------------------------------------------------------------


def _cached(cache, request: dict, compute):
    """The payload of ``request`` (computed on a miss), with its cache status;
    a hit is the entry's ``Hit``, printed as stored."""
    payload, status = cache.get_or_compute(request, compute)
    return payload if status == "cached" else {**payload, "cache": status}


def cmd_target(args, cache) -> dict:
    if args.action == "validate":
        t, bundles = load_target(_read_text(args.spec, "target"))
        return {"valid": True, "target": t.name, "bundles": sorted(bundles)}
    t, bundles = resolve_target(args.spec)
    extra = [resolve_bundle(t, bundles, args.bundle)] if args.bundle else []
    return json.loads(dump_target(t, extra))


def cmd_bernoulli(args, cache) -> dict:
    x = _number(Frac, args.x, "--x")
    return {"m": args.m, "x": str(x), "value": str(bernoulli_value(args.m, x))}


def cmd_delta(args, cache):
    # the target is resolved first: target_request reads a config's jfunction_file
    t, bundles = resolve_target(args.target)
    if args.euler:
        if args.check_symplectic:
            raise UsageError("--check-symplectic needs a finite --s list")
        s = None                 # keyed as null and computed on a miss only
    elif args.no_log:            # it would only split one output over two keys
        raise UsageError("--no-log needs --euler")
    else:
        s = parse_s_list(args.s)
    request = {
        "op": "delta", **target_request(args.target, t), "bundle": args.bundle,
        "euler": bool(args.euler), "no_log": bool(args.no_log),
        "s": None if s is None else [x.to_obj() for x in s],
        "zmax": args.zmax, "log": bool(args.log),
    }

    @functools.lru_cache(maxsize=None)
    def bundle():
        """The bundle model, built and validated once, and on a cache hit only
        when the symplectic check needs it (a bad --bundle never stores a hit)."""
        return resolve_bundle(t, bundles, args.bundle)

    checked = None
    if args.check_symplectic:    # one Delta: the check's, which a miss also prints
        checked = check_delta_symplectomorphism(t, bundle(), s, args.zmax, with_operators=True)

    def compute():
        F = bundle()
        vals = s
        if vals is None:
            vals = euler_s_values(args.zmax + 2 * t.dim + 2, include_log=not args.no_log)
        if checked is not None:     # the check's log Delta and Delta, cut to zmax
            built = checked[1] if args.log else checked[2]
            op = built.copy_window(built.zmin, args.zmax, 0)
        elif args.log:
            op = log_delta(t, F, vals, args.zmax)
        else:
            op = delta_operator(t, F, vals, args.zmax)
        out = {"target": t.name, "bundle": F.name, "zmax": args.zmax,
               "operator": operator_obj(op),
               "genus1_prefactor": genus1_prefactor_symbol(t, F)}
        return out

    payload = _cached(cache, request, compute)
    if checked is not None:      # a changed document: a hit's stored text no longer prints
        payload = payload.doc if isinstance(payload, Hit) else payload
        payload["symplectic_check"] = checked[0]
    return payload


def cmd_ifunction(args, cache):
    t, bundles = resolve_target(args.target)
    request = {"op": "ifunction", **target_request(args.target, t), "bundle": args.bundle,
               "max_degree": args.max_degree, "nonequivariant": args.nonequivariant}

    def compute():
        F = resolve_bundle(t, bundles, args.bundle)   # a cache hit skips building it
        j = _builtin_j(t, args)
        i = hypergeometric_modification(t, F, j, nonequivariant=args.nonequivariant)
        return {"target": t.name, "bundle": F.name, "max_degree": args.max_degree,
                "rows": series_rows(i.series)}

    return _cached(cache, request, compute)


def _builtin_j(t, args):
    """The J-function of t through --max-degree: a config's jfunction_file,
    cut to that degree, else the closed form when t equals the built-in P^n
    (a name alone never selects it)."""
    if t.jfunction_file:
        j = load_j_function(t, _read_text(t.jfunction_file, "$.jfunction_file"))
        if j.dmax < args.max_degree:
            raise UsageError(f"--max-degree {args.max_degree} exceeds degree {j.dmax}, "
                             f"the highest in {t.jfunction_file}")
        return JFunction(t, j.series.copy_window(j.series.zmin, j.series.zmax,
                                                 args.max_degree))
    if t.dim >= 1 and t == projective_space(t.dim):
        return j_closed_form_Pn(t.dim, args.max_degree)
    raise UsageError(f"no J-function source for target {t.name}; "
                     "use a P^n target or a config with jfunction_file")


def cmd_mirror_map(args, cache) -> dict:
    t, bundles = resolve_target(args.target)
    F = resolve_bundle(t, bundles, args.bundle)
    f, _g, tau, _j_tw = lefschetz_chain(t, F, _builtin_j(t, args), zmin=0)
    rows = []
    for (_z, d), c in sorted(f.items()):
        rows.append({"series": "F", "d": list(d), "coeff": c.to_obj()})
    for slot, ser in sorted(tau.items()):
        for (_z, d), c in sorted(ser.items()):
            rows.append({"series": f"tau[{slot[0]}/{slot[1]}]", "d": list(d),
                         "coeff": c.to_obj()})
    return {"target": t.name, "bundle": F.name, "rows": rows}


def cmd_invariants(args, cache):
    t, bundles = resolve_target(args.target)
    F = resolve_bundle(t, bundles, args.bundle)
    check_extractable(t, F)      # before the cache: a rejected pair stores nothing
    request = {"op": "invariants", **target_request(args.target, t), "bundle": args.bundle,
               "max_degree": args.max_degree}

    def compute():
        _f, _g, tau, j_tw = lefschetz_chain(t, F, _builtin_j(t, args), zmin=-1)
        table = extract_invariants(j_tw, tau, F)
        rows = [{"d": d, "N": str(table["N"][d]), "n": str(table["n"][d])}
                for d in sorted(table["N"])]
        return {"target": t.name, "bundle": F.name, "max_degree": args.max_degree,
                "rows": rows}

    return _cached(cache, request, compute)


def cmd_quantize(args, cache) -> dict:
    t, bundles = resolve_target(args.target)
    if args.B.lower() == "identity":
        B = mat_eye_like(t)
        bname = "identity"
    elif args.B.lower().startswith("am:"):
        if not args.bundle:
            raise UsageError("--B am:M needs --bundle")
        F = resolve_bundle(t, bundles, args.bundle)
        B = class_Am(t, F, _number(int, args.B.split(":", 1)[1], args.B))
        bname = args.B
    else:
        raise UsageError(f"unknown operator spec {args.B!r} (use identity or am:M)")
    op = quantize_monomial(t, B, args.m, args.K)
    return {"target": t.name, "B": bname, "m": args.m, "K": args.K,
            "operator": op.to_obj()}


def _check_target(args):
    """The target of a check: --target, else the built-in point."""
    return resolve_target(args.target)[0] if args.target else point()


def cmd_check_serre(args, cache) -> dict:
    t, bundles = resolve_target(args.target)
    F = resolve_bundle(t, bundles, args.bundle)
    return check_serre_cone(t, F, parse_s_list(args.s), args.zmax)


def cmd_check_universal(args, cache) -> dict:
    t = _check_target(args)
    if args.table is not None:
        table = _table_from_obj(t, _read_text(args.table, "--table"))
    elif t == point():
        if args.kind == "divisor":     # zero instances would read as a pass
            raise UsageError("check universal --kind divisor needs --table: the built-in "
                             "point table has no degree-2 divisor class")
        table = build_point_table(t, 6 if args.nmax is None else args.nmax)
    else:
        # only the point has a built-in table; never label its numbers as t's
        raise UsageError(f"check universal --target {t.name} needs --table "
                         "(only the point table is built in)")
    return check_universal_equation(args.kind, table)


def cmd_check_cocycle(args, cache) -> dict:
    t = _check_target(args)
    eye = mat_eye_like(t)
    val = commutator_cocycle(t, (eye, 1), (eye, -1), args.K)
    # the double contraction of (hbar/2) g^-1 dd with -(1/2 hbar) g qq: -N/2
    expected = sc(Frac(-len(t.flat_basis), 2))
    return {"pair": "[z^, (1/z)^]", "target": t.name, "K": args.K,
            "scalar": val.to_obj(), "expected": expected.to_obj(), "ok": val == expected}


def cmd_check_string(args, cache) -> dict:
    t = _check_target(args)
    if t != point():
        raise UsageError(f"check string --target {t.name}: only the point "
                         "potential is built in")
    resid = string_residual(t, build_point_potential(t, args.nmax))
    return {"target": "point", "nmax": args.nmax, "residual_zero": resid.is_zero}


def _table_from_obj(t, text: str) -> CorrelatorTable:
    """A table of t from {"rows": [{"d", "insertions": [[cid, idx, k], ...], "value"}]},
    cid a string, idx and k JSON integers and each value a "p/q" string or a JSON integer."""
    table = CorrelatorTable(t)
    for path, row in rows_of(decode_json(text)):
        d = (deg_from_json(row["d"], t.curve_rank, f"{path}.d", t.name) if "d" in row
             else zero_deg(t.curve_rank))
        insertions = []
        for j, ins in enumerate(required(row, "insertions", path, array)):
            ipath = f"{path}.insertions[{j}]"
            if not (isinstance(ins, list) and len(ins) == 3):
                raise SchemaError(f"{ipath}: expected [component, basis index, psibar power]")
            slot = (string(ins[0], ipath), integer(ins[1], ipath))
            if slot not in t.flat_index:
                raise SchemaError(f"{ipath}: no slot {slot} in {t.name}")
            insertions.append((slot, integer(ins[2], ipath)))
        table.set(d, insertions, sc(required(row, "value", path, rational)))
    return table


# -- entry point --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors, printed by main as JSON."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


class _AtLeast(argparse.Action):
    """An int flag with a lower bound: a value below ``least`` is a UsageError."""

    def __init__(self, option_strings, dest, least, **kwargs):
        super().__init__(option_strings, dest, type=int, **kwargs)
        self.least = least

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.least:
            command = parser.prog.split(" ", 1)[1]
            raise UsageError(f"{command} needs {option_string} >= {self.least}, not {value}")
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="orbiqrr", description=__doc__)
    p.add_argument("--format", choices=("json", "pretty", "csv"), default="json")
    p.add_argument("--cache-dir", default=None,
                   help="artifact cache directory (default: $ORBIQRR_CACHE)")
    p.add_argument("--version", action="version", version=f"orbiqrr {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("target", help="build, show, validate target configs")
    t.add_argument("action", choices=("show", "validate"))
    t.add_argument("spec", help="target spec (show) or config file (validate)")
    t.add_argument("--bundle", default=None)
    t.set_defaults(func=cmd_target)

    b = sub.add_parser("bernoulli", help="exact Bernoulli polynomial values")
    b.add_argument("--m", action=_AtLeast, least=0, required=True)
    b.add_argument("--x", required=True, help="rational point p/q")
    b.set_defaults(func=cmd_bernoulli)

    d = sub.add_parser("delta", help="the quantum Riemann-Roch loop operator")
    d.add_argument("--target", required=True)
    d.add_argument("--bundle", required=True)
    s_values = d.add_mutually_exclusive_group(required=True)
    s_values.add_argument("--euler", action="store_true")
    s_values.add_argument("--s", help="comma list s0,s1,... ('L' = ln lambda)")
    d.add_argument("--no-log", action="store_true",
                   help="with --euler, drop the s_0 = ln(lambda) slot")
    d.add_argument("--zmax", action=_AtLeast, least=0, required=True)
    d.add_argument("--log", action="store_true", help="emit log Delta instead of Delta")
    d.add_argument("--check-symplectic", action="store_true")
    d.set_defaults(func=cmd_delta)

    i = sub.add_parser("ifunction", help="hypergeometric modification of the J-function")
    i.add_argument("--target", required=True)
    i.add_argument("--bundle", required=True)
    i.add_argument("--max-degree", action=_AtLeast, least=0, required=True)
    i.add_argument("--nonequivariant", action="store_true")
    i.set_defaults(func=cmd_ifunction)

    mm = sub.add_parser("mirror-map", help="small-space expansion and mirror map")
    mm.add_argument("--target", required=True)
    mm.add_argument("--bundle", required=True)
    mm.add_argument("--max-degree", action=_AtLeast, least=0, required=True)
    mm.set_defaults(func=cmd_mirror_map)

    inv = sub.add_parser("invariants", help="hypersurface genus-0 invariants")
    inv.add_argument("--target", required=True)
    inv.add_argument("--bundle", required=True)
    inv.add_argument("--max-degree", action=_AtLeast, least=1, required=True)
    inv.set_defaults(func=cmd_invariants)

    q = sub.add_parser("quantize", help="quantize an infinitesimally symplectic B z^m")
    q.add_argument("--target", required=True)
    q.add_argument("--bundle", default=None)
    q.add_argument("--B", required=True, help="identity or am:M")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--K", action=_AtLeast, least=0, required=True)
    q.set_defaults(func=cmd_quantize)

    c = sub.add_parser("check", help="identity suites").add_subparsers(dest="what",
                                                                       required=True)
    cs = c.add_parser("serre", help="quantum Serre duality on the Lagrangian cone")
    cs.add_argument("--target", required=True)
    cs.add_argument("--bundle", required=True)
    cs.add_argument("--s", default="0,1/2,1/3",
                    help="comma list s0,s1,... ('L' = ln lambda; default 0,1/2,1/3)")
    cs.add_argument("--zmax", action=_AtLeast, least=0, default=3)
    cs.set_defaults(func=cmd_check_serre)

    # the least --nmax with something to check: a universal equation needs an
    # n >= 4 entry, the string residual a potential term (n >= 3)
    cu = c.add_parser("universal", help="genus-0 universal equations")
    cu.add_argument("--target", help="default: the point")
    cu.add_argument("--kind", choices=("string", "divisor", "dilaton", "trr"),
                    default="string")
    # no default in the group: argparse skips its conflict test for a value
    # that is the default, so the default 6 is applied where --nmax is read
    table = cu.add_mutually_exclusive_group()
    table.add_argument("--table", help="a correlator table file")
    table.add_argument("--nmax", action=_AtLeast, least=4,
                       help="the size of the built-in point table (default 6)")
    cu.set_defaults(func=cmd_check_universal)

    cc = c.add_parser("cocycle", help="the quantization cocycle [z^, (1/z)^] = -N/2")
    cc.add_argument("--target", help="default: the point")
    cc.add_argument("--K", type=int, default=6)
    cc.set_defaults(func=cmd_check_cocycle)

    cst = c.add_parser("string", help="the string equation on the point potential")
    cst.add_argument("--target", help="default: the point")
    cst.add_argument("--nmax", action=_AtLeast, least=3, default=6)
    cst.set_defaults(func=cmd_check_string)
    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cache = ArtifactCache(args.cache_dir or os.environ.get("ORBIQRR_CACHE"))
        print(emit(args.func(args, cache), args.format))
        return 0
    except SystemExit as e:      # --help and --version: a parse error raises UsageError
        return 0 if e.code in (0, None) else 2
    except UsageError as e:
        print(json.dumps({"error": {"code": e.code, "message": str(e)}},
                         sort_keys=True), file=sys.stderr)
        return 2
    except OrbiqrrError as e:
        print(json.dumps({"error": {"code": e.code, "message": str(e)}},
                         sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
