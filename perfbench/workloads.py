"""The benchmark's three workloads: catalogues, seeded rounds and operations.

Every workload is a closed loop with one client.  A run repeats *rounds*; a
round holds the same multiset of operations every time (the catalogue) in a
freshly seeded order, so the mix a run measures does not depend on the seed
or on where the clock stops.  The random rationals of the catalogue (s-lists,
infinitesimally symplectic matrices) are drawn once from CATALOGUE_SEED.  The
run's seed chooses the order and every input that leaves the amount of work
unchanged: the sign of each s-list and of each random matrix, and which
character of a dual pair j, r - j a Bmu_r request uses.  Inputs whose cost
depends on the seed would move the median and the tail from seed to seed.

An operation is an ``Op``: a request id, a callable that returns the
operation's JSON-ready output (raising on failure), and the check that the
output must pass (see verify.py).  CLI operations go through the in-process
``orbiqrr.cli.main``; the others call the public library API.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from orbiqrr import cli, fockquant, linalg, loopops, serre
from orbiqrr.exactalg import SCALAR_ZERO, sc
from orbiqrr.genus0 import correlators
from orbiqrr.orbtarget import (
    bmu,
    bmu_character,
    point,
    weighted_projective,
    wps_pullback_line,
)

WORKLOADS = ("quintic", "twisted", "identities")
# Seed of the catalogue's random rationals; fixed, so every run does the same work.
CATALOGUE_SEED = 506111


class OpFailed(Exception):
    """An operation exited nonzero or raised."""


@dataclass
class Op:
    rid: str                       # request id: what the operation computes
    call: Callable[[Optional[str]], dict]   # cache directory -> output
    check: str = "ref"             # ref | quintic | symplectic | flags | half | none
    flags: tuple = ()
    cacheable: bool = False
    weight: int = 1                # appearances per round


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- CLI operations ---------------------------------------------------------------


def run_cli(argv: List[str], cache_dir: Optional[str] = None) -> dict:
    """One in-process CLI call; returns its JSON output without the cache status."""
    if cache_dir is not None:
        argv = ["--cache-dir", cache_dir] + argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit {code}: {(out.getvalue() + err.getvalue())[:300]}")
    doc = json.loads(out.getvalue())
    doc.pop("cache", None)
    return doc


def cli_op(argv: List[str], **kw) -> Op:
    argv = [str(a) for a in argv]
    cacheable = kw.pop("cacheable", False)

    def call(cache_dir):
        return run_cli(argv, cache_dir if cacheable else None)

    return Op(rid="cli " + " ".join(argv), call=call, cacheable=cacheable, **kw)


# -- library API operations ---------------------------------------------------------


def _class_obj(t, cls) -> dict:
    return {f"{cid}/{t.by_id[cid].basis[idx].name}": c.to_obj()
            for (cid, idx), c in sorted(cls.terms.items())}


def serre_m_delta(t, F, zmax: int) -> dict:
    """The Serre-dual image M(F) * Delta(F) of the Euler-twisted loop operator."""
    M = serre.serre_M_operator(t, F)
    s = loopops.euler_s_values(zmax + 2 * t.dim + 2)
    D = loopops.delta_operator(t, F, s, zmax)
    return {"target": t.name, "bundle": F.name, "zmax": zmax,
            "blocks": {str(n): _class_obj(t, cls.mul(M))
                       for n, cls in sorted(D.mult_classes.items())}}


def universal(kind: str, nmax: int) -> dict:
    table = correlators.build_point_table(point(), nmax)
    rep = correlators.check_universal_equation(kind, table)
    return {"kind": kind, "nmax": nmax, "instances": rep["instances"], "ok": rep["ok"]}


def string_residual(nmax: int) -> dict:
    t = point()
    pot = fockquant.build_point_potential(t, nmax)
    return {"nmax": nmax, "residual_zero": fockquant.string_residual(t, pot).is_zero}


def cocycle(t, A, B) -> dict:
    """[A^, B^] - {A, B}^ by its residual, against the closed form."""
    K = abs(A[1]) + abs(B[1]) + 3
    val = fockquant.commutator_cocycle(t, A, B, K)
    closed = fockquant.hamiltonian_cocycle(
        fockquant.quantize_monomial(t, A[0], A[1], K),
        fockquant.quantize_monomial(t, B[0], B[1], K))
    return {"value": val.to_obj(), "closed_form": closed.to_obj(), "agree": val == closed}


def unit_cocycle(K: int) -> dict:
    t = point()
    eye = fockquant.mat_eye_like(t)
    return {"K": K, "value": fockquant.commutator_cocycle(t, (eye, 1), (eye, -1), K).to_obj()}


def adjointness(t, F) -> dict:
    """A_m is self-adjoint up to (-1)^m for m = 2..9."""
    g = linalg.gram_matrix(t)
    g_inv = linalg.mat_inv(g)
    bad = []
    for m in range(2, 10):
        mult = linalg.multiplication_matrix(t, loopops.class_Am(t, F, m))
        adj = linalg.mat_mul(g_inv, linalg.mat_mul(linalg.mat_transpose(mult), g))
        sign = sc((-1) ** (m % 2))
        if not linalg.mat_is_zero([[x - y * sign for x, y in zip(r1, r2)]
                                   for r1, r2 in zip(adj, mult)]):
            bad.append(m)
    return {"target": t.name, "bundle": F.name, "ok": not bad, "bad_m": bad}


def symplectomorphism(t, F, s, zmax: int) -> dict:
    rep = loopops.check_delta_symplectomorphism(t, F, s, zmax)
    return {"symplectic": rep["symplectic"], "log_residual_zero": rep["log_residual_zero"]}


def api_op(rid: str, fn, *args, **kw) -> Op:
    return Op(rid=rid, call=lambda _cache_dir: fn(*args), **kw)


# -- random inputs ------------------------------------------------------------------


def _rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 7))


def _s_text(values) -> str:
    return ",".join(str(v) for v in values)


def _signed_s(text: str, sign: int) -> str:
    """An s-list text times sign; 'L' (ln lambda) becomes '-1L'.  A list that
    starts with '-' must be passed as --s=<list>."""
    if sign > 0:
        return text
    out = []
    for tok in text.split(","):
        value = Fraction(tok[:-1] or 1) if tok.endswith("L") else Fraction(tok)
        out.append(f"{-value}L" if tok.endswith("L") else str(-value))
    return ",".join(out)


def _symmetric_matrix(t, rng: random.Random, anti: bool):
    """B = G^{-1} S with S symmetric (B* = B) or antisymmetric (B* = -B)."""
    n = len(t.flat_basis)
    s = [[SCALAR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if anti else i, n):
            v = sc(Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3)))
            s[i][j] = v
            s[j][i] = -v if anti else v
    return linalg.mat_mul(linalg.mat_inv(linalg.gram_matrix(t)), s)


def _symplectic_monomial(t, fixed: random.Random, sign: int, m: int):
    """A random B with B z^m infinitesimally symplectic: B* = (-1)^(m+1) B,
    drawn from the catalogue's generator and multiplied by sign."""
    B = _symmetric_matrix(t, fixed, anti=(m % 2 == 0))
    return [[x * sc(sign) for x in row] for row in B], m


# -- catalogues ---------------------------------------------------------------------

# s-lists for `delta --s ... --check-symplectic` (s_0 must be 0 or a multiple
# of ln(lambda) for exp to exist); the seed chooses each one's sign, and
# references are recorded for both.
S_POOL = ("0,1/2,-2/3,1/5", "0,-1/3,1/4,0,2/7", "L,3/2,1/7,-1/2")

# (target, bundle or None for a Bmu character chosen by the seed, zmax, --log)
DELTA_EULER = (
    ("point", "trivial", 8, False), ("point", "trivial", 6, True),
    ("Bmu2", None, 8, False), ("Bmu3", None, 7, False), ("Bmu4", None, 6, True),
    ("Bmu5", None, 8, False), ("Bmu6", None, 5, False), ("Bmu7", None, 6, False),
    ("Bmu8", None, 4, True), ("Bmu8", None, 7, False),
    ("WPS:1,1,2", "O1", 6, False), ("WPS:1,2,3", "O2", 5, False),
    ("WPS:1,2,3", "O1", 8, True),
)
# (target, bundle or None for a Bmu character chosen by the seed, zmax, S_POOL index)
DELTA_SYMPLECTIC = (("P1", "O1", 4, 0), ("Bmu3", None, 4, 1), ("Bmu5", None, 3, 2),
                    ("WPS:1,1,2", "O1", 3, 2), ("WPS:1,2,3", "O2", 3, 0))
SERRE_CONE = (("P1", "O1"), ("Bmu3", None), ("Bmu5", None),
              ("WPS:1,1,2", "O1"), ("WPS:1,2,3", "O2"))
IFUNCTION_EQ = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 4))
SERRE_M = ((5, 3), (7, 3), (9, 3), (11, 3), (12, 3))


def _char(target: str, bundle: Optional[str], j: int) -> str:
    return bundle if bundle is not None else f"char:{j}"


def _dual_pair(target: str) -> tuple:
    r = int(target[3:])
    return (1, r - 1) if r > 2 else (1,)


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def quintic_ops(rng: random.Random, tiny: bool = False) -> List[Op]:
    """`invariants` (the whole pipeline) at degrees 2..5; `mirror-map` and
    `ifunction --nonequivariant` on P^n/O(n+1) at the degrees below, so that
    two rounds fit a 30 s run.  The P1 requests balance the cheap and the
    expensive side of the cluster of similar-cost requests (~0.5 s here:
    degree 4 on P2, 3 on P3, 2 on P4), so that the median falls inside it."""
    if tiny:
        degrees = {2: (2,)}
        ops = [cli_op(["invariants", "--target", "P4", "--bundle", "O5", "--max-degree", 2],
                      check="quintic")]
    else:
        degrees = {1: (4, 5), 2: (2, 3, 4, 5), 3: (2, 3, 4), 4: (2, 3)}
        ops = [cli_op(["invariants", "--target", "P4", "--bundle", "O5", "--max-degree", d],
                      check="quintic") for d in (2, 3, 4, 5)]
    for n, ds in degrees.items():
        for d in ds:
            ops.append(cli_op(["mirror-map", "--target", f"P{n}", "--bundle", f"O{n + 1}",
                               "--max-degree", d]))
            ops.append(cli_op(["ifunction", "--target", f"P{n}", "--bundle", f"O{n + 1}",
                               "--max-degree", d, "--nonequivariant"]))
    return ops


def twisted_ops(rng: random.Random, tiny: bool = False) -> List[Op]:
    fixed = random.Random(CATALOGUE_SEED)
    ops = []
    for n, d in (((1, 2),) if tiny else IFUNCTION_EQ):
        ops.append(cli_op(["ifunction", "--target", f"P{n}", "--bundle", f"O{n + 1}",
                           "--max-degree", d], cacheable=True, weight=4))
    for target, bundle, zmax, log in (DELTA_EULER[:3] if tiny else DELTA_EULER):
        b = _char(target, bundle, rng.choice(_dual_pair(target)) if bundle is None else 0)
        ops.append(cli_op(["delta", "--target", target, "--bundle", b, "--euler",
                           "--zmax", zmax] + (["--log"] if log else []),
                          cacheable=True, weight=4))
    for target, bundle, zmax, k in (DELTA_SYMPLECTIC[1:2] if tiny else DELTA_SYMPLECTIC):
        b = _char(target, bundle, rng.choice(_dual_pair(target)) if bundle is None else 0)
        ops.append(cli_op(["delta", "--target", target, "--bundle", b,
                           f"--s={_signed_s(S_POOL[k], _sign(rng))}", "--zmax", zmax,
                           "--check-symplectic"],
                          check="symplectic", cacheable=True))
    for target, bundle in (SERRE_CONE[:1] if tiny else SERRE_CONE):
        b = _char(target, bundle, rng.choice(_dual_pair(target)) if bundle is None else 0)
        sign = _sign(rng)
        s = [0] + [_rand_frac(fixed) * sign for _ in range(2)]
        ops.append(cli_op(["check", "serre", "--target", target, "--bundle", b,
                           "--s", _s_text(s), "--zmax", 3], check="flags", flags=("ok",)))
    for r, zmax in (((5, 2),) if tiny else SERRE_M):
        t = bmu(r)
        j = rng.choice(_dual_pair(f"Bmu{r}"))
        F = bmu_character(t, j)
        ops.append(api_op(f"api serre-m-delta Bmu{r} char:{j} zmax {zmax}",
                          serre_m_delta, t, F, zmax))
    return ops


def identities_ops(rng: random.Random, tiny: bool = False) -> List[Op]:
    fixed = random.Random(CATALOGUE_SEED)
    ops = []
    for kind in ("string", "dilaton", "trr"):
        for nmax in ((6,) if tiny else (6, 7, 8, 9)):
            ops.append(api_op(f"api universal {kind} nmax {nmax}", universal, kind, nmax,
                              check="flags", flags=("ok",)))
    for nmax in ((6,) if tiny else (6, 7, 8, 9)):
        ops.append(api_op(f"api string-residual nmax {nmax}", string_residual, nmax,
                          check="flags", flags=("residual_zero",)))
    pairs = ((1, -1), (-2, 2)) if tiny else ((1, -1), (-2, 2), (3, -3), (1, 2), (0, -1), (-3, 1))
    for t in ((point(),) if tiny else (point(), bmu(2), bmu(3))):
        for m1, m2 in pairs:
            A = _symplectic_monomial(t, fixed, _sign(rng), m1)
            B = _symplectic_monomial(t, fixed, _sign(rng), m2)
            ops.append(api_op(f"api cocycle {t.name} m={m1},{m2} #{len(ops)}", cocycle, t, A, B,
                              check="flags", flags=("agree",)))
    for K in ((6,) if tiny else (6, 8)):
        ops.append(api_op(f"api unit-cocycle K {K}", unit_cocycle, K, check="half"))
    targets = []
    for r in ((2,) if tiny else (2, 3, 4, 5, 6)):
        t = bmu(r)
        targets.append((t, bmu_character(t, rng.choice(_dual_pair(f"Bmu{r}")))))
    for w, m in (() if tiny else (((1, 1, 2), 1), ((1, 2, 3), 2))):
        t = weighted_projective(list(w))
        targets.append((t, wps_pullback_line(t, m)))
    for t, F in targets:
        ops.append(api_op(f"api adjointness {t.name} {F.name}", adjointness, t, F,
                          check="flags", flags=("ok",)))
        for zmax in ((3,) if tiny else (3, 5)):
            sign = _sign(rng)
            s = [sc(0)] + [sc(_rand_frac(fixed) * sign) for _ in range(3)]
            ops.append(api_op(f"api symplectomorphism {t.name} {F.name} zmax {zmax} "
                              f"s {_s_text(x.to_obj() for x in s)}",
                              symplectomorphism, t, F, s, zmax, check="flags",
                              flags=("symplectic", "log_residual_zero")))
    return ops


CATALOGUES = {"quintic": quintic_ops, "twisted": twisted_ops, "identities": identities_ops}


def warmup_ops(workload: str) -> List[Op]:
    """Cheap operations run before timing: they fill the cyclotomic_poly cache
    and the lazily built state every later operation relies on."""
    if workload == "quintic":
        return [cli_op(["mirror-map", "--target", "P2", "--bundle", "O3", "--max-degree", 2]),
                cli_op(["invariants", "--target", "P4", "--bundle", "O5", "--max-degree", 1],
                       check="quintic")]
    if workload == "twisted":
        t = bmu(12)
        return [cli_op(["delta", "--target", "Bmu8", "--bundle", "char:1", "--euler",
                        "--zmax", 3]),
                api_op("api serre-m-delta Bmu12 char:1 zmax 1", serre_m_delta, t,
                       bmu_character(t, 1), 1, check="none")]
    return [api_op("api universal trr nmax 6", universal, "trr", 6,
                   check="flags", flags=("ok",))]


class Plan:
    """The seeded request stream of one workload: round after round."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.rng = random.Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))
        self.catalogue = CATALOGUES[workload](self.rng, tiny)
        self.warmup = warmup_ops(workload)

    def next_round(self) -> List[Op]:
        ops = [op for op in self.catalogue for _ in range(op.weight)]
        self.rng.shuffle(ops)
        return ops


def reference_ops() -> List[Op]:
    """Every operation whose output is compared with a recorded reference, over
    every choice a seed can make."""
    ops = quintic_ops(random.Random(0)) + [
        op for op in warmup_ops("quintic") + warmup_ops("twisted")
        if op.check in ("ref", "quintic", "symplectic")]
    for n, d in IFUNCTION_EQ + ((1, 2),):
        ops.append(cli_op(["ifunction", "--target", f"P{n}", "--bundle", f"O{n + 1}",
                           "--max-degree", d]))
    for target, bundle, zmax, log in DELTA_EULER:
        for j in (_dual_pair(target) if bundle is None else (0,)):
            ops.append(cli_op(["delta", "--target", target, "--bundle", _char(target, bundle, j),
                               "--euler", "--zmax", zmax] + (["--log"] if log else [])))
    for target, bundle, zmax, k in DELTA_SYMPLECTIC:
        for j in (_dual_pair(target) if bundle is None else (0,)):
            for sign in (1, -1):
                ops.append(cli_op(["delta", "--target", target,
                                   "--bundle", _char(target, bundle, j),
                                   f"--s={_signed_s(S_POOL[k], sign)}", "--zmax", zmax,
                                   "--check-symplectic"]))
    for r, zmax in SERRE_M + ((5, 2),):
        t = bmu(r)
        for j in _dual_pair(f"Bmu{r}"):
            ops.append(api_op(f"api serre-m-delta Bmu{r} char:{j} zmax {zmax}",
                              serre_m_delta, t, bmu_character(t, j), zmax))
    seen = set()
    return [op for op in ops if not (op.rid in seen or seen.add(op.rid))]
