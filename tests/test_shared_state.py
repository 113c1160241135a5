"""What a process builds once and shares: built-in targets, their bundles
and the slices of P^n's J-function.  Sharing must not let one request see
what another did: a shared object is never changed by its readers, a fresh
series is assembled per call, and a config target never gets a built-in
target's bundle."""

import json
import sys
from pathlib import Path

from orbiqrr.cli import main, resolve_bundle, resolve_target
from orbiqrr.genus0 import j_closed_form_Pn
from orbiqrr.orbtarget import (
    bmu,
    bmu_character,
    projective_space,
    trivial_bundle,
    wps_pullback_line,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_reference_requests_forward_then_reverse(monkeypatch):
    """Every recorded quintic and twisted reference request, run twice in one
    process (forward, then in reverse order), prints its recorded bytes each
    time: no request changes a class, a slice or a bundle another one reads."""
    monkeypatch.delenv("ORBIQRR_CACHE", raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("verify", "workloads"):      # import the benchmark's modules fresh
        monkeypatch.delitem(sys.modules, name, raising=False)
    import verify
    import workloads

    refs = verify.load_references()
    ops = workloads.reference_ops()
    assert len(ops) == len(refs)
    for order in (ops, ops[::-1]):
        changed = [op.rid for op in order if verify.sha256(op.call(None)) != refs[op.rid][0]]
        assert changed == []


def test_a_changed_j_leaves_the_next_one_alone():
    first = j_closed_form_Pn(4, 3)
    want = {k: {s: v.to_obj() for s, v in c.terms.items()} for k, c in first.series.data.items()}
    t = first.target
    for (n, d) in list(first.series.data):
        first.series.set(n, d, t.basis_class("0", "p^4"))
    later = j_closed_form_Pn(4, 3)
    assert later.series is not first.series
    assert {k: {s: v.to_obj() for s, v in c.terms.items()}
            for k, c in later.series.data.items()} == want


def test_a_built_in_target_shares_its_bundles():
    p4, b3 = projective_space(4), bmu(3)
    assert wps_pullback_line(p4, 5) is wps_pullback_line(p4, 5)
    assert wps_pullback_line(p4, 5) is not wps_pullback_line(p4, 4)
    assert trivial_bundle(p4) is trivial_bundle(p4, 1)
    assert trivial_bundle(p4, 2) is not trivial_bundle(p4)
    assert bmu_character(b3, 1) is bmu_character(b3, 1)
    assert bmu_character(b3, 1) is not bmu_character(b3, 4)   # named char4
    assert bmu_character(b3, 4).name == "char4"


def test_a_config_copy_of_p4_builds_its_own_o5(capsys, tmp_path):
    """O5 on a config copy of P4 (also named P4) lives on that copy, after the
    built-in P4 built its O5; invariants labels the copy's own bundle."""
    builtin = wps_pullback_line(projective_space(4), 5)
    assert main(["target", "show", "P4", "--bundle", "O5"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    cfg["bundles"][0]["name"] = "quintic"
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(cfg))
    t, bundles = resolve_target(str(path))
    F = resolve_bundle(t, bundles, "O5")
    assert (t.name, F.name) == ("P4", "O5")
    assert F.target is t and F is not builtin and builtin.target is projective_space(4)
    assert resolve_bundle(t, bundles, "O5") is F
    docs = []
    for target, bundle in (("P4", "O5"), (str(path), "O5"), (str(path), "quintic")):
        assert main(["invariants", "--target", target, "--bundle", bundle,
                     "--max-degree", "2"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert [(d["target"], d["bundle"]) for d in docs] == [
        ("P4", "O5"), ("P4", "O5"), ("P4", "quintic")]
    assert docs[0]["rows"] == docs[1]["rows"] == docs[2]["rows"]
