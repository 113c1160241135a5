import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.errors import (
    BasisMismatch,
    IndexOutOfRange,
    InvalidParams,
    InvariantViolation,
    SchemaError,
)
from orbiqrr.exactalg import SCALAR_ONE, Scalar, root_of_unity, sc
from orbiqrr.orbtarget import (
    CohClass,
    bmu,
    bmu_character,
    dump_target,
    load_target,
    point,
    projective_space,
    target_to_obj,
    trivial_bundle,
    weighted_projective,
    wps_pullback_line,
)

from helpers import random_bundle, random_class

Frac = Fraction


class TestBuilders:
    def test_point(self):
        t = point()
        assert len(t.components) == 1
        c = t.components[0]
        assert (c.r, c.age) == (1, 0)
        assert t.orbifold_pairing(t.unit(), t.unit()) == SCALAR_ONE

    def test_invalid_params(self):
        for _ in range(2):          # a builder memoises no exception: each call raises
            with pytest.raises(InvalidParams):
                bmu(0)
            with pytest.raises(InvalidParams):
                projective_space(0)
            with pytest.raises(InvalidParams):
                weighted_projective([1, -2])

    def test_bmu2_pairing(self):
        t = bmu(2)
        one_tw = t.unit("1")
        assert t.orbifold_pairing(one_tw, one_tw) == sc(Frac(1, 2))
        assert t.orbifold_pairing(t.unit("0"), one_tw).is_zero

    def test_bmu_orders_are_element_orders(self):
        t = bmu(4)
        orders = {c.cid: c.r for c in t.components}
        assert orders == {"0": 1, "1": 4, "2": 2, "3": 4}
        assert t.by_id["1"].involution == "3"
        assert t.by_id["2"].involution == "2"

    def test_p1_pairing(self):
        t = projective_space(1)
        one = t.unit()
        pt = t.basis_class("0", "p")
        assert t.orbifold_pairing(one, pt) == SCALAR_ONE
        assert t.orbifold_pairing(one, one).is_zero

    def test_wps112_sectors(self):
        t = weighted_projective([1, 1, 2])
        assert {c.cid for c in t.components} == {"0", "1/2"}
        tw = t.by_id["1/2"]
        assert tw.age == 1
        assert tw.r == 2
        assert tw.dim == 0
        # stacky integrals: int h^2 = 1/2 untwisted, int 1 = 1/2 on the point sector
        assert t.by_id["0"].pairing[0][2] == Frac(1, 2)
        assert tw.pairing[0][0] == Frac(1, 2)

    def test_age_reciprocity_wps(self):
        t = weighted_projective([1, 2, 3])
        for c in t.components:
            p = t.by_id[c.involution]
            assert c.age + p.age == t.dim - c.dim


class TestSharedTargets:
    """A process builds each built-in target once and shares that object."""

    def test_each_builder_returns_one_object(self):
        assert projective_space(4) is projective_space(4)
        assert point() is point()
        assert bmu(3) is bmu(3)
        assert weighted_projective([1, 2, 3]) is weighted_projective((1, 2, 3))
        assert projective_space(3) is not projective_space(4)

    def test_the_cli_and_the_closed_form_share_p4(self):
        from orbiqrr.cli import resolve_target
        from orbiqrr.genus0 import j_closed_form_Pn
        assert resolve_target("P4")[0] is j_closed_form_Pn(4, 2).target

    def test_a_config_target_is_never_the_shared_object(self, tmp_path):
        from orbiqrr.cli import resolve_target
        obj = target_to_obj(projective_space(2), [])
        obj["jfunction_file"] = "j.json"
        cfg = tmp_path / "p2.json"
        cfg.write_text(json.dumps(obj))
        t, _ = resolve_target(str(cfg))
        assert t is not projective_space(2)
        assert t.jfunction_file == str(tmp_path / "j.json")
        assert projective_space(2).jfunction_file is None
        assert resolve_target(str(cfg))[0] is not t

    def test_identity_skips_the_serialised_comparison(self, monkeypatch):
        from orbiqrr.orbtarget import config
        t = projective_space(2)
        monkeypatch.setattr(config, "target_to_obj", None)
        assert t == t and not t != t


class TestBundles:
    def test_bmu3_character_eigendata(self):
        t = bmu(3)
        F = bmu_character(t, 1)
        assert F.eigen_rank("1", 1) == 1          # sector u: eigen index l = 1
        assert F.eigen_rank("1", 0) == 0
        assert F.eigen_chern("1", 1, 0).coeff("1", 0) == SCALAR_ONE
        assert F.age_on("1") == Frac(1, 3)
        assert F.age_on("0") == 0

    def test_eigen_index_bounds(self):
        t = bmu(3)
        F = bmu_character(t, 1)
        with pytest.raises(IndexOutOfRange):
            F.eigen_class("1", 3)

    def test_pulled_back_is_invariant_everywhere(self):
        t = weighted_projective([1, 1, 2])
        F = wps_pullback_line(t, 3)
        for comp in t.components:
            for l in range(1, comp.r):
                assert F.eigen_class(comp.cid, l).is_zero

    def test_o5_chern_character(self):
        t = projective_space(4)
        F = wps_pullback_line(t, 5)
        assert F.rank == 1
        # ch_k = 5^k p^k / k!
        assert F.eigen_chern("0", 0, 2).coeff("0", 2) == sc(Frac(25, 2))
        assert F.c1_pairing == (Frac(5),)

    def test_pn_line_bundle_is_the_wps_pullback(self):
        """On P^n, wps_pullback_line(t, m) is O(m): ch = exp(m p), one line
        ((m,), m p), name O<m>."""
        from orbiqrr.orbtarget import CohClass
        for n in range(1, 6):
            t = projective_space(n)
            for m in range(-2, 8):
                F = wps_pullback_line(t, m)
                ch = CohClass(t, {("0", k): sc(Frac(m ** k, factorial(k))) for k in range(n + 1)})
                assert (F.name, F.pulled_back, F.c1_pairing) == (f"O{m}", True, (Frac(m),))
                assert F.eigen == {("0", 0): ch}
                assert [(p, c.terms) for p, c in F.lines] == \
                    [((Frac(m),), CohClass(t, {("0", 1): sc(m)}).terms)]

    def test_every_builtin_line_bundle_has_consistent_lines(self):
        """O(m), m = -3..6, on the point, Bmu_r, P^1..P^5 and five WPS targets:
        the lines rule of ``BundleModel.validate`` holds on each, and the one
        line is (c1_pairing, the degree-2 part of F^(0) on component 0)."""
        targets = [point(), bmu(2), bmu(3), bmu(5)] + \
            [projective_space(n) for n in range(1, 6)] + \
            [weighted_projective(w) for w in ([1, 1, 2], [1, 2, 3], [1, 1, 1, 1, 2],
                                              [1, 1, 1, 1, 4], [1, 1, 1, 2, 5])]
        count = 0
        for t in targets:
            for m in range(-3, 7):
                F = wps_pullback_line(t, m)
                [(pairing, c1)] = F.lines
                assert pairing == F.c1_pairing
                assert c1 == F.eigen_class("0", 0).degree_part(2)
                count += 1
        assert count == 140

    @pytest.mark.parametrize("pairing, c1, match", [
        (["4"], ["0", "3", "0", "0", "0"], "pairings sum to"),
        (["4"], ["0", "5", "0", "0", "0"], "pairings sum to"),
        (["5"], ["0", "3", "0", "0", "0"], "classes sum to"),
        (["5"], ["0", "0", "5", "0", "0"], "not an untwisted class of degree 2"),
        (["5", "0"], ["0", "5", "0", "0", "0"], "has 2 entries, not 1"),
    ])
    def test_inconsistent_lines_are_rejected(self, pairing, c1, match):
        """A config bundle whose lines disagree with its c1_pairing or its
        Chern character is an InvariantViolation at load, not a bundle that
        compares equal to O(5) and computes another I-function."""
        t = projective_space(4)
        obj = json.loads(dump_target(t, [wps_pullback_line(t, 5)]))
        obj["bundles"][0]["lines"] = [{"c1_pairing": pairing, "c1": {"0": c1}}]
        with pytest.raises(InvariantViolation, match=match):
            load_target(json.dumps(obj))

    def test_rank_sum_violation(self):
        t = bmu(2)
        from orbiqrr.orbtarget import BundleModel, CohClass
        eigen = {
            ("0", 0): CohClass(t, {("0", 0): sc(2)}),
            ("1", 0): CohClass(t, {("1", 0): sc(1)}),
        }
        with pytest.raises(InvariantViolation, match="rank sum"):
            BundleModel("bad", t, eigen)

    def test_involution_violation(self):
        t = bmu(3)
        from orbiqrr.orbtarget import BundleModel, CohClass
        # char-like data but sector u^2 carries the wrong eigen index
        eigen = {
            ("0", 0): CohClass(t, {("0", 0): sc(1)}),
            ("1", 1): CohClass(t, {("1", 0): sc(1)}),
            ("2", 1): CohClass(t, {("2", 0): sc(1)}),
        }
        with pytest.raises(InvariantViolation, match="eigenbundle involution"):
            BundleModel("bad", t, eigen)


class TestPairings:
    def test_twisted_pairing_reduces_at_s_zero(self):
        rng = random.Random(7)
        for t in (bmu(2), weighted_projective([1, 1, 2])):
            F = random_bundle(t, rng)
            for _ in range(20):
                a, b = random_class(t, rng), random_class(t, rng)
                assert t.twisted_pairing(F, [sc(0)] * 3, a, b) == t.orbifold_pairing(a, b)

    def test_twisted_pairing_euler_point(self):
        t = point()
        F = trivial_bundle(t, 1)
        # Euler twist: c(F) = exp(ln(lambda) * 1) = lambda on a point
        s = [Scalar.log_lambda()]
        val = t.twisted_pairing(F, s, t.unit(), t.unit())
        assert val == Scalar.lam(1)

    def test_twisted_pairing_bmu2_twisted_sector_unchanged(self):
        t = bmu(2)
        F = bmu_character(t, 1)
        s = [Scalar.log_lambda(), Scalar.lam(-1)]
        a = t.unit("1")
        assert t.twisted_pairing(F, s, a, a) == sc(Frac(1, 2))

    def test_involution_isometry(self):
        rng = random.Random(3)
        for t in (bmu(4), weighted_projective([1, 1, 2])):
            for _ in range(20):
                a, b = random_class(t, rng), random_class(t, rng)
                lhs = t.orbifold_pairing(a, b)
                rhs = t.orbifold_pairing(t.involution_transport(b), t.involution_transport(a))
                assert lhs == rhs

    def test_pairing_is_symmetric(self):
        rng = random.Random(11)
        t = bmu(3)
        for _ in range(20):
            a, b = random_class(t, rng), random_class(t, rng)
            assert t.orbifold_pairing(a, b) == t.orbifold_pairing(b, a)

    def test_untwisted_multiplication_is_diagonal(self):
        # multiplication by a class pulled back from the untwisted sector
        # stays block-diagonal over the components
        t = weighted_projective([1, 1, 2])
        h = t.basis_class("0", "h")
        rng = random.Random(5)
        b = random_class(t, rng)
        # restrict h through the stored untwisted restriction, then multiply
        for comp in t.components:
            restr = comp.untwisted_restriction
            h_on = t.zero_class()
            for j in range(len(t.by_id["0"].basis)):
                coeff = h.coeff("0", j)
                if coeff.is_zero:
                    continue
                for k, w in enumerate(restr[j]):
                    if w:
                        h_on = h_on + t.basis_class(comp.cid, comp.basis[k].name).scale(coeff * sc(w))
            prod = h_on.mul(b)
            for (cid, _i) in prod.terms:
                assert cid == comp.cid


class TestCohClass:
    def test_cancelling_results_hold_no_zero_term(self):
        t = projective_space(1)
        one, p = t.unit(), t.basis_class("0", "p")
        total = (one + p) + (p.scale(-1))
        assert total.terms == {("0", 0): SCALAR_ONE}
        # (1 + p)(1 - p) = 1 - p^2 = 1: the p terms cancel inside mul
        prod = (one + p).mul(one - p)
        assert prod.terms == {("0", 0): SCALAR_ONE}
        for c in ((one + p) - (one + p), p.scale(0), p.mul(p), -(p - p)):
            assert c.is_zero and c.terms == {}

    def test_public_construction_coerces_and_checks(self):
        t = projective_space(1)
        c = CohClass(t, {("0", 0): 2, ("0", 1): Frac(0)})
        assert c.terms == {("0", 0): sc(2)}
        for slot in (("1", 0), ("0", 2), ("0", -1), ("0", -2)):
            with pytest.raises(BasisMismatch):
                CohClass(t, {slot: 1})
        with pytest.raises(BasisMismatch):
            t.unit() + CohClass(bmu(2), {("1", 0): 1})    # a slot P1 does not have

    def test_int_coefficients_are_stored_as_scalars(self):
        t = projective_space(1)
        c = CohClass(t, {("0", 0): 2, ("0", 1): Frac(1, 3)})
        assert all(isinstance(v, Scalar) for v in c.terms.values())
        assert c.scale(3) == CohClass(t, {("0", 0): sc(6), ("0", 1): sc(1)})
        assert (c + c).terms == {("0", 0): sc(4), ("0", 1): sc(Frac(2, 3))}
        assert c == t.unit().scale(2) + t.basis_class("0", "p").scale(Frac(1, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mul_matches_the_term_by_term_product(self, data):
        """Each term product scaled once equals ca * cb * sc(w), with the same
        canonical form, on rational, lambda-valued and zeta-valued coefficients."""
        t = data.draw(st.sampled_from([projective_space(2), weighted_projective([1, 1, 2]),
                                       weighted_projective([1, 2, 3]), bmu(3)]))
        coeff = st.one_of(
            st.fractions(min_value=-5, max_value=5, max_denominator=4).map(sc),
            st.tuples(st.integers(1, 4), st.integers(-3, 3)).map(
                lambda nk: sc(nk[0]) * Scalar.lam(nk[1]) + sc(1)),
            st.integers(2, 5).map(lambda n: root_of_unity(n, 1) * sc(3) + Scalar.lam(-1)))
        a, b = (CohClass(t, {slot: data.draw(coeff) for slot in t.flat_basis
                             if data.draw(st.booleans())}) for _ in range(2))
        want = {}
        for (cid, ai), ca in a.terms.items():
            comp = t.by_id[cid]
            for bi in range(len(comp.basis)):
                cb = b.terms.get((cid, bi))
                if cb is None:
                    continue
                for gi, w in comp.product(ai, bi).items():
                    if w:
                        want[(cid, gi)] = want.get((cid, gi), sc(0)) + ca * cb * sc(w)
        got = a.mul(b)
        assert {k: v.to_obj() for k, v in got.terms.items()} == \
            {k: v.to_obj() for k, v in want.items() if not v.is_zero}


_coeffs = st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6),
                   min_size=4, max_size=4)
_bmu4 = bmu(4)


@settings(max_examples=40, deadline=None)
@given(_coeffs, _coeffs, st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_pairing_bilinearity(avals, bvals, w):
    from orbiqrr.orbtarget import CohClass
    t = _bmu4
    a = CohClass(t, {(str(i), 0): sc(v) for i, v in enumerate(avals) if v})
    b = CohClass(t, {(str(i), 0): sc(v) for i, v in enumerate(bvals) if v})
    c = t.unit("2")
    lhs = t.orbifold_pairing(a.scale(sc(w)) + b, c)
    rhs = t.orbifold_pairing(a, c) * sc(w) + t.orbifold_pairing(b, c)
    assert lhs == rhs
    assert t.orbifold_pairing(a, b) == t.orbifold_pairing(b, a)


class TestConfig:
    def test_round_trip_builtins(self):
        for t, bundles in (
            (point(), [trivial_bundle(point(), 1)]),
            (bmu(3), []),
            (projective_space(2), []),
            (weighted_projective([1, 1, 2]), []),
        ):
            text = dump_target(t, [])
            t2, _ = load_target(text)
            assert t2 == t
            assert dump_target(t2, []) == text

    def test_bundle_round_trip(self):
        t = projective_space(4)
        F = wps_pullback_line(t, 5)
        text = dump_target(t, [F])
        t2, bundles = load_target(text)
        assert "O5" in bundles
        assert bundles["O5"].c1_pairing == (Frac(5),)
        assert bundles["O5"].eigen_chern("0", 0, 3).coeff("0", 3) == sc(Frac(125, 6))

    def test_hand_written_point_config(self):
        cfg = {
            "name": "point", "dim": 0, "curve_rank": 1,
            "c1_tangent_pairing": ["0"],
            "components": [{
                "id": "0", "r": 1, "age": "0", "involution": "0",
                "basis": [{"name": "1", "degree": 0}],
                "pairing": [["1"]],
                "mult": [[0, 0, 0, "1"]],
                "untwisted_restriction": [["1"]],
            }],
            "bundles": [],
        }
        t, _ = load_target(json.dumps(cfg))
        assert t == point()

    def test_age_reciprocity_rejected(self):
        obj = target_to_obj(weighted_projective([1, 1, 2]), [])
        for c in obj["components"]:
            if c["id"] == "1/2":
                c["age"] = "1/2"
        with pytest.raises(InvariantViolation, match="age reciprocity"):
            load_target(json.dumps(obj))

    def test_negative_age_rejected(self):
        """P1 plus a self-dual sector t of age -1/2 satisfies age reciprocity
        (-1/2 - 1/2 = dim X - dim X_t = 1 - 2), yet t is larger than X itself;
        the same sector at age 0 and dimension 1 (basis degrees 0, 2) is valid."""
        obj = target_to_obj(projective_space(1), [])
        sector = {"id": "t", "r": 2, "age": "-1/2", "involution": "t",
                  "basis": [{"name": "1", "degree": 0}, {"name": "h", "degree": 2},
                            {"name": "h^2", "degree": 4}],
                  "pairing": [["0", "0", "1/2"], ["0", "1/2", "0"], ["1/2", "0", "0"]],
                  "mult": [[1, 1, 2, "1"]]}
        obj["components"].append(sector)
        with pytest.raises(InvariantViolation, match=r"^nonnegative age: age\(t\) = -1/2 < 0$"):
            load_target(json.dumps(obj))
        sector.update(age="0", basis=sector["basis"][:2], pairing=[["0", "1/2"], ["1/2", "0"]],
                      mult=[])
        t, _ = load_target(json.dumps(obj))
        assert (t.dim, t.by_id["t"].dim) == (1, 1)

    def test_ungraded_product_rejected(self):
        """p * p -> p breaks deg(a b) = deg a + deg b; the error names the
        component and the entry."""
        obj = target_to_obj(projective_space(2), [])
        obj["components"][0]["mult"].append([1, 1, 1, "3"])
        with pytest.raises(InvariantViolation,
                           match=r"graded product: component 0: mult entry \(p, p\) -> p"):
            load_target(json.dumps(obj))
        obj["components"][0]["mult"][-1] = [1, 1, 7, "1"]
        with pytest.raises(InvariantViolation, match="graded product.*missing basis entry"):
            load_target(json.dumps(obj))
        obj["components"][0]["mult"][-1] = [1, 1, 1, "0"]   # a zero entry carries no degree
        assert load_target(json.dumps(obj))[0].dim == 2

    @staticmethod
    def _with_partners(a_size: int, b_size: int) -> dict:
        """P1 plus a pair of r = 2 partner components a, b of dimension 1
        with a_size and b_size basis classes; a's pairing is the identity
        block, b's its transpose."""
        obj = target_to_obj(projective_space(1), [])
        obj["name"] = "partners"

        def comp(cid, partner, n, m):
            basis = [{"name": "1", "degree": 0}] + [
                {"name": f"p{i}", "degree": 2} for i in range(1, n)]
            pairing = [["1" if i == j else "0" for j in range(m)] for i in range(n)]
            return {"id": cid, "r": 2, "age": "0", "involution": partner,
                    "basis": basis, "pairing": pairing, "mult": []}

        obj["components"] += [comp("a", "b", a_size, b_size), comp("b", "a", b_size, a_size)]
        return obj

    def test_partners_with_unequal_bases_rejected(self):
        assert len(load_target(json.dumps(self._with_partners(2, 2)))[0].flat_basis) == 6
        with pytest.raises(InvariantViolation,
                           match="pairing dimensions: .* a and its partner b have bases"):
            load_target(json.dumps(self._with_partners(2, 3)))

    def test_partners_with_unequal_bases_fail_cli_validation(self, tmp_path, capsys):
        from orbiqrr.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self._with_partners(2, 3)))
        assert main(["target", "validate", str(bad)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "InvariantViolation"
        assert err["message"].startswith("pairing dimensions")

    @pytest.mark.parametrize("pairing", [[["1", "1"], ["1", "1"]], [["0", "0"], ["0", "0"]],
                                         [["1", "2"], ["2", "4"]]])
    def test_singular_pairing_rejected(self, pairing):
        """Symmetric 2x2 blocks of determinant 0 on P1's component."""
        obj = target_to_obj(projective_space(1), [])
        obj["components"][0]["pairing"] = pairing
        with pytest.raises(InvariantViolation,
                           match="pairing nondegenerate: pairing of 0 is degenerate"):
            load_target(json.dumps(obj))

    @pytest.mark.parametrize("rows", [
        [["1", "0", "0"]],                         # one row, P2 has three
        [["1", "0"], ["0", "1"], ["0", "0"]],      # rows of two entries
    ])
    def test_restriction_of_the_wrong_shape_rejected(self, rows, tmp_path, capsys):
        from orbiqrr.cli import main
        obj = target_to_obj(projective_space(2), [])
        obj["components"][0]["untwisted_restriction"] = rows
        with pytest.raises(InvariantViolation, match="untwisted restriction: restriction "
                           "to 0 must have 3 rows"):
            load_target(json.dumps(obj))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["target", "validate", str(bad)]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvariantViolation"

    def test_schema_error_paths(self):
        with pytest.raises(SchemaError, match=r"\$"):
            load_target("not json")
        with pytest.raises(SchemaError, match="components"):
            load_target(json.dumps({"name": "x", "dim": 0, "curve_rank": 1}))
        obj = target_to_obj(point(), [])
        obj["components"][0]["basis"][0]["degree"] = 3
        with pytest.raises(SchemaError, match="odd-degree"):
            load_target(json.dumps(obj))

    def test_wps_config_reproduces_builtin(self):
        t = weighted_projective([1, 1, 2])
        t2, _ = load_target(dump_target(t, []))
        assert t2 == t
        assert [c.cid for c in t2.components] == [c.cid for c in t.components]
