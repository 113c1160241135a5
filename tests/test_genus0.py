import math
import re
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbiqrr.errors import (
    AssumptionViolated,
    BasisMismatch,
    DimensionMismatch,
    InsufficientTable,
    LogObstruction,
    NormalFormViolation,
    PoleAtZero,
    PositivityViolated,
    SchemaError,
)
from orbiqrr.exactalg import SCALAR_ONE, Scalar, TruncSeries, sc, series_invert
from orbiqrr.fockquant import build_point_potential
from orbiqrr.genus0 import (
    CorrelatorTable,
    build_point_table,
    check_universal_equation,
    extract_invariants,
    hypergeometric_modification,
    j_closed_form_Pn,
    load_j_function,
    mirror_map,
    nonequivariant_limit,
    novikov_scale,
    point_correlators,
    quintic_pipeline,
    small_expansion,
)
from orbiqrr.genus0.jfunction import JFunction, _factor_coefficients, _power_rows, _weigh_rows
from orbiqrr.genus0.lefschetz import lefschetz_chain
from orbiqrr.givental import GiventalElement
from orbiqrr.orbtarget import (
    BundleModel,
    CohClass,
    bmu,
    dump_target,
    load_target,
    point,
    projective_space,
    weighted_projective,
    wps_pullback_line,
)

from helpers import own_point_table, p1_table, split_bundle
from oracles import (
    ci_instanton_numbers,
    pn_j_degree_series,
    quintic_instanton_numbers,
    s_mul,
    string_recursion_point_correlator,
)

Frac = Fraction


class TestPointCorrelators:
    def test_three_point(self):
        assert point_correlators(3, [0, 0, 0]) == 1

    def test_spec_values(self):
        assert point_correlators(4, [1, 0, 0, 0]) == 1
        assert point_correlators(5, [1, 1, 0, 0, 0]) == 2

    def test_against_string_recursion_oracle(self):
        for n in range(3, 9):
            from orbiqrr.genus0.correlators import _compositions
            for kp in _compositions(n - 3, n):
                assert point_correlators(n, list(kp)) == \
                    string_recursion_point_correlator(tuple(kp))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            point_correlators(4, [2, 0, 0, 0])
        with pytest.raises(DimensionMismatch):
            point_correlators(2, [0, 0])


class TestUniversalEquations:
    def test_point_table_passes_all(self):
        t = point()
        table = build_point_table(t, 8)
        for kind in ("string", "dilaton", "trr"):
            report = check_universal_equation(kind, table)
            assert report["ok"], report
            assert report["instances"] > 0
        # divisor is vacuous on a point (no degree-2 classes)
        report = check_universal_equation("divisor", table)
        assert report["ok"] and report["instances"] == 0

    def test_point_table_is_kept_per_nmax_and_left_unchanged(self):
        """``build_point_table`` keeps one table per target and nmax, and the
        readers that share it (the checkers, the point potential) leave its
        entries as they were: the same keys, holding the same objects."""
        t = point()
        table = build_point_table(t, 7)
        assert build_point_table(t, 7) is table
        assert build_point_table(t, 6) is not table
        before = dict(table.entries)
        for kind in ("string", "dilaton", "trr", "divisor"):
            assert check_universal_equation(kind, table)["ok"]
        build_point_potential(t, 7)
        assert build_point_table(t, 7) is table
        assert table.entries.keys() == before.keys()
        assert all(table.entries[k] is v for k, v in before.items())

    def test_corrupted_entry_pinpointed(self):
        table = own_point_table(6)
        slot = ("0", 0)
        table.set((0,), [(slot, 1), (slot, 0), (slot, 0), (slot, 0)], sc(2))
        report = check_universal_equation("string", table)
        assert not report["ok"]
        assert any(v["n"] == 4 for v in report["violations"])
        # residual of the corrupted instance is 2 - 1 = 1
        bad = [v for v in report["violations"] if v["n"] == 4]
        assert bad[0]["residual"] == "1"

    def test_missing_entries_reported(self):
        t = point()
        table = CorrelatorTable(t)
        slot = ("0", 0)
        table.set((0,), [(slot, 1), (slot, 0), (slot, 0), (slot, 0)], sc(1))
        with pytest.raises(InsufficientTable):
            check_universal_equation("string", table)

    @pytest.mark.parametrize("n", [3, 4])
    def test_trr_names_a_missing_entry(self, n):
        """The n-point entry of the point table feeds TRR on both sides of the
        (n + 1)-point instances; without it, TRR raises and names that key."""
        table = own_point_table(6)
        slot = ("0", 0)
        key = (n, (0,), tuple(sorted([(slot, 0)] * 3 + [(slot, 1)] * (n - 3))))
        del table.entries[key]
        with pytest.raises(InsufficientTable) as info:
            check_universal_equation("trr", table)
        assert info.value.missing == [key]

    def test_nonzero_entry_violating_dimension_rejected(self):
        t = point()
        table = CorrelatorTable(t)
        slot = ("0", 0)
        with pytest.raises(DimensionMismatch):
            table.set((0,), [(slot, 2), (slot, 0), (slot, 0)], sc(1))

    def test_get_stored_unstable_dimension_filtered_and_missing(self, monkeypatch):
        """A stored entry is looked up without the dimension test; keys that
        are not stored keep the unstable and dimension-filtered zeros."""
        t = projective_space(1)
        table = CorrelatorTable(t)
        one, p = ("0", 0), ("0", 1)
        stored = [(p, 0), (p, 0), (p, 0)]
        table.set((1,), stored, sc(7))
        table.set((1,), [(one, 0), (one, 0), (one, 0)], sc(0))    # fails the dimension test
        calls = []
        dimension_ok = table.dimension_ok
        monkeypatch.setattr(table, "dimension_ok",
                            lambda d, ins: calls.append(ins) or dimension_ok(d, ins))
        assert table.get((1,), list(reversed(stored))) == sc(7)
        assert table.get((1,), [(one, 0), (one, 0), (one, 0)]).is_zero
        assert calls == []
        # unstable moduli (n <= 2 at degree 0): zero, stored or not, with no lookup
        table.entries[(2, (0,), ((p, 0), (p, 0)))] = sc(5)
        assert table.get((0,), [(p, 0), (p, 0)]).is_zero
        assert table.get((0,), [(one, 0)]).is_zero
        assert calls == []
        # not stored: zero when the dimension test fails, else missing
        assert table.get((1,), [(one, 1), (one, 0), (one, 0)]).is_zero
        assert table.get((1,), [(one, 1), (p, 0), (p, 0)]) is None
        assert len(calls) == 2

    def test_p1_divisor_equation_real_instances(self):
        _t, table = p1_table()
        report = check_universal_equation("divisor", table)
        assert report["ok"], report
        assert report["instances"] >= 2   # <p,p,p,p> and <1 psi,p,p,p>

    def test_p1_dilaton_and_trr(self):
        _t, table = p1_table()
        report = check_universal_equation("dilaton", table)
        assert report["ok"] and report["instances"] >= 1
        report = check_universal_equation("trr", table)
        assert report["ok"], report
        assert report["instances"] >= 1

    def test_p1_divisor_catches_corruption(self):
        t, table = p1_table()
        p = ("0", 1)
        table.set((1,), [(p, 0), (p, 0), (p, 0), (p, 0)], sc(5))
        report = check_universal_equation("divisor", table)
        assert not report["ok"]


@pytest.mark.parametrize("t", [weighted_projective([1, 1, 2]), weighted_projective([1, 2, 3]),
                               weighted_projective([2, 3]), weighted_projective([1, 3]),
                               bmu(2), bmu(3), bmu(5)], ids=lambda t: t.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(0, 3), balance=st.booleans())
def test_dimension_ok_matches_fraction_formula(t, data, d, balance):
    insertions = data.draw(st.lists(
        st.tuples(st.sampled_from(t.flat_basis), st.integers(0, 3)), max_size=7))

    def fraction_formula(insertions):
        lhs = Frac(0)
        for (cid, idx), k in insertions:
            lhs += Frac(t.orbdeg(cid, idx), 2) + k
        rhs = Frac(t.dim - 3 + len(insertions))
        rhs += sum(Frac(c) * d for c in t.c1_tangent_pairing)
        return lhs, rhs

    lhs, rhs = fraction_formula(insertions)
    if balance and insertions and (rhs - lhs).denominator == 1 and insertions[0][1] + rhs >= lhs:
        # move the psibar powers onto the constraint, so that both outcomes occur
        insertions = [(insertions[0][0], int(insertions[0][1] + rhs - lhs))] + insertions[1:]
        lhs, rhs = fraction_formula(insertions)
        assert lhs == rhs
    assert CorrelatorTable(t).dimension_ok((d,), insertions) == (lhs == rhs)


class TestClosedFormJ:
    def test_d0_is_z(self):
        j = j_closed_form_Pn(2, 2)
        assert j.coefficient((0,), 1) == j.target.unit()
        assert j.coefficient((0,), 0).is_zero

    def test_p4_d1_z_minus_1_layer(self):
        # 1/(p+z)^5 = z^-5 (1 - 5 p/z + 15 p^2/z^2 - ...); J_1 = z * that
        j = j_closed_form_Pn(4, 1)
        assert j.coefficient((1,), -4) == j.target.unit().scale(sc(1))
        assert j.coefficient((1,), -5).coeff("0", 1) == sc(-5)
        assert j.coefficient((1,), -6).coeff("0", 2) == sc(15)
        # the p^4 component of the z^(-1)... z^(-8) coefficient is binom(8,4) = 70
        assert j.coefficient((1,), -8).coeff("0", 4) == sc(70)



def _p2_rows(dmax=1):
    j = j_closed_form_Pn(2, dmax)
    rows = []
    for (n, d), cls in j.series.data.items():
        for (cid, idx), c in cls.terms.items():
            rows.append({"d": list(d), "zpow": n, "component": cid,
                         "basis": idx, "coeff": str(c.as_fraction())})
    return rows


class TestLoadJ:
    def test_round_trip_p2(self):
        t = projective_space(2)
        rows = _p2_rows()
        loaded = load_j_function(t, {"rows": rows})
        j = j_closed_form_Pn(2, 1)
        assert loaded.series == j.series

    def test_missing_head_rejected(self):
        t = projective_space(2)
        rows = [r for r in _p2_rows() if not (r["zpow"] == 1 and r["d"] == [0])]
        with pytest.raises(NormalFormViolation):
            load_j_function(t, {"rows": rows})

    def test_empty_higher_degrees(self):
        t = projective_space(2)
        rows = [{"d": [0], "zpow": 1, "component": "0", "basis": 0, "coeff": "1"}]
        j = load_j_function(t, rows)
        assert j.coefficient((0,), 1) == t.unit()
        assert not any(d != (0,) for (_n, d) in j.series.data)

    def test_dimension_filter(self):
        t = projective_space(2)
        rows = _p2_rows()
        rows.append({"d": [1], "zpow": 0, "component": "0", "basis": 0, "coeff": "1"})
        with pytest.raises(NormalFormViolation, match="dimension filter"):
            load_j_function(t, {"rows": rows})

    @pytest.mark.parametrize("field, value", [
        ("d", ["a"]),          # not an integer
        ("d", [1, 0]),         # two entries on a curve-rank-1 target
        ("d", [-1]),           # negative degree
        ("d", 1),              # not a list
        ("d", [True]),         # a JSON boolean is not an integer
        ("zpow", -2.7),        # not an integer (was truncated to -2)
        ("zpow", "1"),
        ("coeff", True),       # a JSON boolean is not a rational (was read as 1)
        ("coeff", 1.0),        # a float is not exact
        ("coeff", "1|0"),      # a zero denominator
        ("coeff", {"num": ["1"], "den": ["0"]}),
        ("component", 0),      # a string (was read as "0")
        ("component", ["0"]),
        ("basis", 1.0),        # an index or a name (was read as the name "1.0")
        ("basis", True),
    ])
    def test_malformed_row_names_its_field(self, field, value):
        rows = _p2_rows() + [{"d": [1], "zpow": -3, "component": "0", "basis": 0,
                              "coeff": "0", field: value}]
        with pytest.raises(SchemaError, match=rf"^\$\.rows\[{len(rows) - 1}\]\.{field}: "):
            load_j_function(projective_space(2), {"rows": rows})

    MALFORMED_COEFFS = [
        ({"num": ["0", "1"], "den": ["1"], "lam_den": 2.5}, ".lam_den"),   # was read as 2
        ({"num": ["0", "1"], "den": ["1"], "lam_den": True}, ".lam_den"),  # was read as 1
        ({"num": ["0", "1"], "den": ["1"], "lam_den": "2"}, ".lam_den"),
        ({"num": ["0", "1"], "den": ["1"], "lam_den": 0}, ".lam_den"),     # a root index is >= 1
        ({"num": ["0", "1"], "den": ["1"], "lam_den": -2}, ".lam_den"),
        ({"ell": [{"num": ["1"], "den": ["1"]}], "lam_den": 2.0}, ".lam_den"),
        ({"num": "12", "den": ["1"]}, ".num"),                             # was read as ["1", "2"]
        ({"num": ["1"], "den": "1"}, ".den"),
        ({"ell": "1"}, ".ell"),
        ({"num": [{"zeta": 3, "c": "01"}], "den": ["1"]}, ".num[0].c"),
        ({"num": [{"zeta": 3.0, "c": ["0", "1"]}], "den": ["1"]}, ".num[0].zeta"),
        ({"num": [{"zeta": 3, "c": ["0", 0.1]}], "den": ["1"]}, ".num[0].c[1]"),  # inexact
        ({"num": [{"zeta": 3, "c": ["0", True]}], "den": ["1"]}, ".num[0].c[1]"),  # was 1
        ({"num": ["0", "1"], "den": ["1"], "lamden": 2}, ".lamden"),  # was read as lambda
        ({"ell": [{"num": ["3"], "den": ["1"]}], "num": ["5"], "den": ["1"]}, ".num"),  # dropped
    ]

    @pytest.mark.parametrize("coeff, field", MALFORMED_COEFFS,
                             ids=[f"coeff{i}" for i in range(len(MALFORMED_COEFFS))])
    def test_malformed_coeff_dict_is_a_schema_error(self, coeff, field):
        """In the dict form of a coeff, lam_den (and a zeta order) is a JSON
        integer >= 1, num, den, ell (and a zeta's c) are JSON lists, an entry
        of c is a 'p/q' string or a JSON integer, and no other key occurs; the
        error names the failing field below $.rows[i].coeff."""
        rows = _p2_rows() + [{"d": [1], "zpow": -3, "component": "0", "basis": 1,
                              "coeff": coeff}]
        with pytest.raises(SchemaError, match=rf"^\$\.rows\[{len(rows) - 1}\]\.coeff"
                                              rf"{re.escape(field)}: "):
            load_j_function(projective_space(2), {"rows": rows})

    @pytest.mark.parametrize("order", [3, 100003, 10 ** 9])
    def test_a_zeta_order_outside_the_target_is_refused_unbuilt(self, order):
        """On P^2 (every r_i = 1) a zeta order divides 4; a huge one is refused
        before its cyclotomic polynomial is built (100003 took 0.69 s)."""
        rows = _p2_rows() + [{"d": [1], "zpow": -3, "component": "0", "basis": 1,
                              "coeff": {"num": [{"zeta": order, "c": ["0", "1"]}], "den": ["1"]}}]
        start = time.perf_counter()
        with pytest.raises(SchemaError, match=rf"^\$\.rows\[{len(rows) - 1}\]\.coeff\.num\[0\]"
                                              rf"\.zeta: expected an order dividing 4, got {order}$"):
            load_j_function(projective_space(2), {"rows": rows})
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("r, orders", [(5, (20,)), (7, (28,)), (9, (12, 36)), (11, (44,)),
                                           (12, (6, 8, 12, 24))])
    def test_the_zeta_orders_of_the_twisted_outputs_load(self, r, orders):
        """The orders that the Bmu_r outputs carry divide 4 lcm(r_i) = 4 r;
        twice that is refused."""
        head = {"d": [0], "zpow": 1, "component": "0", "basis": 0, "coeff": "1"}
        for order in orders + (8 * r,):
            row = {"d": [1], "zpow": -1, "component": "1", "basis": 0,
                   "coeff": {"ell": [{"num": [{"zeta": order, "c": ["0", "1"]}], "den": ["1"]}]}}
            if order == 8 * r:
                with pytest.raises(SchemaError, match=r"\.coeff\.ell\[0\]\.num\[0\]\.zeta: "):
                    load_j_function(bmu(r), {"rows": [head, row]})
            else:
                j = load_j_function(bmu(r), {"rows": [head, row]})
                assert j.coefficient((1,), -1).coeff("1", 0).ell[0].num[0].order == order

    @pytest.mark.parametrize("row, message", [
        (7, r"^\$\.rows\[0\]: expected an object$"),
        ({"d": [0], "zpow": 0, "component": "0", "basis": 1},
         r"^\$\.rows\[0\]\.coeff: missing required field$"),
    ])
    def test_row_without_an_object_or_a_field(self, row, message):
        with pytest.raises(SchemaError, match=message):
            load_j_function(projective_space(2), {"rows": [row] + _p2_rows()})

    @pytest.mark.parametrize("basis", [-2, 3, "q"])
    def test_basis_outside_the_component_rejected(self, basis):
        rows = _p2_rows() + [{"d": [1], "zpow": -3, "component": "0", "basis": basis,
                              "coeff": "1"}]
        with pytest.raises(BasisMismatch):
            load_j_function(projective_space(2), {"rows": rows})

    def test_irrational_parameter_point_rejected(self):
        rows = _p2_rows() + [{"d": [0], "zpow": 0, "component": "0", "basis": 1,
                              "coeff": "0,1|1"}]          # t = lambda p
        with pytest.raises(NormalFormViolation, match="parameter point must be rational"):
            load_j_function(projective_space(2), {"rows": rows})

    def test_rational_parameter_point_accepted(self):
        rows = _p2_rows() + [{"d": [0], "zpow": 0, "component": "0", "basis": 1,
                              "coeff": "3/2"}]
        j = load_j_function(projective_space(2), {"rows": rows})
        assert j.coefficient((0,), 0) == j.target.basis_class("0", "p").scale(sc(Frac(3, 2)))


class TestHypermod:
    def test_trivial_twist_is_identity(self):
        j = j_closed_form_Pn(2, 2)
        t = j.target
        F = wps_pullback_line(t, 0)
        i = hypergeometric_modification(t, F, j)
        assert i.series == j.series

    def test_p4_o5_d1_heads(self):
        j = j_closed_form_Pn(4, 1)
        t = j.target
        F = wps_pullback_line(t, 5)
        i = nonequivariant_limit(hypergeometric_modification(t, F, j))
        # z^1 head at d=1 is 120, z^0 p-part is 770
        assert i.coefficient((1,), 1).coeff("0", 0) == sc(120)
        assert i.coefficient((1,), 0).coeff("0", 1) == sc(770)

    def test_negative_pairing_rejected(self):
        j = j_closed_form_Pn(2, 1)
        t = j.target
        F = wps_pullback_line(t, -1)
        with pytest.raises(AssumptionViolated):
            hypergeometric_modification(t, F, j)

    @pytest.mark.parametrize("nonequivariant", [False, True])
    def test_classes_move_onto_an_equal_target(self, nonequivariant):
        """J on the shared P2, t an equal config copy: the result lives on t,
        with the coefficients of the shared-target result."""
        j = j_closed_form_Pn(2, 2)
        copy, _ = load_target(dump_target(j.target, []))
        assert copy is not j.target and copy == j.target
        on_copy = hypergeometric_modification(copy, wps_pullback_line(copy, 3), j,
                                              nonequivariant=nonequivariant)
        shared = hypergeometric_modification(j.target, wps_pullback_line(j.target, 3), j,
                                             nonequivariant=nonequivariant)
        assert on_copy.target is copy
        assert on_copy.series.data.keys() == shared.series.data.keys()
        for key, cls in on_copy.series.data.items():
            assert cls.target is copy and cls.terms == shared.series.data[key].terms
            copy.orbifold_pairing(cls, copy.unit())

    def test_j_of_another_target_rejected(self):
        t = projective_space(3)
        with pytest.raises(BasisMismatch, match="J-function of P2 used on target P3"):
            hypergeometric_modification(t, wps_pullback_line(t, 1), j_closed_form_Pn(2, 1))

    def test_i_equals_j_mod_novikov(self):
        # every built modification satisfies I == J at Q^0
        for n, m in ((1, 1), (2, 2), (4, 5)):
            j = j_closed_form_Pn(n, 2)
            t = j.target
            i = hypergeometric_modification(t, wps_pullback_line(t, m), j)
            d0 = (0,)
            zero_ok = all(
                i.coefficient(d0, zz) == j.coefficient(d0, zz)
                for zz in range(i.series.zmin, i.series.zmax + 1)
            )
            assert zero_ok, (n, m)

    def test_equivariant_limit_content(self):
        # the z^1 head is lambda-free (only the top product term reaches it),
        # but the z^0 layer carries genuine lambda content before the limit
        j = j_closed_form_Pn(4, 1)
        t = j.target
        F = wps_pullback_line(t, 5)
        i = hypergeometric_modification(t, F, j)
        assert i.coefficient((1,), 1).coeff("0", 0) == sc(120)
        z0_unit = i.coefficient((1,), 0).coeff("0", 0)
        assert not z0_unit.is_zero
        assert z0_unit.nonequiv_limit().is_zero


class TestSmallExpansionAndMirror:
    def test_untwisted_trivial(self):
        j = j_closed_form_Pn(4, 2)
        f, g = small_expansion(j)
        assert f.get(0, (0,)) == SCALAR_ONE
        for d in range(1, 3):
            assert f.get(0, (d,)).is_zero
        # G = t = 0: one zero series per small-space slot, 1 and p
        assert sorted(g) == [("0", 0), ("0", 1)]
        assert all(series.is_zero for series in g.values())

    def test_quintic_f_and_g(self):
        j = j_closed_form_Pn(4, 2)
        t = j.target
        F = wps_pullback_line(t, 5)
        i = nonequivariant_limit(hypergeometric_modification(t, F, j))
        f, g = small_expansion(i)
        assert f.get(0, (0,)) == SCALAR_ONE
        assert f.get(0, (1,)) == sc(120)
        assert f.get(0, (2,)) == sc(113400)
        assert g[("0", 1)].get(0, (1,)) == sc(770)

    def test_mirror_map_quintic(self):
        j = j_closed_form_Pn(4, 2)
        t = j.target
        F = wps_pullback_line(t, 5)
        i = nonequivariant_limit(hypergeometric_modification(t, F, j))
        f, g = small_expansion(i)
        tau, j_tw = mirror_map(i, f, g)
        tau_p = tau[("0", 1)]
        # G_1/F_1 = 770/120 = 77/12; the series quotient (G/F)(Q) itself starts 770 Q
        # (the classical quintic mirror map), which the instanton extraction confirms
        assert g[("0", 1)].get(0, (1,)) / f.get(0, (1,)) == sc(Frac(77, 12))
        assert tau_p.get(0, (1,)) == sc(770)
        assert tau_p.get(0, (2,)) == sc(810225 - 120 * 770)
        # normal form after division
        assert j_tw.coefficient((0,), 1) == t.unit()
        assert j_tw.coefficient((1,), 1).is_zero
        assert j_tw.coefficient((1,), 0).coeff("0", 1) == sc(770)

    @pytest.mark.parametrize("n, degrees, point", [(4, (5,), None), (5, (3, 3), None),
                                                   (4, (5,), Frac(3, 2))])
    def test_tau_is_g_over_f_without_its_head(self, n, degrees, point):
        """tau^k, read off the z^0 layer of J = I/F, is the series quotient
        G^k/F minus its Q^0 head, slot by slot; ``point`` puts point * p in the
        (d=0, z^0) layer of J, a nonzero head that tau must drop."""
        j = j_closed_form_Pn(n, 4)
        t = j.target
        if point is not None:
            j.series.add_to(0, (0,), t.basis_class("0", "p").scale(sc(point)))
        f, g, tau, _j_tw = lefschetz_chain(t, _bundle(t, degrees), j)
        inv_f = series_invert(f)
        assert sorted(tau) == sorted(g) and not tau[("0", 1)].is_zero
        for slot, series in g.items():
            ratio = series * inv_f
            head = ratio.get(0, (0,))
            assert head == (sc(point) if point is not None and slot == ("0", 1) else sc(0))
            assert tau[slot] == ratio - TruncSeries.from_scalar(head, 1, 0, 0, ratio.dmax)

    def test_quintic_pipeline_expands_once(self, monkeypatch):
        from orbiqrr.genus0 import lefschetz
        calls = []
        expand = lefschetz.small_expansion
        monkeypatch.setattr(lefschetz, "small_expansion", lambda I: calls.append(I) or expand(I))
        lefschetz.quintic_pipeline(3)
        assert len(calls) == 1

    def test_positivity_violated_p1_o3(self):
        # c1(O(3)) = 3 > c1(T_P1) = 2: a z^2 term survives at d = 1
        j = j_closed_form_Pn(1, 1)
        t = j.target
        F = wps_pullback_line(t, 3)
        i = nonequivariant_limit(hypergeometric_modification(t, F, j))
        with pytest.raises(PositivityViolated, match=r"z\^2 survives"):
            small_expansion(i)


class TestInvariantExtraction:
    def test_quintic_numbers_match_oracle(self):
        oracle_n, oracle_N = quintic_instanton_numbers(3)
        result = quintic_pipeline(3)
        table = result["invariants"]
        assert table["N"][1] == 2875
        assert table["N"][2] == Frac(4876875, 8)
        assert table["n"][2] == 609250
        for d in (1, 2, 3):
            assert table["N"][d] == oracle_N[d], d
            assert table["n"][d] == oracle_n[d], d

    def test_quintic_pipeline_at_degree_zero_has_empty_tables(self):
        result = quintic_pipeline(0)
        assert result["invariants"] == {"N": {}, "n": {}}
        assert result["tau"][("0", 1)].is_zero

    def test_zero_mirror_map_extracts_the_z_minus_1_layer_itself(self):
        """With tau = 0 the strip e^{-tau p / z} and the flow e^{d tau} are 1,
        so x_d is the (z^{-1}, p^2) coefficient of J itself: N_d = 5 x_d / d."""
        t = projective_space(4)
        F = wps_pullback_line(t, 5)
        e = GiventalElement(t, -1, 1, 2)
        e.add_to(1, (0,), t.unit())
        e.add_to(-1, (1,), CohClass(t, {("0", 2): sc(575)}))
        e.add_to(-1, (2,), CohClass(t, {("0", 2): sc(975)}))
        tau = {("0", 1): TruncSeries(1, 0, 0, 2)}
        table = extract_invariants(JFunction(t, e), tau, F)
        assert table["N"] == {1: 2875, 2: Frac(4875, 2)}
        assert table["n"] == {1: 2875, 2: Frac(4875, 2) - Frac(2875, 8)}

    @pytest.mark.parametrize("n, degrees, pinned", [
        (5, (3, 3), (1053, 52812, 6424326)),
        (5, (2, 4), (1280, 92288, 15655168)),
        (6, (2, 2, 3), (720, 22428, 1611504)),
        (7, (2, 2, 2, 2), (512, 9728, 416256))])
    def test_complete_intersections_match_oracle(self, n, degrees, pinned):
        """The quintic's chain on P^n with a split F = sum O(a_i): N_d = <p>_d / d
        with <p>_d = int p x_d e(F).  P5[3,3] catches a kappa read off c1(F)
        (6 for 9), which the quintic cannot (5 = 5)."""
        oracle_n, oracle_N = ci_instanton_numbers(n, degrees, 4)
        j = j_closed_form_Pn(n, 4)
        F = split_bundle(j.target, degrees)
        _f, _g, tau, j_tw = lefschetz_chain(j.target, F, j)
        table = extract_invariants(j_tw, tau, F)
        assert tuple(table["n"][d] for d in (1, 2, 3)) == pinned
        for d in range(1, 5):
            assert table["N"][d] == oracle_N[d], d
            assert table["n"][d] == oracle_n[d], d

    def test_quintic_numbers_match_oracle_to_degree_8(self):
        # n_8 has 24 digits: the pipeline's largest rationals
        oracle_n, oracle_N = quintic_instanton_numbers(8)
        table = quintic_pipeline(8)["invariants"]
        assert table["n"][8] == 375632160937476603550000
        for d in range(1, 9):
            assert table["N"][d] == oracle_N[d], d
            assert table["n"][d] == oracle_n[d], d


def _per_slice_modification(t, F, J, nonequivariant=False):
    """Reference hypergeometric_modification: a fresh factor chain per (z^n, d) slice."""
    dmax = J.dmax
    if nonequivariant:
        J = nonequivariant_limit(J)
    lam = None if nonequivariant else Scalar.lam(1)
    series = J.series
    spreads = [t.spread_untwisted(c1cls) for (_pair, c1cls) in F.lines]
    all_terms = {}
    for (n, d), cls in series.data.items():
        if sum(d) > dmax:
            continue
        slice_terms = {(n, d): cls}
        for (pairing, _c1), rho in zip(F.lines, spreads):
            steps = int(sum((Frac(p) * di for p, di in zip(pairing, d)), Frac(0)))
            for k in range(1, steps + 1):
                new_terms = {}
                for (nn, dd), c in slice_terms.items():
                    base = c.mul(rho) if lam is None else c.scale(lam) + c.mul(rho)
                    if not base.is_zero:
                        key = (nn, dd)
                        new_terms[key] = new_terms.get(key, t.zero_class()) + base
                    up = c.scale(sc(k))
                    if not up.is_zero:
                        key = (nn + 1, dd)
                        new_terms[key] = new_terms.get(key, t.zero_class()) + up
                slice_terms = new_terms
        for (nn, dd), c in slice_terms.items():
            if not c.is_zero:
                all_terms[(nn, dd)] = all_terms.get((nn, dd), t.zero_class()) + c
    zmax = max([series.zmax] + [n for (n, _d) in all_terms])
    out = GiventalElement(t, series.zmin, zmax, dmax)
    for (nn, dd), c in all_terms.items():
        out.add_to(nn, dd, c)
    return JFunction(t, out)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n + 1).map(
            lambda m: (m,)))),
    st.tuples(st.sampled_from((3, 4)), st.just((1, 2)))),
    st.integers(min_value=1, max_value=4), st.booleans())
@example((3, (1, 2)), 4, False)
@example((4, (1, 2)), 4, False)
@example((4, (1, 2)), 4, True)
@example((4, (5,)), 4, False)
@example((4, (5,)), 4, True)
def test_one_factor_chain_per_degree_matches_per_slice(n_degrees, dmax, nonequivariant):
    """The closed-form product equals a fresh factor chain per (z^n, d) slice,
    for single lines and for split bundles with one chain per line."""
    n, degrees = n_degrees
    j = j_closed_form_Pn(n, dmax)
    t = j.target
    F = wps_pullback_line(t, degrees[0]) if len(degrees) == 1 else split_bundle(t, degrees)
    grouped = hypergeometric_modification(t, F, j, nonequivariant=nonequivariant).series
    per_slice = _per_slice_modification(t, F, j, nonequivariant).series
    assert grouped.data == per_slice.data
    assert ((grouped.zmin, grouped.zmax, grouped.dmax)
            == (per_slice.zmin, per_slice.zmax, per_slice.dmax))


def test_rising_coefficients_are_stirling_numbers():
    # prod_{k=1..s} (y + k) = sum_i [s+1, i+1] y^i, whose coefficients sum to (s+1)!
    stirling = {
        1: (1, 1),
        2: (2, 3, 1),
        3: (6, 11, 6, 1),
        4: (24, 50, 35, 10, 1),
        5: (120, 274, 225, 85, 15, 1),
        6: (720, 1764, 1624, 735, 175, 21, 1),
    }
    assert _factor_coefficients(1, 0, 0) == (1,)
    for s, want in stirling.items():
        assert _factor_coefficients(1, s, s) == want
        assert sum(_factor_coefficients(1, s, s)) == factorial(s + 1)


def test_factor_coefficients_of_e_and_minus_e_are_inverse():
    # prod_k (x + kz)^e * prod_k (x + kz)^(-e) = 1, truncated at x^top
    for e in range(1, 7):
        for s in range(9):
            for top in range(7):
                pos, neg = _factor_coefficients(e, s, top), _factor_coefficients(-e, s, top)
                assert len(pos) == min(top, e * s) + 1
                assert len(neg) == (top + 1 if s else 1)
                assert s_mul(list(pos), list(neg), top) == [1] + [0] * top


@pytest.mark.parametrize("n", range(1, 6))
def test_closed_form_j_matches_the_fraction_oracle(n):
    # J_d = z (z^d d!)^(-(n+1)) / prod_k (1 + p/(kz))^(n+1), p^(n+1) = 0
    for dmax in range(7):
        j = j_closed_form_Pn(n, dmax)
        want = {}
        for d in range(dmax + 1):
            for a, c in enumerate(pn_j_degree_series(n, d)):
                if c:
                    want[(1 - (n + 1) * d - a, (d,), ("0", a))] = c / factorial(d) ** (n + 1)
        got = {(zpow, d, slot): v.as_fraction()
               for (zpow, d), cls in j.series.data.items() for slot, v in cls.terms.items()}
        assert got == want


@pytest.mark.parametrize("n", range(1, 6))
def test_closed_form_j_shares_one_row_across_degrees(n):
    """j_closed_form_Pn weights the one row 1, p, ..., p^n of its head for every
    degree: the same coefficients, to the serialised byte, as a call of both
    kernel stages per degree, which rebuilds the row each time."""
    for dmax in range(5):
        j = j_closed_form_Pn(n, dmax)
        t, e = j.target, -(n + 1)
        p = t.basis_class("0", "p")
        want = {}
        for d in range(dmax + 1):
            rows = _power_rows({1: t.unit()}, p, d, e)
            assert [len(row) for row in rows.values()] == [n + 1]
            for zpow, c in _weigh_rows(rows, d, e, False).items():
                want[(zpow, (d,))] = {k: v.to_obj() for k, v in c.terms.items()}
        assert {k: {s: v.to_obj() for s, v in c.terms.items()}
                for k, c in j.series.data.items()} == want


class TestLimitFirst:
    """hypergeometric_modification(..., nonequivariant=True) against the limit
    taken after the equivariant modification."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n + 1))),
        st.integers(min_value=1, max_value=3))
    def test_matches_limit_after(self, n_m, dmax):
        n, m = n_m
        j = j_closed_form_Pn(n, dmax)
        t = j.target
        F = wps_pullback_line(t, m)
        first = hypergeometric_modification(t, F, j, nonequivariant=True).series
        after = nonequivariant_limit(hypergeometric_modification(t, F, j)).series
        assert first.data == after.data
        assert (first.zmin, first.zmax, first.dmax) == (after.zmin, after.zmax, after.dmax)

    @staticmethod
    def _loaded_p2(coeff, d, zpow):
        """The P^2 J-function to degree 1 with one extra row."""
        rows = _p2_rows() + [{"d": [d], "zpow": zpow, "component": "0", "basis": 1,
                              "coeff": coeff}]
        return load_j_function(projective_space(2), {"rows": rows})

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=1),
           st.integers(min_value=-6, max_value=-2),
           st.fractions(min_value=-5, max_value=5).filter(bool))
    def test_lambda_pole_in_loaded_j_raises(self, order, d, zpow, c):
        # c / lambda^order at (d, z^zpow), on top of the P^2 rows
        j = self._loaded_p2(f"{c}|{','.join(['0'] * order + ['1'])}", d, zpow)
        t = j.target
        with pytest.raises(PoleAtZero, match=rf"d=\({d},\), z\^{zpow}\)"):
            hypergeometric_modification(t, wps_pullback_line(t, 3), j, nonequivariant=True)

    def test_log_lambda_in_loaded_j_raises(self):
        j = self._loaded_p2({"ell": ["0", "1"]}, 1, -3)
        t = j.target
        with pytest.raises(LogObstruction, match=r"d=\(1,\), z\^-3\)"):
            hypergeometric_modification(t, wps_pullback_line(t, 3), j, nonequivariant=True)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_a_rational_j_is_its_own_limit(self, n):
        """No lambda in J, nothing to map: the limit is J itself, not a copy."""
        j = j_closed_form_Pn(n, 3)
        assert nonequivariant_limit(j) is j
        loaded = self._loaded_p2("-7/3", 1, -4)
        assert nonequivariant_limit(loaded) is loaded

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1), st.integers(min_value=-6, max_value=-2),
           st.fractions(min_value=-5, max_value=5),
           st.fractions(min_value=-5, max_value=5).filter(bool),
           st.fractions(min_value=-5, max_value=5).filter(bool), st.booleans())
    def test_a_j_with_lambda_is_mapped_row_by_row(self, d, zpow, a, b, c, polynomial):
        """a + b lambda^2, regular at 0 and not constant: the limit maps every
        row, as the map of the whole series did.  (a + lambda) / (c + lambda)
        is no Laurent polynomial in lambda: the J-file row is refused, naming
        its coeff."""
        assume(polynomial or a != c)
        if not polynomial:
            with pytest.raises(SchemaError, match=r"^\$\.rows\[\d+\]\.coeff: the reduced "
                                                  r"denominator is not a monomial"):
                self._loaded_p2(f"{a},1|{c},1", d, zpow)
            return
        j = self._loaded_p2(f"{a},0,{b}|1", d, zpow)
        lim = nonequivariant_limit(j)
        want = j.series.map(lambda n, dd, cls: cls.nonequiv_limit())
        assert lim is not j
        assert lim.series.data == want.data
        assert (lim.series.zmin, lim.series.zmax, lim.series.dmax) == (
            want.zmin, want.zmax, want.dmax)

    @pytest.mark.parametrize("coeff", ["1|0,1", "2,1|0,0,1", {"ell": ["0", "1"]}])
    def test_a_pole_or_a_log_still_raises_in_the_limit(self, coeff):
        """A lambda^-1 pole is a Laurent value: the rational shortcut must not let
        it through."""
        j = self._loaded_p2(coeff, 1, -3)
        error = LogObstruction if isinstance(coeff, dict) else PoleAtZero
        with pytest.raises(error, match=r"d=\(1,\), z\^-3\)"):
            nonequivariant_limit(j)


# single lines O1..O(n+1) on P1..P5, and split bundles with one line per summand
_CUT_CASES = [(n, (m,)) for n in range(1, 6) for m in range(1, n + 2)] \
    + [(3, (2, 2)), (5, (3, 3)), (6, (2, 2, 3))]


def _bundle(t, degrees):
    return wps_pullback_line(t, degrees[0]) if len(degrees) == 1 else split_bundle(t, degrees)


class TestZCut:
    """``zmin`` builds only the z-layers a caller reads: the result must be the
    full one cut by copy_window, also for a split bundle, whose later lines
    raise a term cut too early back above the cut."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(_CUT_CASES), st.integers(min_value=0, max_value=4), st.booleans())
    @example((5, (3, 3)), 3, True)
    @example((6, (2, 2, 3)), 2, False)
    def test_cut_is_the_full_result_windowed(self, case, dmax, nonequivariant):
        n, degrees = case
        j = j_closed_form_Pn(n, dmax)
        t = j.target
        F = _bundle(t, degrees)
        full = hypergeometric_modification(t, F, j, nonequivariant=nonequivariant).series
        for k in range(full.zmin - 1, 2):
            cut = hypergeometric_modification(t, F, j, nonequivariant=nonequivariant,
                                              zmin=k).series
            want = full.copy_window(max(k, full.zmin), full.zmax, full.dmax)
            assert cut.data == want.data, k
            assert (cut.zmin, cut.zmax, cut.dmax) == (want.zmin, want.zmax, want.dmax), k

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(_CUT_CASES), st.integers(min_value=0, max_value=4),
           st.sampled_from((0, -1, -math.inf)))
    @example((6, (2, 2, 3)), 3, -1)
    def test_mirror_map_sets_the_head_and_divides_the_rest(self, case, dmax, zmin):
        """J = I/F with the z^1 layer set to the unit at Q^0 equals the division
        of all of I, window and serialised values included."""
        n, degrees = case
        j = j_closed_form_Pn(n, dmax)
        t = j.target
        i = hypergeometric_modification(t, _bundle(t, degrees), j, nonequivariant=True,
                                        zmin=zmin)
        f, g = small_expansion(i)
        _tau, j_tw = mirror_map(i, f, g)
        want = novikov_scale(i.series, series_invert(f))
        got = j_tw.series
        assert {k: {s: v.to_obj() for s, v in c.terms.items()} for k, c in got.data.items()} \
            == {k: {s: v.to_obj() for s, v in c.terms.items()} for k, c in want.data.items()}
        assert (got.zmin, got.zmax, got.dmax) == (want.zmin, want.zmax, want.dmax)

    def test_a_bundle_without_lines_is_cut_too(self):
        """A rank-0 bundle has no line whose kernel call would cut J, so the
        terms of J below the cut must be dropped all the same."""
        j = j_closed_form_Pn(2, 2)
        t = j.target
        F = BundleModel("Z", t, {}, pulled_back=True, c1_pairing=(0,), lines=[])
        for k in (0, -1):
            cut = hypergeometric_modification(t, F, j, nonequivariant=True, zmin=k).series
            assert cut.data == j.series.copy_window(k, j.series.zmax, j.dmax).data

    def test_a_cut_above_the_head_is_rejected(self):
        j = j_closed_form_Pn(2, 1)
        with pytest.raises(ValueError, match="z\\^1 head"):
            hypergeometric_modification(j.target, wps_pullback_line(j.target, 3), j, zmin=2)

    @pytest.mark.parametrize("n, degrees", [(4, (5,)), (5, (3, 3)), (6, (2, 2, 3))])
    def test_chain_at_the_cut_matches_the_full_chain(self, n, degrees):
        """f, tau and the invariants read at the cuts the CLI uses (mirror-map 0,
        invariants -1) equal those of the full chain, and are the oracle's."""
        j = j_closed_form_Pn(n, 4)
        t = j.target
        F = _bundle(t, degrees)
        f, g, tau, j_tw = lefschetz_chain(t, F, j)
        table = extract_invariants(j_tw, tau, F)
        assert table["n"] == ci_instanton_numbers(n, degrees, 4)[0]
        for zmin in (0, -1):
            f_c, g_c, tau_c, j_c = lefschetz_chain(t, F, j, zmin=zmin)
            assert (f_c.data, tau_c.keys()) == (f.data, tau.keys())
            assert {k: v.data for k, v in g_c.items()} == {k: v.data for k, v in g.items()}
            assert all(tau_c[slot].data == tau[slot].data for slot in tau)
            want = j_tw.series.copy_window(zmin, j_tw.series.zmax, j_tw.dmax)
            assert j_c.series.data == want.data
            assert j_c.series.zmin == zmin
        assert extract_invariants(j_c, tau_c, F) == table
