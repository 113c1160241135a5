"""The commutator cocycle from coefficient contractions, against the probe
polynomials it replaced, and the survivor rule at the ksafe boundary."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr import fockquant
from orbiqrr.errors import TruncationTooNarrow
from orbiqrr.fockquant import commutator_cocycle
from orbiqrr.linalg import mat_is_zero, mat_mul
from orbiqrr.orbtarget import bmu, point, projective_space, weighted_projective

from helpers import probe_commutator_cocycle
from test_fockquant import anti_self_adjoint, self_adjoint

_TARGETS = {"point": point(), "Bmu2": bmu(2), "Bmu3": bmu(3),
            "P1": projective_space(1), "WPS(1,2,2)": weighted_projective([1, 2, 2])}


def _monomial(t, rng, m):
    """A random B with B z^m infinitesimally symplectic."""
    return (self_adjoint(t, rng) if m % 2 else anti_self_adjoint(t, rng)), m


def _commute(A, B) -> bool:
    return mat_is_zero([[x - y for x, y in zip(r1, r2)]
                        for r1, r2 in zip(mat_mul(A[0], B[0]), mat_mul(B[0], A[0]))])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_TARGETS)), st.integers(-3, 3), st.integers(-3, 3),
       st.sampled_from([2, 3]), st.integers(0, 2 ** 16))
def test_contractions_match_the_probes(name, m1, m2, extra, seed):
    t = _TARGETS[name]
    rng = random.Random(seed)
    A, B = _monomial(t, rng, m1), _monomial(t, rng, m2)
    K = abs(m1) + abs(m2) + extra
    assert commutator_cocycle(t, A, B, K) == probe_commutator_cocycle(t, A, B, K)


@pytest.mark.parametrize("name", ["Bmu2", "Bmu3", "P1", "WPS(1,2,2)"])
@pytest.mark.parametrize("m1, m2", [(1, -1), (-2, 3), (3, -3), (1, 2), (0, -1), (-3, 1)])
def test_non_commuting_pairs_match_the_probes(name, m1, m2):
    # {A, B} != 0 (two B* = -B commute on a rank-2 basis, so every pair has an
    # odd m): the quantized bracket must cancel the quadratic part
    t = _TARGETS[name]
    rng = random.Random(17 * m1 + m2)
    A, B = _monomial(t, rng, m1), _monomial(t, rng, m2)
    assert not _commute(A, B)
    K = abs(m1) + abs(m2) + 2
    assert commutator_cocycle(t, A, B, K) == probe_commutator_cocycle(t, A, B, K)


def _dropping_bracket_terms(monkeypatch, shape, drop):
    """commutator_cocycle with the quantized bracket missing the terms of one
    shape whose key satisfies drop: those terms of [A^, B^] survive."""
    real = fockquant.quantize_monomial

    def quantize(t, B, m, K, check=True):
        op = real(t, B, m, K, check)
        if not check:                   # the bracket {A, B}^
            bucket = getattr(op, shape)
            for key in [key for key in bucket if drop(key)]:
                del bucket[key]
        return op

    monkeypatch.setattr(fockquant, "quantize_monomial", quantize)


def _pair():
    t = bmu(2)
    rng = random.Random(4)
    A, B = _monomial(t, rng, 1), _monomial(t, rng, -1)
    assert not _commute(A, B)
    return t, A, B


@pytest.mark.parametrize("K", [4, 5])
def test_q_d_survivor_below_ksafe_raises_and_names_it(monkeypatch, K):
    t, A, B = _pair()
    ksafe = K - 2
    _dropping_bracket_terms(monkeypatch, "qd", lambda key: key[1][0] == ksafe - 1)
    with pytest.raises(TruncationTooNarrow) as err:
        commutator_cocycle(t, A, B, K)
    msg = str(err.value)
    assert "non-scalar term q d on (" in msg
    assert f"), ({ksafe - 1}, " in msg           # the d-variable (k, a)
    assert "(hbar^0," in msg
    assert f"ksafe = {ksafe}" in msg


@pytest.mark.parametrize("K", [4, 5])
def test_q_d_survivor_at_ksafe_is_a_truncation_artifact(monkeypatch, K):
    t, A, B = _pair()
    want = commutator_cocycle(t, A, B, K)
    _dropping_bracket_terms(monkeypatch, "qd", lambda key: key[1][0] >= K - 2)
    assert commutator_cocycle(t, A, B, K) == want


def test_qq_survivor_raises_at_any_index(monkeypatch):
    t = bmu(2)
    rng = random.Random(6)
    A, B = _monomial(t, rng, -2), _monomial(t, rng, 1)
    assert not _commute(A, B)
    _dropping_bracket_terms(monkeypatch, "qq", lambda key: True)
    with pytest.raises(TruncationTooNarrow, match=r"term qq/hbar on \(0, \d\), .*\(hbar\^-1,"):
        commutator_cocycle(t, A, B, 6)
