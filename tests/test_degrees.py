"""The one owner of Novikov degrees: the degree section of ``exactalg.series``.

A degree is a tuple of ``curve_rank`` nonnegative integers.  The properties
run over ranks 0, 1 and 2: the JSON reader round-trips, () is the zero of
``deg_add``, ``deg_pairing`` is the Fraction sum and refuses a vector of
another length (a ``zip`` would drop the extra entries), and ``deg_splits``
yields every d = d1 + d2 in the order TRR sums them.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.errors import SchemaError
from orbiqrr.exactalg import deg_add, deg_from_json, deg_pairing, deg_splits, zero_deg

Frac = Fraction

degrees = st.integers(0, 2).flatmap(lambda r: st.tuples(*[st.integers(0, 4)] * r))
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _splits_by_enumeration(d):
    """Every pair (d1, d - d1) with 0 <= d1 <= d, d1 in lexicographic order (the
    order of the recursive splitter ``deg_splits`` replaced)."""
    return [(d1, tuple(x - y for x, y in zip(d, d1)))
            for d1 in sorted(product(range(max(d, default=0) + 1), repeat=len(d)))
            if all(y <= x for x, y in zip(d, d1))]


@settings(max_examples=80, deadline=None)
@given(degrees, st.data())
def test_degree_owner(d, data):
    rank = len(d)
    assert deg_from_json(list(d), rank, "$.d", "T") == d
    assert deg_add((), d) == deg_add(d, ()) == deg_add(d, zero_deg(rank)) == d
    v = tuple(data.draw(st.lists(rationals, min_size=rank, max_size=rank)))
    assert deg_pairing(v, d) == sum((c * x for c, x in zip(v, d)), Frac(0))
    assert type(deg_pairing(v, zero_deg(rank))) is int      # a degree-0 budget stays an int
    for other in {rank + 1, max(rank - 1, 0)} - {rank}:
        with pytest.raises(ValueError):
            deg_pairing((Frac(1),) * other, d)
    assert list(deg_splits(d)) == _splits_by_enumeration(d)


@pytest.mark.parametrize("x", [[1], [1, -1], [1, 1.0], [1, True], "11", None, [1, "1"]])
def test_json_degree_reader_keeps_its_message(x):
    with pytest.raises(SchemaError) as e:
        deg_from_json(x, 2, "$.rows[3].d", "T")
    assert str(e.value) == "$.rows[3].d: expected 2 nonnegative integers (the curve rank of T)"

