"""Outside documents read through one set of typed field readers: a leaf of a
JSON type that its field never accepts is an OrbiqrrError, and a SchemaError
names the leaf's $ path; no other exception escapes."""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.cli import _table_from_obj
from orbiqrr.errors import OrbiqrrError, SchemaError
from orbiqrr.genus0 import j_closed_form_Pn, load_j_function
from orbiqrr.orbtarget import dump_target, load_target, projective_space, wps_pullback_line

from helpers import p1_table


@lru_cache(maxsize=None)
def _config():
    """The document `orbiqrr target show P2 --bundle O3` prints, and its reader."""
    t = projective_space(2)
    return dump_target(t, [wps_pullback_line(t, 3)]), load_target


@lru_cache(maxsize=None)
def _jfile():
    """A J-function file of P^2 through degree 1, and its reader."""
    j = j_closed_form_Pn(2, 1)
    rows = [{"d": list(d), "zpow": n, "component": cid, "basis": idx, "coeff": c.to_obj()}
            for (n, d), cls in j.series.data.items() for (cid, idx), c in cls.terms.items()]
    return json.dumps({"rows": rows}), lambda text: load_j_function(j.target, text)


@lru_cache(maxsize=None)
def _table():
    """A --table file of the P^1 table, and its reader."""
    t, table = p1_table()
    rows = [{"d": list(d), "insertions": [[cid, idx, k] for (cid, idx), k in ins],
             "value": v.to_obj()} for (_n, d, ins), v in table.entries.items()]
    return json.dumps({"rows": rows}), lambda text: _table_from_obj(t, text)


def _leaves(x, keys=()):
    """(keys, value) for each leaf (neither a list nor an object) of x."""
    if not isinstance(x, (dict, list)):
        yield keys, x
        return
    for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
        yield from _leaves(v, keys + (k,))


# JSON types no field takes; a coeff takes objects, but only with list-valued
# num/den/ell keys, so an object of integers is never one
NEVER = st.one_of(st.floats(), st.booleans(), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _wrong(keys, value):
    """Values of a JSON type that the field at keys never accepts."""
    if keys[-1] == "pulled_back":
        return st.one_of(st.integers(), st.text(), st.floats(), st.none(),
                         st.lists(st.booleans(), max_size=2))
    if type(value) is int and keys[-1] != "basis":     # basis takes a class name too
        return st.one_of(NEVER, st.text())
    return NEVER


@pytest.mark.parametrize("make", [_config, _jfile, _table])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_leaf_of_a_wrong_type_is_a_schema_error(make, data):
    text, read = make()
    doc = json.loads(text)
    keys, value = data.draw(st.sampled_from(list(_leaves(doc))))
    holder = doc
    for k in keys[:-1]:
        holder = holder[k]
    holder[keys[-1]] = data.draw(_wrong(keys, value))
    with pytest.raises(OrbiqrrError) as e:
        read(json.dumps(doc))
    assert not isinstance(e.value, SchemaError) or str(e.value).startswith("$")
