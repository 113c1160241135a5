import hashlib
import json
import os
import re
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiqrr.cli import main
from orbiqrr.orbtarget import dump_target, projective_space, target_to_obj, weighted_projective

from helpers import split_bundle
from oracles import ci_mirror_map


# strings that JSON must escape, and text beyond ASCII
_TRICKY_TEXT = st.text(st.sampled_from('"\\\n\t/{}[],:ab\u00e9\u03bb\u20ac\U0001d11e') | st.characters(),
                       max_size=8)


def _entry(key: str, body: bytes) -> bytes:
    """An entry in the documented layout around ``body``, with the digest of ``body``."""
    return (b'{"key":"' + key.encode() + b'","payload":' + body + b',"sha256":"'
            + hashlib.sha256(body).hexdigest().encode() + b'","version":2}')


def _rehashed(entry: bytes, body: bytes) -> bytes:
    """``entry`` with its payload replaced by ``body`` and the digest of ``body``."""
    return _entry(json.loads(entry)["key"], body)


# JSON values as a payload may hold them, and payloads: objects of them
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TRICKY_TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TRICKY_TEXT, kids, max_size=4),
    max_leaves=20)
_PAYLOADS = st.dictionaries(_TRICKY_TEXT, _JSON_VALUES, max_size=5)


def _store_until(directory, payload, stop):
    """Store ``payload`` under one key until ``stop`` is set (a writer process)."""
    from orbiqrr.cache import ArtifactCache
    store = ArtifactCache(directory)
    while not stop.is_set():
        store.store("k", payload)


class _HalfWrite:
    """A file that writes half of what it is given, then blocks until killed."""

    def __init__(self, path, mode, halfway):
        self.fh, self.halfway = open(path, mode), halfway

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        self.halfway.set()
        time.sleep(600)


def _store_half(directory, halfway):
    """Store an entry whose write stops halfway (a writer process to kill)."""
    from orbiqrr import cache as cache_mod
    cache_mod.open = lambda path, mode: _HalfWrite(path, mode, halfway)
    cache_mod.ArtifactCache(directory).store("k", {"rows": ["new"] * 1000})


def _p4_rank2_obj(tmp_path) -> dict:
    """A config of P4 with curve rank 2 (the second generator pairs to zero with
    everything), its bundle O5 = O(5, 0) and the J of P4 to degree 2 in rows
    d = [d, 0] (written to tmp_path)."""
    from orbiqrr.genus0 import j_closed_form_Pn
    from orbiqrr.orbtarget import target_to_obj, wps_pullback_line
    rows = [{"d": [d, 0], "zpow": n, "component": cid, "basis": idx,
             "coeff": str(c.as_fraction())}
            for (n, (d,)), cls in j_closed_form_Pn(4, 2).series.data.items()
            for (cid, idx), c in cls.terms.items()]
    (tmp_path / "j.json").write_text(json.dumps({"rows": rows}))
    p4 = projective_space(4)
    obj = target_to_obj(p4, [wps_pullback_line(p4, 5)])
    obj.update(name="P4x2", curve_rank=2, c1_tangent_pairing=["5", "0"], jfunction_file="j.json")
    obj["components"][0]["basis"][1]["curve_pairing"] = ["1", "0"]
    bundle = obj["bundles"][0]
    bundle["c1_pairing"] = bundle["lines"][0]["c1_pairing"] = ["5", "0"]
    return obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestBasicCommands:
    def test_bernoulli(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "--m", "2", "--x", "1/2")
        assert code == 0
        assert json.loads(out)["value"] == "-1/12"

    def test_bernoulli_pretty(self, capsys):
        code, out, _ = run(capsys, "--format", "pretty", "bernoulli", "--m", "0", "--x", "7")
        assert code == 0
        assert json.loads(out)["value"] == "1"

    def test_target_show_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "pretty", "target", "show", "WPS:1,1,2")
        assert code == 0
        cfg = tmp_path / "wps.json"
        cfg.write_text(out)
        code, out2, _ = run(capsys, "target", "validate", str(cfg))
        assert code == 0
        assert json.loads(out2)["valid"]

    def test_target_validate_bad(self, capsys, tmp_path):
        obj = json.loads(dump_target(weighted_projective([1, 1, 2]), []))
        for c in obj["components"]:
            if c["id"] == "1/2":
                c["age"] = "1/3"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "target", "validate", str(bad))
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "InvariantViolation"
        assert "age reciprocity" in err["message"]

    def test_bundle_with_inconsistent_lines_is_rejected(self, capsys, tmp_path):
        """O5 of a P4 config whose line says c1 = 3p, <c1, line> = 4: it would
        compare equal to the built-in O5 and label another I-function 'O5'."""
        code, out, _ = run(capsys, "target", "show", "P4", "--bundle", "O5")
        cfg = json.loads(out)
        cfg["bundles"][0]["lines"][0] = {"c1_pairing": ["4"],
                                         "c1": {"0": ["0", "3", "0", "0", "0"]}}
        (tmp_path / "p4.json").write_text(json.dumps(cfg))
        for argv in (("target", "validate", str(tmp_path / "p4.json")),
                     ("ifunction", "--target", str(tmp_path / "p4.json"), "--bundle", "O5",
                      "--max-degree", "1", "--nonequivariant")):
            code, out, _ = run(capsys, *argv)
            assert code == 1
            error = json.loads(out)["error"]
            assert error["code"] == "InvariantViolation" and "split lines" in error["message"]

    def test_split_bundle_has_one_line_per_summand(self, capsys, tmp_path):
        """O3 on P2 given as the lines O3 and O0: the pairings and classes add up,
        but a rank-1 bundle with two lines would cut out a Y of the wrong dimension."""
        code, out, _ = run(capsys, "target", "show", "P2", "--bundle", "O3")
        cfg = json.loads(out)
        cfg["bundles"][0]["lines"].append({"c1_pairing": ["0"], "c1": {"0": ["0", "0", "0"]}})
        (tmp_path / "p2.json").write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "target", "validate", str(tmp_path / "p2.json"))
        error = json.loads(out)["error"]
        assert code == 1 and error["code"] == "InvariantViolation"
        assert error["message"].startswith("split lines: O3 has 2 lines, not one per summand")

    @pytest.mark.parametrize("field, value", [
        ("curve_rank", "x"), ("curve_rank", -1), ("curve_rank", 1.5), ("dim", "2"),
        ("dim", -1), ("degree", 2.0), ("r", True), ("l", "0"), ("mult", "1")])
    def test_config_integer_fields_are_json_integers(self, capsys, tmp_path, field, value):
        """A string, float, bool or negative count is a SchemaError naming its path,
        never a traceback or a silent int()."""
        code, out, _ = run(capsys, "target", "show", "P2", "--bundle", "O3")
        obj = json.loads(out)
        comp, paths = obj["components"][0], {
            "curve_rank": "$.curve_rank", "dim": "$.dim",
            "degree": "$.components[0].basis[1].degree", "r": "$.components[0].r",
            "l": "$.bundles[0].eigen[0].l", "mult": "$.components[0].mult"}
        holder = {"curve_rank": obj, "dim": obj, "degree": comp["basis"][1], "r": comp,
                  "l": obj["bundles"][0]["eigen"][0], "mult": comp["mult"][0]}[field]
        holder[0 if field == "mult" else field] = value
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        for action in ("validate", "show"):
            code, out, _ = run(capsys, "target", action, str(tmp_path / "bad.json"))
            error = json.loads(out)["error"]
            assert code == 1 and error["code"] == "SchemaError"
            assert error["message"].startswith(paths[field] + ": expected a nonnegative integer")

    @pytest.mark.parametrize("keys, value, path", [
        (("components", 0, "mult", 0), 5, "$.components[0].mult"),
        (("components", 0, "mult"), 5, "$.components[0].mult"),
        (("c1_tangent_pairing",), 3, "$.c1_tangent_pairing"),
        (("components", 0, "basis", 1, "curve_pairing"), "1",
         "$.components[0].basis[1].curve_pairing"),
        (("components", 0, "basis"), {"0": {}}, "$.components[0].basis"),
        (("components", 0, "pairing"), "100", "$.components[0].pairing"),
        (("components", 0, "pairing", 0), "001", "$.components[0].pairing"),
        (("components", 0, "untwisted_restriction"), 1, "$.components[0].untwisted_restriction"),
        (("components", 0, "untwisted_restriction", 0), "100",
         "$.components[0].untwisted_restriction"),
        (("bundles",), {}, "$.bundles"),
        (("bundles", 0, "eigen"), 1, "$.bundles[0].eigen"),
        (("bundles", 0, "eigen", 0, "ch"), "139", "$.bundles[0].eigen[0].ch"),
        (("bundles", 0, "lines"), {}, "$.bundles[0].lines"),
        (("bundles", 0, "lines", 0, "c1_pairing"), "3", "$.bundles[0].lines[0].c1_pairing"),
        (("bundles", 0, "lines", 0, "c1", "0"), "030", "$.bundles[0].lines[0].c1[0]"),
        (("bundles", 0, "c1_pairing"), "3", "$.bundles[0].c1_pairing")])
    def test_config_list_fields_are_json_lists(self, capsys, tmp_path, keys, value, path):
        """A list field given another JSON type is a SchemaError naming its path: an
        int was a TypeError traceback, and a string was read one character a time."""
        code, out, _ = run(capsys, "target", "show", "P2", "--bundle", "O3")
        obj = json.loads(out)
        holder = obj
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = value
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        for action in ("validate", "show"):
            code, out, _ = run(capsys, "target", action, str(tmp_path / "bad.json"))
            error = json.loads(out)["error"]
            assert code == 1 and error["code"] == "SchemaError"
            assert error["message"] == f"{path}: expected a list, got {value!r}"

    @pytest.mark.parametrize("keys, value, message", [
        (("bundles", 0, "lines", 0, "c1"), ["0", "3", "0"],
         "$.bundles[0].lines[0].c1: expected an object, got ['0', '3', '0']"),
        (("bundles", 0, "lines", 0, "c1"), None,
         "$.bundles[0].lines[0].c1: missing required field"),
        (("bundles", 0, "name"), ["O3"], "$.bundles[0].name: expected a string, got ['O3']"),
        (("name",), {"x": 1}, "$.name: expected a string, got {'x': 1}"),
        (("components", 0, "basis", 0, "name"), ["one"],
         "$.components[0].basis[0].name: expected a string, got ['one']"),
        (("c1_tangent_pairing", 0), 3.0,
         "$.c1_tangent_pairing: expected a rational 'p/q', got 3.0"),
        (("components", 0, "age"), False,
         "$.components[0].age: expected a rational 'p/q', got False"),
        (("components", 0, "pairing", 0, 2), 1.0,
         "$.components[0].pairing: expected a rational 'p/q', got 1.0"),
        (("bundles", 0, "c1_pairing", 0), 3.5,
         "$.bundles[0].c1_pairing: expected a rational 'p/q', got 3.5"),
        (("bundles", 0, "pulled_back"), "no",
         "$.bundles[0].pulled_back: expected a boolean, got 'no'"),
        (("components", 0, "id"), 0, "$.components[0].id: expected a string, got 0"),
        (("components", 0, "id"), ["0"], "$.components[0].id: expected a string, got ['0']"),
        (("components", 0, "involution"), 0,
         "$.components[0].involution: expected a string, got 0"),
        (("bundles", 0, "eigen", 0, "component"), 0,
         "$.bundles[0].eigen[0].component: expected a string, got 0"),
        (("bundles", 0, "eigen", 0, "component"), ["0"],
         "$.bundles[0].eigen[0].component: expected a string, got ['0']"),
        (("jfunction_file",), 5, "$.jfunction_file: expected a string, got 5")])
    def test_config_names_and_line_classes_are_typed(self, capsys, tmp_path, keys, value,
                                                     message):
        """A name that is not a string, a line's c1 that is not an object, and a
        rational that is a float or a bool are SchemaErrors naming the field: a list
        c1 died with an AttributeError, a list bundle name with a TypeError, and a
        target or basis name of another JSON type validated, as did a float rational
        (read inexactly: 0.1 is not 1/10) or a bool one.  So are an id, an
        involution or an eigen component that is not a string (0 was read as "0",
        and ["0"] as "['0']", reported as a missing component), a pulled_back that
        is not a bool ("no" was read as true) and a jfunction_file that is not a
        string (5 validated, and show died in os.path.join).  A None value deletes
        the field."""
        code, out, _ = run(capsys, "target", "show", "P2", "--bundle", "O3")
        obj = json.loads(out)
        holder = obj
        for key in keys[:-1]:
            holder = holder[key]
        if value is None:
            del holder[keys[-1]]
        else:
            holder[keys[-1]] = value
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        for action in ("validate", "show"):
            code, out, _ = run(capsys, "target", action, str(tmp_path / "bad.json"))
            error = json.loads(out)["error"]
            assert (code, error["code"], error["message"]) == (1, "SchemaError", message)

    @pytest.mark.parametrize("case", ["c1_tangent_pairing", "curve_pairing", "c1_pairing",
                                      "builtin O5 on rank 2"])
    def test_pairing_vector_needs_curve_rank_entries(self, capsys, tmp_path, case):
        """A pairing vector of another length than curve_rank was paired through a
        zip that dropped the extra entries: O5 on a rank-2 target paired only
        the first generator."""
        obj = _p4_rank2_obj(tmp_path)
        argv = ("target", "validate")
        if case == "builtin O5 on rank 2":
            obj["bundles"] = []
            argv = ("ifunction", "--bundle", "O5", "--max-degree", "1", "--target")
        elif case == "c1_pairing":
            obj["bundles"][0]["c1_pairing"] = ["5"]
        elif case == "curve_pairing":
            obj["components"][0]["basis"][1]["curve_pairing"] = ["1"]
        else:
            obj["c1_tangent_pairing"] = ["5", "0", "0"]
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        code, out, _ = run(capsys, *argv, str(tmp_path / "bad.json"))
        error = json.loads(out)["error"]
        assert (code, error["code"]) == (1, "InvariantViolation")
        assert "curve rank" in error["message"]

    def test_usage_error(self, capsys):
        code, _out, err = run(capsys, "delta", "--target", "nosuch",
                              "--bundle", "trivial", "--zmax", "2", "--s", "0")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "UsageError"

    @pytest.mark.parametrize("argv", [
        ("delta", "--target", "P1", "--bundle", "O1", "--s", "0", "--zmax", "abc"),
        ("delta", "--target", "P1", "--bundle", "O1", "--s", "0"),
        ("check", "nosuch"),
        ("check", "serre", "--target", "P1", "--bundle", "O1", "--smax", "2"),
        # a group member given its would-be default still conflicts
        ("check", "universal", "--table", "t.json", "--nmax", "6"),
        # a digit that int() rejects names no built-in target
        ("check", "cocycle", "--target", "p\u00b2")])
    def test_argparse_errors_are_json_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "UsageError"

    def test_help_and_version_exit_0(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and out.startswith("orbiqrr ")
        code, out, _ = run(capsys, "check", "serre", "--help")
        assert code == 0
        assert set(re.findall(r"--[a-z-]+", out)) == {"--help", "--target", "--bundle",
                                                       "--s", "--zmax"}

    def test_main_builds_one_parser_and_keeps_no_state(self, capsys, monkeypatch):
        from orbiqrr import cli
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            shown = run(capsys, "--format", "pretty", "target", "show", "P1", "--bundle", "O1")
            value = run(capsys, "bernoulli", "--m", "2", "--x", "1/2")
            plain = run(capsys, "target", "show", "P1")
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert shown[0] == value[0] == plain[0] == 0
        assert "\n" in shown[1] and [b["name"] for b in json.loads(shown[1])["bundles"]] == ["O1"]
        assert value[1] == json.dumps({"m": 2, "value": "-1/12", "x": "1/2"})
        assert "\n" not in plain[1] and json.loads(plain[1])["bundles"] == []

    @pytest.mark.parametrize("argv, token", [
        (("delta", "--target", "P1", "--bundle", "Oxx", "--s=0,1", "--zmax", "2"), "xx"),
        (("delta", "--target", "Bmu3", "--bundle", "char:x", "--s=0,1", "--zmax", "2"), "x"),
        (("delta", "--target", "point", "--bundle", "trivial:x", "--s=0,1", "--zmax", "2"), "x"),
        (("delta", "--target", "WPS:1,x", "--bundle", "trivial", "--s=0,1", "--zmax", "2"), "x"),
        (("delta", "--target", "point", "--bundle", "trivial", "--s=1,x", "--zmax", "2"), "x"),
        (("quantize", "--target", "Bmu2", "--bundle", "char:1", "--B", "am:x",
          "--m", "1", "--K", "4"), "x"),
        (("bernoulli", "--m", "2", "--x", "abc"), "abc"),
        (("bernoulli", "--m", "2", "--x", "1/0"), "1/0"),
    ])
    def test_malformed_number_is_a_usage_error(self, capsys, argv, token):
        code, _out, err = run(capsys, *argv)
        assert code == 2
        error = json.loads(err)["error"]
        assert error["code"] == "UsageError"
        assert repr(token) in error["message"]

    def test_negative_bernoulli_index_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "bernoulli", "--m", "-1", "--x", "1/2")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "UsageError" and "--m >= 0" in error["message"]

    @pytest.mark.parametrize("argv, path, field", [
        (("target", "validate"), "missing", "target"),
        (("target", "validate"), "dir", "target"),
        (("target", "show"), "dir", "target"),
        (("delta", "--bundle", "O1", "--s=0,1", "--zmax", "2", "--target"), "dir", "target"),
        (("ifunction", "--bundle", "O1", "--max-degree", "1", "--target"), "dir", "target"),
    ])
    def test_unreadable_file_is_a_structured_error(self, capsys, tmp_path, argv, path, field):
        """A user-named file that cannot be read is a SchemaError naming the
        field and the path."""
        path = str(tmp_path if path == "dir" else tmp_path / "nosuch.json")
        code, out, _ = run(capsys, *argv, path)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "SchemaError"
        assert error["message"].startswith(f"{field}: cannot read {path!r}")

    @pytest.mark.parametrize("files, dirs", [(["P2"], ["point"]), (["point"], ["P2"])])
    def test_builtin_names_win_over_files_in_the_cwd(self, capsys, tmp_path, monkeypatch,
                                                     files, dirs):
        """A file or directory named like a built-in target never shadows it;
        ./NAME still names the file."""
        from orbiqrr.orbtarget import target_to_obj
        (tmp_path / "empty").mkdir()
        monkeypatch.chdir(tmp_path / "empty")
        ifunction = ["ifunction", "--target", "P2", "--bundle", "O3", "--max-degree", "1"]
        assert run(capsys, "--cache-dir", "c", *ifunction)[0] == 0
        (key,) = os.listdir("c")
        monkeypatch.chdir(tmp_path)
        obj = target_to_obj(projective_space(1), [])
        obj["name"] = "notbuiltin"
        for name in files:
            (tmp_path / name).write_text(json.dumps(obj))
        for name in dirs:
            (tmp_path / name).mkdir()
        for name in ("P2", "point"):
            code, out, _ = run(capsys, "check", "cocycle", "--target", name, "--K", "4")
            assert code == 0 and json.loads(out)["target"] == name
        code, out, _ = run(capsys, "--cache-dir", "c", *ifunction)
        assert code == 0 and json.loads(out)["target"] == "P2"
        assert os.listdir("c") == [key]
        (name,) = files
        code, out, _ = run(capsys, "check", "cocycle", "--target", f"./{name}", "--K", "4")
        assert code == 0 and json.loads(out)["target"] == "notbuiltin"
        (name,) = dirs
        code, out, _ = run(capsys, "check", "cocycle", "--target", f"./{name}", "--K", "4")
        assert code == 1
        assert json.loads(out)["error"]["message"].startswith(f"target: cannot read './{name}'")

    def test_unreadable_jfunction_file_is_a_structured_error(self, capsys, tmp_path):
        """A jfunction_file that names a directory fails as a SchemaError, also
        in the cache key, which hashes the file."""
        from orbiqrr.orbtarget import projective_space, target_to_obj
        (tmp_path / "j.json").mkdir()
        obj = target_to_obj(projective_space(2), [])
        obj["name"] = "P2custom"
        obj["jfunction_file"] = "j.json"
        (tmp_path / "t.json").write_text(json.dumps(obj))
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path / "cache"), "ifunction",
                           "--target", str(tmp_path / "t.json"), "--bundle", "O1",
                           "--max-degree", "1")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "SchemaError"
        assert error["message"].startswith("$.jfunction_file: cannot read ")

    def test_jfunction_file_of_another_type_is_a_structured_error(self, capsys, tmp_path):
        """A jfunction_file that is not a string is a SchemaError with exit 1: 5 died
        with a TypeError traceback in os.path.join."""
        code, out, _ = run(capsys, "target", "show", "P2", "--bundle", "O3")
        obj = json.loads(out)
        obj["jfunction_file"] = 5
        (tmp_path / "t.json").write_text(json.dumps(obj))
        code, out, _ = run(capsys, "ifunction", "--target", str(tmp_path / "t.json"),
                           "--bundle", "O3", "--max-degree", "1")
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "SchemaError", "message": "$.jfunction_file: expected a string, got 5"}

    def test_jfunction_file_without_rows_is_a_structured_error(self, capsys, tmp_path):
        from orbiqrr.orbtarget import projective_space, target_to_obj
        (tmp_path / "j.json").write_text(json.dumps({"row": []}))
        obj = target_to_obj(projective_space(2), [])
        obj["jfunction_file"] = "j.json"
        (tmp_path / "t.json").write_text(json.dumps(obj))
        code, out, _ = run(capsys, "ifunction", "--target", str(tmp_path / "t.json"),
                           "--bundle", "O1", "--max-degree", "1")
        assert code == 1
        error = json.loads(out)["error"]
        assert error == {"code": "SchemaError", "message": "$.rows: expected a list"}


class TestPipelines:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_mirror_map_matches_the_fraction_oracle(self, capsys, n):
        """F and tau of P^n/O(n+1) through degree 6 are the hypergeometric series
        F_d = ((n+1)d)!/(d!)^(n+1) and G/F, G_d = (n+1) F_d (H_((n+1)d) - H_d)."""
        code, out, _ = run(capsys, "mirror-map", "--target", f"P{n}", "--bundle", f"O{n + 1}",
                           "--max-degree", "6")
        assert code == 0
        f, g_over_f = ci_mirror_map(n, (n + 1,), 6)
        want = {**{("F", d): c for d, c in enumerate(f)},
                **{("tau[0/1]", d): c for d, c in enumerate(g_over_f) if d}}
        assert {(r["series"], r["d"][0]): Fraction(r["coeff"])
                for r in json.loads(out)["rows"]} == want
        if n == 1:
            assert f[:6] == [1, 2, 6, 20, 70, 252]
            assert g_over_f[1:6] == [2, 3, Fraction(20, 3), Fraction(35, 2), Fraction(252, 5)]

    def test_invariants_quintic(self, capsys):
        code, out, _ = run(capsys, "invariants", "--target", "P4", "--bundle", "O5",
                           "--max-degree", "2")
        assert code == 0
        rows = json.loads(out)["rows"]
        byd = {r["d"]: r for r in rows}
        assert byd[1]["N"] == "2875"
        assert byd[2]["N"] == "4876875/8"
        assert byd[2]["n"] == "609250"

    def test_invariants_rejects_other_targets(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        # a config copy of P4 under another name has no J-function source
        renamed = json.loads(dump_target(projective_space(4), []))
        renamed["name"] = "P4copy"
        (tmp_path / "p4copy.json").write_text(json.dumps(renamed))
        # P4 at curve rank 2 with its O(5, 0): extraction would unpack (d,) from (d, 0)
        (tmp_path / "p4x2.json").write_text(json.dumps(_p4_rank2_obj(tmp_path)))
        # P5/O6 cuts out a Calabi-Yau fourfold, P5 with O6+O0 a threefold by a
        # zero line: neither is a CY threefold of positive lines
        p5 = projective_space(5)
        (tmp_path / "p5.json").write_text(
            json.dumps(target_to_obj(p5, [split_bundle(p5, (6, 0))])))
        for target, bundle, error in (
                ("P2", "O3", "UnsupportedTarget"), ("P4", "O4", "UnsupportedTarget"),
                ("P3", "O5", "UnsupportedTarget"), ("P4", "trivial", "UnsupportedTarget"),
                ("P4", "O6", "UnsupportedTarget"), ("WPS:1,1,1,1,1", "O5", "UsageError"),
                (str(tmp_path / "p4copy.json"), "O5", "UsageError"),
                (str(tmp_path / "p4x2.json"), "O5", "UnsupportedTarget"),
                ("P5", "O6", "UnsupportedTarget"), ("WPS:1,1,2", "O4", "UnsupportedTarget"),
                (str(tmp_path / "p5.json"), "O6+O0", "UnsupportedTarget")):
            code, out, err = run(capsys, "--cache-dir", cache, "invariants", "--target", target,
                                 "--bundle", bundle, "--max-degree", "2")
            assert (code, json.loads(out or err)["error"]["code"]) == \
                ({"UnsupportedTarget": 1, "UsageError": 2}[error], error), (target, bundle)
        assert not os.listdir(cache)   # no rejected pair stores an entry

    def test_invariants_of_a_complete_intersection(self, capsys, tmp_path):
        """A P5 config with the split bundle O3+O3 reaches the CY threefold
        P5[3,3] through the quintic's path (Libgober-Teitelbaum 1993)."""
        p5 = projective_space(5)
        (tmp_path / "p5.json").write_text(
            json.dumps(target_to_obj(p5, [split_bundle(p5, (3, 3))])))
        code, out, _ = run(capsys, "invariants", "--target", str(tmp_path / "p5.json"),
                           "--bundle", "O3+O3", "--max-degree", "3")
        assert code == 0
        doc = json.loads(out)
        assert (doc["target"], doc["bundle"]) == ("P5", "O3+O3")
        assert [r["n"] for r in doc["rows"]] == ["1053", "52812", "6424326"]

    def test_invariants_on_a_config_copy_label_its_bundle(self, capsys, tmp_path):
        """A config copy of P4 (name P4) with O5 renamed 'quintic' gives the rows
        of P4/O5, labelled with the bundle the numbers were computed from."""
        code, out, _ = run(capsys, "target", "show", "P4", "--bundle", "O5")
        assert code == 0
        cfg = json.loads(out)
        cfg["bundles"][0]["name"] = "quintic"
        (tmp_path / "p4.json").write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "invariants", "--target", str(tmp_path / "p4.json"),
                           "--bundle", "quintic", "--max-degree", "3")
        assert code == 0
        copy = json.loads(out)
        code, out, _ = run(capsys, "invariants", "--target", "P4", "--bundle", "O5",
                           "--max-degree", "3")
        builtin = json.loads(out)
        assert (copy["target"], copy["bundle"], builtin["bundle"]) == ("P4", "quintic", "O5")
        assert copy["rows"] == builtin["rows"]
        assert [r["n"] for r in copy["rows"]] == ["2875", "609250", "317206375"]

    def test_invariants_builds_the_bundle_once(self, capsys, monkeypatch):
        from orbiqrr import cli
        from orbiqrr.genus0 import lefschetz
        calls = []
        build = cli.wps_pullback_line
        for module in (cli, lefschetz):
            monkeypatch.setattr(module, "wps_pullback_line",
                                lambda t, m: calls.append((t.name, m)) or build(t, m))
        code, _out, _ = run(capsys, "invariants", "--target", "P4", "--bundle", "O5",
                            "--max-degree", "3")
        assert code == 0
        assert calls == [("P4", 5)]

    def test_invariants_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "invariants", "--target", "P4",
                           "--bundle", "O5", "--max-degree", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,d,n"
        assert "2875" in lines[1]

    def test_delta_with_check(self, capsys):
        code, out, _ = run(capsys, "delta", "--target", "Bmu3", "--bundle", "char:1",
                           "--s", "0,1/2,0,1/3", "--zmax", "3", "--check-symplectic")
        assert code == 0
        doc = json.loads(out)
        assert doc["symplectic_check"]["symplectic"]
        assert doc["operator"]["kind"] == "multiplication"

    @pytest.mark.parametrize("target, bundle, s", [
        ("Bmu3", "char:1", "--s=2L,1/2,-1/3,1/7"),
        ("WPS:1,1,2", "O1", "--s=0,L,-1/2,2L"),
    ])
    @pytest.mark.parametrize("log", [(), ("--log",)])
    def test_delta_with_check_prints_the_operator_without_it(self, capsys, target, bundle,
                                                             s, log):
        """The check's log Delta and Delta, built on the wider window and cut
        to zmax, print as the operators built at zmax."""
        argv = ["delta", "--target", target, "--bundle", bundle, s, "--zmax", "3", *log]
        docs = [json.loads(run(capsys, *argv, *extra)[1])
                for extra in ((), ("--check-symplectic",))]
        assert docs[1].pop("symplectic_check")["symplectic"] is True
        assert docs[0] == docs[1]

    def test_delta_no_log_needs_euler(self, capsys, tmp_path):
        """Nothing reads --no-log without --euler: it would only add a cache key."""
        cache = str(tmp_path / "cache")
        code, out, err = run(capsys, "--cache-dir", cache, "delta", "--target", "P1",
                             "--bundle", "O1", "--s", "0,1", "--no-log", "--zmax", "1")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {"code": "UsageError", "message": "--no-log needs --euler"}
        assert not os.path.exists(cache) or not os.listdir(cache)

    def test_delta_euler_log(self, capsys):
        code, out, _ = run(capsys, "delta", "--target", "point", "--bundle", "trivial",
                           "--euler", "--zmax", "2", "--log")
        assert code == 0
        doc = json.loads(out)
        # z^1 block is 1/(12 lambda)
        blk = doc["operator"]["blocks"]["1"]["0/1"]
        assert blk == {"num": ["1/12"], "den": ["0", "1"]}

    @pytest.mark.parametrize("argv, digest", [
        # lam_den 18: the heads lambda^(a/3) times the s_0 = L/3 parts
        ("delta --target Bmu3 --bundle char:1 --s=1/3L,0,L --zmax 4",
         "08a504db70937950e4ea811acff6477cd91621e579d012777c7b5f828c93a19e"),
        ("delta --target WPS:1,1,2 --bundle O1 --s=0,L,-1/2,2L --zmax 4",
         "00db7c827a440046a4ba399d81b7b2a9cd1d5e348b9ba064a57329d11dd98078"),
        ("delta --target P2 --bundle O3 --euler --zmax 4",
         "762fd0742683281dd4aaf6383dc50cae70f80a03e38259cea2217ff7a54b28e9"),
        ("delta --target Bmu8 --bundle char:3 --euler --zmax 7",
         "a999fdb0500a1cbe27ef2d6e2a2b5196a83c5e6a463ec713a2b78f4d91db0e39"),
    ])
    def test_delta_stdout_bytes(self, capsys, tmp_path, argv, digest):
        """The sha256 of stdout from a fresh cache, for Delta requests that the
        recorded references do not cover: ln(lambda) off the z^0 head, root
        indices, a pulled-back bundle on P2."""
        code = main(["--cache-dir", str(tmp_path / "cache")] + argv.split())
        assert code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_delta_exp_obstruction_names_the_component(self, capsys):
        """A rational s_0 leaves a head with no exponential in the scalar ring."""
        code, out, _ = run(capsys, "delta", "--target", "Bmu3", "--bundle", "char:1",
                           "--s=1", "--zmax", "2")
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "ExpObstruction",
            "message": "component 1: head -1/6: exp of a nonzero constant is transcendental"}

    def test_ifunction_p1_o3_positivity(self, capsys):
        code, out, _ = run(capsys, "ifunction", "--target", "P1", "--bundle", "O3",
                           "--max-degree", "1", "--nonequivariant")
        assert code == 0   # the I-function itself is fine; positivity fails later
        code, out, _ = run(capsys, "mirror-map", "--target", "P1", "--bundle", "O3",
                           "--max-degree", "1")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "PositivityViolated"

    def test_quantize_string_shape(self, capsys):
        code, out, _ = run(capsys, "quantize", "--target", "point", "--B", "identity",
                           "--m", "-1", "--K", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["operator"]["qq_over_hbar"][0]["coeff"] == "-1/2"

    def test_quantize_am_class(self, capsys):
        # A_2 z^1 is infinitesimally symplectic (A_2 self-adjoint, odd z power)
        code, out, _ = run(capsys, "quantize", "--target", "Bmu2", "--bundle", "char:1",
                           "--B", "am:2", "--m", "1", "--K", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["operator"]["q_d"]

    def test_quantize_needs_k_0(self, capsys):
        """Below --K 0 the truncated operator is empty, not the quantization."""
        code, out, err = run(capsys, "quantize", "--target", "point", "--B", "identity",
                             "--m", "-1", "--K", "-1")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {"code": "UsageError", "message": "quantize needs --K >= 0, not -1"}
        code, out, _ = run(capsys, "quantize", "--target", "point", "--B", "identity",
                           "--m", "-1", "--K", "0")
        assert code == 0

    def test_quantize_rejects_nonsymplectic(self, capsys):
        code, out, _ = run(capsys, "quantize", "--target", "point", "--B", "identity",
                           "--m", "0", "--K", "4")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "NotInfinitesimallySymplectic"

    def test_csv_rejects_non_tabular(self, capsys):
        code, _out, err = run(capsys, "--format", "csv", "bernoulli", "--m", "2",
                              "--x", "1/2")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "UsageError"

    def test_check_cocycle_and_string(self, capsys):
        code, out, _ = run(capsys, "check", "cocycle", "--K", "6")
        assert code == 0 and json.loads(out)["ok"]
        code, out, _ = run(capsys, "check", "string", "--nmax", "6")
        assert code == 0 and json.loads(out)["residual_zero"]

    @pytest.mark.parametrize("target, name, expected", [
        ("point", "point", "-1/2"), ("Bmu2", "Bmu2", "-1"), ("Bmu3", "Bmu3", "-3/2"),
        ("P1", "P1", "-1"), ("P2", "P2", "-3/2"), ("WPS:1,1,2", "WPS(1,1,2)", "-2"),
        ("WPS:1,2,2", "WPS(1,2,2)", "-5/2")])
    def test_check_cocycle_on_a_target(self, capsys, target, name, expected):
        # [z^, (1/z)^] = -N/2 for N basis classes, labelled with the target it ran on
        code, out, _ = run(capsys, "check", "cocycle", "--K", "6", "--target", target)
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True
        assert doc["target"] == name
        assert doc["scalar"] == doc["expected"] == expected

    def test_check_cocycle_default_output_unchanged(self, capsys):
        code, out, _ = run(capsys, "check", "cocycle", "--K", "6")
        assert code == 0
        assert out == ('{"K": 6, "expected": "-1/2", "ok": true, "pair": "[z^, (1/z)^]", '
                       '"scalar": "-1/2", "target": "point"}')

    @pytest.mark.parametrize("argv", [
        ("check", "cocycle", "--K", "6", "--bundle", "O1"),
        ("check", "string", "--nmax", "6", "--bundle", "O1"),
        ("check", "string", "--nmax", "6", "--target", "P2"),
        ("check", "universal", "--kind", "trr", "--nmax", "5", "--bundle", "O1"),
        ("check", "serre", "--bundle", "O1"),
        ("check", "serre", "--target", "P1")])
    def test_check_rejects_flags_it_ignores_or_lacks(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "UsageError"

    @pytest.mark.parametrize("argv, flag", [
        (("check", "cocycle", "--K", "6", "--table", "nosuch.json", "--kind", "trr"), "--table"),
        (("check", "cocycle", "--nmax", "6"), "--nmax"),
        (("check", "cocycle", "--zmax", "3"), "--zmax"),
        (("check", "string", "--K", "99", "--smax", "7"), "--K"),
        (("check", "string", "--nmax", "6", "--kind", "trr"), "--kind"),
        (("check", "string", "--s", "0,1/2"), "--s"),
        (("check", "universal", "--kind", "trr", "--K", "6"), "--K"),
        (("check", "universal", "--kind", "trr", "--zmax", "3"), "--zmax"),
        (("check", "universal", "--table", "nosuch.json", "--nmax", "5"), "--nmax"),
        (("check", "serre", "--target", "P1", "--bundle", "O1", "--nmax", "3"), "--nmax"),
        (("check", "serre", "--target", "P1", "--bundle", "O1", "--table", "t.json"),
         "--table"),
        (("check", "serre", "--target", "P1", "--bundle", "O1", "--s", "0,1/2",
          "--smax", "3"), "--smax"),
        # --s states the s-list: --smax 0 once checked an empty one and passed
        (("check", "serre", "--target", "P1", "--bundle", "O1", "--smax", "0",
          "--zmax", "2"), "--smax")])
    def test_check_rejects_a_flag_it_does_not_read(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "UsageError"
        assert re.search(re.escape(flag) + r"\b", error["message"]), error["message"]

    @pytest.mark.parametrize("argv, key, value", [
        (("check", "cocycle"), "K", 6),
        (("check", "string"), "nmax", 6),
        (("check", "serre", "--target", "P1", "--bundle", "O1"), "checked_zmax", 3)])
    def test_check_defaults_fill_in_unset_flags(self, capsys, argv, key, value):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)[key] == value
        code, out2, _ = run(capsys, *argv, "--" + key.replace("checked_", ""), str(value))
        assert code == 0 and out2 == out

    def test_check_string_on_the_point_target(self, capsys):
        code, out, _ = run(capsys, "check", "string", "--nmax", "6", "--target", "point")
        assert code == 0 and json.loads(out) == {"nmax": 6, "residual_zero": True,
                                                 "target": "point"}

    @pytest.mark.parametrize("kind", ["string", "dilaton", "trr"])
    def test_check_universal_needs_nmax_4(self, capsys, kind):
        """Below nmax 4 the point table has no n >= 4 entry, so no instance."""
        for nmax in ("3", "0"):
            code, out, err = run(capsys, "check", "universal", "--kind", kind, "--nmax", nmax)
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["code"] == "UsageError" and "--nmax >= 4" in error["message"]
        code, out, _ = run(capsys, "check", "universal", "--kind", kind, "--nmax", "4")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True and doc["instances"] > 0

    def test_check_string_needs_nmax_3(self, capsys):
        """At nmax 3 the residual keeps the t_0^2 term of -(1/2) t_0 g t_0,
        which only the potential's t_0^3 / 6 cancels; below, it is cut."""
        from orbiqrr.fockquant import FockPolynomial, string_residual
        from orbiqrr.orbtarget import point
        for nmax in ("2", "-1"):
            code, out, err = run(capsys, "check", "string", "--nmax", nmax)
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["code"] == "UsageError" and "--nmax >= 3" in error["message"]
        t = point()
        assert not string_residual(t, FockPolynomial(t, 3, 3)).is_zero
        assert string_residual(t, FockPolynomial(t, 2, 2)).is_zero
        code, out, _ = run(capsys, "check", "string", "--nmax", "3")
        assert code == 0 and json.loads(out)["residual_zero"] is True

    def test_check_universal_trr(self, capsys):
        code, out, _ = run(capsys, "check", "universal", "--kind", "trr", "--nmax", "7")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_check_universal_target_needs_a_table(self, capsys):
        # without --table only the point table exists: a P2 run must not report it as P2's
        code, out, err = run(capsys, "check", "universal", "--kind", "trr", "--nmax", "5",
                             "--target", "P2")
        assert code != 0 and out == ""
        assert json.loads(err)["error"]["code"] == "UsageError"
        code, out, _ = run(capsys, "check", "universal", "--kind", "trr", "--nmax", "5",
                           "--target", "point")
        assert code == 0 and json.loads(out)["instances"] == 6

    def test_check_universal_divisor_needs_a_table(self, capsys):
        # the built-in point table has no divisor: its 0 instances must not read as ok
        code, out, err = run(capsys, "check", "universal", "--kind", "divisor", "--nmax", "6")
        assert code != 0 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "UsageError"
        assert "divisor class" in error["message"]

    def test_check_serre(self, capsys):
        code, out, _ = run(capsys, "check", "serre", "--target", "P1", "--bundle", "O1",
                           "--zmax", "3")
        assert code == 0
        assert json.loads(out)["ok"]

    @pytest.mark.parametrize("argv, text", [
        (("delta", "--target", "Bmu3", "--bundle", "char:1", "--s", ",", "--zmax", "2"), ","),
        (("delta", "--target", "P1", "--bundle", "O1", "--s", "", "--zmax", "2"), ""),
        (("check", "serre", "--target", "P1", "--bundle", "O1", "--s", ",", "--zmax", "2"),
         ","),
        (("check", "serre", "--target", "Bmu3", "--bundle", "char:1", "--s", "",
          "--zmax", "2"), "")])
    def test_empty_s_list_is_a_usage_error(self, capsys, tmp_path, argv, text):
        """An s-list without an s-value would label the identity operator as
        Delta, or pass the Serre check on nothing."""
        cache = str(tmp_path / "cache")
        code, out, err = run(capsys, "--cache-dir", cache, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "UsageError" and repr(text) in error["message"]
        assert not os.path.exists(cache) or not os.listdir(cache)

    def test_check_universal_from_table_file(self, capsys, tmp_path):
        rows = []
        # a consistent 4-point block plus its 3-point reduction, then corrupt it
        rows.append({"d": [0], "insertions": [["0", 0, 1], ["0", 0, 0],
                                              ["0", 0, 0], ["0", 0, 0]], "value": "2"})
        rows.append({"d": [0], "insertions": [["0", 0, 0], ["0", 0, 0],
                                              ["0", 0, 0]], "value": "1"})
        doc = tmp_path / "table.json"
        doc.write_text(json.dumps({"rows": rows}))
        code, out, _ = run(capsys, "check", "universal", "--kind", "string",
                           "--table", str(doc))
        assert code == 0
        report = json.loads(out)
        assert not report["ok"]
        assert report["violations"][0]["residual"] == "1"

    @pytest.mark.parametrize("doc, path", [
        ({"rows": [{"d": [0], "insertions": [["7", 0, 0], ["0", 0, 0], ["0", 0, 0]],
                    "value": "0"}]}, "$.rows[0].insertions[0]"),
        ({"rows": [{"d": [0], "insertions": [["0", 0, 0], ["0", 0], ["0", 0, 0]],
                    "value": "0"}]}, "$.rows[0].insertions[1]"),
        ({"rows": [{"d": [0], "insertions": [["0", 0, 0], ["0", 0, 0], ["0", 0, -1]],
                    "value": "0"}]}, "$.rows[0].insertions[2]"),
        ({"rows": [{"d": [0], "insertions": [["0", 0, 0], ["0", 0, 0], ["0", 0, 0]],
                    "value": "x"}]}, "$.rows[0].value"),
        ({"rows": [{"d": [0, 0], "insertions": [["0", 0, 0], ["0", 0, 0], ["0", 0, 0]],
                    "value": "1"}]}, "$.rows[0].d"),
        ({"rows": [{"d": "0", "insertions": [], "value": "1"}]}, "$.rows[0].d"),
        ({"rows": [{"d": [0], "insertions": [], "value": "0"}, 7]}, "$.rows[1]"),
        ([], "$.rows"),
        ({"rows": {}}, "$.rows"),
        # a basis index and a psibar power are JSON integers, a value a "p/q"
        # string or a JSON integer: 0.5 read as 0, true and "1" as 1, 0.1 inexactly
        *[({"rows": [{"d": [0], "insertions": [["0", 0, 0], ["0", 0, 0], ["0", idx, k]],
                      "value": "0"}]}, "$.rows[0].insertions[2]")
          for idx, k in ((0, 0.5), (0, True), (0, "1"), (0, 1.0), (0.0, 0), (True, 0),
                         ("0", 0))],
        *[({"rows": [{"d": [0], "insertions": [["0", 0, 0], ["0", 0, 0], ["0", 0, 0]],
                      "value": value}]}, "$.rows[0].value")
          for value in (0.1, 1.0, True, None)],
        ({"rows": [{"d": [0], "insertions": [["0", 0, 0], ["0", 0, 0], ["0", 0, 0]]}]},
         "$.rows[0].value"),
        # a component is a string: 0 was read as "0"
        ({"rows": [{"d": [0], "insertions": [[0, 0, 0], ["0", 0, 0], ["0", 0, 0]],
                    "value": "0"}]}, "$.rows[0].insertions[0]"),
        ({"rows": [{"d": [0], "value": "0"}]}, "$.rows[0].insertions"),
    ])
    def test_check_universal_malformed_table(self, capsys, tmp_path, doc, path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "universal", "--kind", "string",
                           "--table", str(table))
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "SchemaError"
        assert err["message"].startswith(path + ":")

    def test_a_table_value_may_be_a_json_integer(self, capsys, tmp_path):
        """The same table with "2"/"1" values and with the JSON integers 2/1."""
        reports = []
        for two, one in (("2", "1"), (2, 1)):
            rows = [{"d": [0], "insertions": [["0", 0, 1], ["0", 0, 0], ["0", 0, 0],
                                              ["0", 0, 0]], "value": two},
                    {"d": [0], "insertions": [["0", 0, 0], ["0", 0, 0], ["0", 0, 0]],
                     "value": one}]
            (tmp_path / "table.json").write_text(json.dumps({"rows": rows}))
            code, out, _ = run(capsys, "check", "universal", "--kind", "string",
                               "--table", str(tmp_path / "table.json"))
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0] == reports[1] and reports[0]["violations"][0]["residual"] == "1"

    def test_check_universal_unreadable_table(self, capsys, tmp_path):
        missing = str(tmp_path / "no-such-table.json")
        code, out, _ = run(capsys, "check", "universal", "--table", missing)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "SchemaError" and missing in err["message"]
        (tmp_path / "bad.json").write_text("{rows")
        code, out, _ = run(capsys, "check", "universal", "--table", str(tmp_path / "bad.json"))
        assert code == 1 and json.loads(out)["error"]["message"].startswith("$: invalid JSON")

    def test_ifunction_from_config_jfile(self, capsys, tmp_path):
        from orbiqrr.genus0 import j_closed_form_Pn
        from orbiqrr.orbtarget import projective_space, target_to_obj
        j = j_closed_form_Pn(2, 1)
        rows = []
        for (n, d), cls in j.series.data.items():
            for (cid, idx), c in cls.terms.items():
                rows.append({"d": list(d), "zpow": n, "component": cid,
                             "basis": idx, "coeff": str(c.as_fraction())})
        jfile = tmp_path / "jp2.json"
        jfile.write_text(json.dumps({"rows": rows}))
        obj = target_to_obj(projective_space(2), [])
        obj["name"] = "P2custom"
        obj["jfunction_file"] = str(jfile)
        cfg = tmp_path / "p2.json"
        cfg.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "ifunction", "--target", str(cfg), "--bundle", "O1",
                           "--max-degree", "1", "--nonequivariant")
        assert code == 0
        assert json.loads(out)["rows"]

    def test_config_jfunction_file_is_relative_to_the_config(self, capsys, tmp_path,
                                                              monkeypatch):
        from orbiqrr.genus0 import j_closed_form_Pn
        from orbiqrr.orbtarget import projective_space, target_to_obj
        rows = []
        for (n, d), cls in j_closed_form_Pn(2, 1).series.data.items():
            for (cid, idx), c in cls.terms.items():
                rows.append({"d": list(d), "zpow": n, "component": cid,
                             "basis": idx, "coeff": str(c.as_fraction())})
        cfgdir = tmp_path / "cfg"
        cfgdir.mkdir()
        (cfgdir / "j.json").write_text(json.dumps({"rows": rows}))
        obj = target_to_obj(projective_space(2), [])
        obj["name"] = "P2custom"
        obj["jfunction_file"] = "j.json"
        (cfgdir / "t.json").write_text(json.dumps(obj))
        monkeypatch.chdir(tmp_path)
        argv = ["ifunction", "--target", os.path.join("cfg", "t.json"), "--bundle", "O1",
                "--max-degree", "1", "--nonequivariant"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["rows"]
        (cfgdir / "j.json").unlink()
        code, out, _ = run(capsys, *argv)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "SchemaError"
        assert os.path.join("cfg", "j.json") in err["message"]

    def test_config_jfunction_file_wins_over_the_target_name(self, capsys, tmp_path):
        """A config named P2 reads its own J file, not the built-in P2 series."""
        from orbiqrr.genus0 import j_closed_form_Pn
        from orbiqrr.orbtarget import projective_space, target_to_obj
        rows = []
        for (n, d), cls in j_closed_form_Pn(2, 1).series.data.items():
            for (cid, idx), c in cls.terms.items():
                coeff = c.as_fraction() * (7 if d == (1,) else 1)
                rows.append({"d": list(d), "zpow": n, "component": cid,
                             "basis": idx, "coeff": str(coeff)})
        (tmp_path / "j.json").write_text(json.dumps({"rows": rows}))

        def degree_one(name):
            obj = target_to_obj(projective_space(2), [])
            obj["name"] = name
            obj["jfunction_file"] = "j.json"
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
            code, out, _ = run(capsys, "ifunction", "--target", str(tmp_path / f"{name}.json"),
                               "--bundle", "O1", "--max-degree", "1", "--nonequivariant")
            assert code == 0
            return [r for r in json.loads(out)["rows"] if r["d"] == [1]]

        code, out, _ = run(capsys, "ifunction", "--target", "P2", "--bundle", "O1",
                           "--max-degree", "1", "--nonequivariant")
        builtin = [r for r in json.loads(out)["rows"] if r["d"] == [1]]
        assert [r["coeff"] for r in builtin] == ["3", "-2", "1"]
        scaled = [{**r, "coeff": str(7 * Fraction(r["coeff"]))} for r in builtin]
        assert degree_one("P2") == degree_one("P2custom") == scaled

    def test_closed_form_j_needs_a_target_equal_to_pn(self, capsys, tmp_path):
        from orbiqrr.orbtarget import projective_space, target_to_obj
        obj = target_to_obj(projective_space(2), [])
        obj["c1_tangent_pairing"] = ["4"]       # named P2, but not the built-in P2
        (tmp_path / "p2.json").write_text(json.dumps(obj))
        code, _out, err = run(capsys, "ifunction", "--target", str(tmp_path / "p2.json"),
                              "--bundle", "O1", "--max-degree", "1", "--nonequivariant")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "UsageError"

    def test_line_bundle_does_not_depend_on_the_target_name(self, capsys, tmp_path):
        """O<m> on a WPS config named like a projective space."""
        outs = []
        for name in ("P112", "W112"):
            obj = json.loads(dump_target(weighted_projective([1, 1, 2]), []))
            obj["name"] = name
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
            code, out, _ = run(capsys, "delta", "--target", str(tmp_path / f"{name}.json"),
                               "--bundle", "O1", "--euler", "--zmax", "3")
            assert code == 0, out
            outs.append(json.loads(out)["operator"])
        assert outs[0] == outs[1]

    def test_ifunction_classes_live_on_the_target(self, capsys, monkeypatch):
        """The CLI's I-function of P2/O3 pairs on its own target."""
        from orbiqrr import cli
        built = []
        real = cli.hypergeometric_modification

        def keep(t, F, J, **kw):
            built.append((t, real(t, F, J, **kw)))
            return built[-1][1]

        monkeypatch.setattr(cli, "hypergeometric_modification", keep)
        code, _out, _ = run(capsys, "ifunction", "--target", "P2", "--bundle", "O3",
                            "--max-degree", "2")
        assert code == 0
        (t, i), = built
        assert i.target is t
        classes = list(i.series.data.values())
        assert len(classes) > 10
        for cls in classes:
            assert cls.target is t
            t.orbifold_pairing(cls, t.unit())

    def test_ifunction_classes_live_on_a_config_copy_of_pn(self, capsys, tmp_path,
                                                          monkeypatch):
        """A config file equal to the built-in P2 gets the closed-form J, whose
        target is the shared P2; the I-function's classes still pair on the
        config's own target."""
        from orbiqrr import cli
        from orbiqrr.orbtarget import projective_space, target_to_obj
        cfg = tmp_path / "p2copy.json"
        cfg.write_text(json.dumps(target_to_obj(projective_space(2), [])))
        built = []
        real = cli.hypergeometric_modification

        def keep(t, F, J, **kw):
            built.append((t, J, real(t, F, J, **kw)))
            return built[-1][2]

        monkeypatch.setattr(cli, "hypergeometric_modification", keep)
        code, out, _ = run(capsys, "ifunction", "--target", str(cfg), "--bundle", "O3",
                           "--max-degree", "1")
        assert code == 0
        (t, j, i), = built
        assert j.target is not t and i.target is t
        for cls in i.series.data.values():
            assert cls.target is t
            t.orbifold_pairing(cls, t.unit())
        code, builtin, _ = run(capsys, "ifunction", "--target", "P2", "--bundle", "O3",
                               "--max-degree", "1")
        assert code == 0 and json.loads(builtin)["rows"] == json.loads(out)["rows"]

    def test_non_pn_target_builds_no_closed_form_j(self, capsys, monkeypatch):
        from orbiqrr import cli

        def boom(*_args):
            raise AssertionError("closed-form J built for a target that is not P^n")

        monkeypatch.setattr(cli, "j_closed_form_Pn", boom)
        code, _out, err = run(capsys, "mirror-map", "--target", "WPS:1,1,2", "--bundle", "O1",
                              "--max-degree", "2")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "UsageError"


class TestMaxDegree:
    @pytest.mark.parametrize("argv, least", [
        (("invariants", "--target", "P4", "--bundle", "O5", "--max-degree", "0"), 1),
        (("invariants", "--target", "P4", "--bundle", "O5", "--max-degree", "-3"), 1),
        (("mirror-map", "--target", "P2", "--bundle", "O3", "--max-degree", "-1"), 0),
        (("mirror-map", "--target", "P2", "--bundle", "O3", "--max-degree", "-2"), 0),
        (("ifunction", "--target", "P2", "--bundle", "O3", "--max-degree", "-1"), 0),
        (("ifunction", "--target", "P2", "--bundle", "O3", "--max-degree", "-1",
          "--nonequivariant"), 0),
    ])
    def test_out_of_range_is_a_usage_error(self, capsys, tmp_path, argv, least):
        cache = str(tmp_path / "cache")
        code, out, err = run(capsys, "--cache-dir", cache, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "UsageError"
        assert f"--max-degree >= {least}" in error["message"]
        assert not os.path.exists(cache) or not os.listdir(cache)

    def test_mirror_map_at_degree_zero(self, capsys):
        code, out, _ = run(capsys, "mirror-map", "--target", "P2", "--bundle", "O3",
                           "--max-degree", "0")
        assert code == 0
        assert out == ('{"bundle": "O3", "rows": [{"coeff": "1", "d": [0], "series": "F"}], '
                       '"target": "P2"}')

    def test_ifunction_at_degree_zero(self, capsys):
        code, out, _ = run(capsys, "ifunction", "--target", "P2", "--bundle", "O3",
                           "--max-degree", "0", "--nonequivariant")
        assert code == 0
        assert json.loads(out)["rows"] == [
            {"basis": "1", "coeff": "1", "component": "0", "d": [0], "zpow": 1}]

    def test_jfunction_file_is_cut_to_max_degree(self, capsys, tmp_path):
        """A config copy of P4 whose J file goes to degree 2 gives the built-in
        P4 rows at --max-degree 1 and 2; --max-degree 3 is a UsageError that
        names both degrees."""
        from orbiqrr.genus0 import j_closed_form_Pn
        from orbiqrr.orbtarget import target_to_obj, wps_pullback_line
        rows = []
        for (n, d), cls in j_closed_form_Pn(4, 2).series.data.items():
            for (cid, idx), c in cls.terms.items():
                rows.append({"d": list(d), "zpow": n, "component": cid,
                             "basis": idx, "coeff": str(c.as_fraction())})
        (tmp_path / "j.json").write_text(json.dumps({"rows": rows}))
        p4 = projective_space(4)
        obj = target_to_obj(p4, [wps_pullback_line(p4, 5)])
        obj["name"] = "P4file"
        obj["jfunction_file"] = "j.json"
        cfg = str(tmp_path / "p4file.json")
        with open(cfg, "w") as fh:
            fh.write(json.dumps(obj))
        for command, extra in (("ifunction", ("--nonequivariant",)), ("invariants", ())):
            for degree in ("1", "2"):
                code, out, _ = run(capsys, command, "--target", cfg, "--bundle", "O5",
                                   "--max-degree", degree, *extra)
                assert code == 0, (command, degree)
                code, builtin, _ = run(capsys, command, "--target", "P4", "--bundle", "O5",
                                       "--max-degree", degree, *extra)
                assert json.loads(out)["rows"] == json.loads(builtin)["rows"], (command, degree)
            code, out, err = run(capsys, command, "--target", cfg, "--bundle", "O5",
                                 "--max-degree", "3", *extra)
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["code"] == "UsageError"
            assert "--max-degree 3" in error["message"] and "degree 2" in error["message"]


class TestZmax:
    @pytest.mark.parametrize("argv", [
        ("delta", "--target", "Bmu3", "--bundle", "char:1", "--euler", "--zmax", "-3"),
        ("delta", "--target", "P1", "--bundle", "O1", "--euler", "--zmax", "-2", "--log"),
        ("delta", "--target", "P1", "--bundle", "O1", "--s", "0,1", "--zmax", "-1",
         "--check-symplectic"),
        ("check", "serre", "--target", "P1", "--bundle", "O1", "--zmax", "-1"),
    ])
    def test_negative_zmax_is_a_usage_error(self, capsys, tmp_path, argv):
        cache = str(tmp_path / "cache")
        code, out, err = run(capsys, "--cache-dir", cache, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "UsageError" and "--zmax >= 0" in error["message"]
        assert not os.path.exists(cache) or not os.listdir(cache)
        zero = list(argv)
        zero[zero.index("--zmax") + 1] = "0"
        assert run(capsys, *zero)[0] == 0, zero


class TestCharacter:
    @pytest.mark.parametrize("target, j", [("P2", 1), ("WPS:1,2", 2), ("point", 1)])
    def test_character_needs_a_bmu_target(self, capsys, tmp_path, target, j):
        cache = str(tmp_path / "cache")
        code, out, _ = run(capsys, "--cache-dir", cache, "delta", "--target", target,
                           "--bundle", f"char:{j}", "--euler", "--zmax", "2")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "InvalidParams" and "B(mu_r)" in error["message"]
        assert not os.path.exists(cache) or not os.listdir(cache)
        code, out, _ = run(capsys, "delta", "--target", "Bmu3", "--bundle", f"char:{j}",
                           "--euler", "--zmax", "2")
        assert code == 0 and json.loads(out)["bundle"] == f"char{j}"


class TestTrivialBundle:
    @pytest.mark.parametrize("spec, name", [("trivial", "trivial"), ("trivial:1", "trivial"),
                                            ("trivial:2", "trivial:2"),
                                            ("Trivial:3", "trivial:3")])
    def test_a_rank_other_than_1_is_in_the_name(self, capsys, tmp_path, spec, name):
        """Rank 1 keeps the name ``trivial``; another rank prints as trivial:<r>."""
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path / "cache"), "delta",
                           "--target", "point", "--bundle", spec, "--euler", "--zmax", "1")
        assert code == 0 and json.loads(out)["bundle"] == name

    @pytest.mark.parametrize("spec", ["trivialfoo", "trivial2", "trivial:", "trivial:x"])
    def test_only_trivial_and_trivial_r_are_accepted(self, capsys, tmp_path, spec):
        cache = str(tmp_path / "cache")
        code, out, err = run(capsys, "--cache-dir", cache, "delta", "--target", "point",
                             "--bundle", spec, "--euler", "--zmax", "1")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "UsageError" and repr(spec) in error["message"]
        assert not os.path.exists(cache) or not os.listdir(cache)


class TestCache:
    def test_delta_euler_hit_skips_the_s_values(self, capsys, tmp_path, monkeypatch):
        from orbiqrr import cli, loopops
        argv = ["--cache-dir", str(tmp_path / "cache"), "delta", "--target", "Bmu3",
                "--bundle", "char:1", "--euler", "--zmax", "3"]
        code1, out1, _ = run(capsys, *argv)

        def boom(*args, **kwargs):
            raise AssertionError("a cache hit must not compute the Euler s-values")

        monkeypatch.setattr(loopops, "euler_s_values", boom)
        monkeypatch.setattr(cli, "euler_s_values", boom)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert json.loads(out1)["cache"] == "computed"
        assert json.loads(out2)["cache"] == "cached"
        assert out2 == out1.replace('"cache": "computed"', '"cache": "cached"')

    @pytest.mark.parametrize("argv", [
        ["delta", "--target", "Bmu8", "--bundle", "char:3", "--euler", "--zmax", "3"],
        ["ifunction", "--target", "P1", "--bundle", "O2", "--max-degree", "1"],
    ])
    def test_hit_skips_the_bundle_model(self, capsys, tmp_path, monkeypatch, argv):
        from orbiqrr.orbtarget import BundleModel
        argv = ["--cache-dir", str(tmp_path / "cache")] + argv
        code1, out1, _ = run(capsys, *argv)

        def boom(self):
            raise AssertionError("a cache hit must not build and validate the bundle")

        monkeypatch.setattr(BundleModel, "validate", boom)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert json.loads(out1)["cache"] == "computed"
        assert out2 == out1.replace('"cache": "computed"', '"cache": "cached"')

    @pytest.mark.parametrize("bundle", ["Oxx", "nosuch"])
    def test_bad_bundle_stores_nothing(self, capsys, tmp_path, bundle):
        cache = tmp_path / "cache"
        for _ in range(2):
            code, _out, err = run(capsys, "--cache-dir", str(cache), "delta", "--target",
                                  "P1", "--bundle", bundle, "--euler", "--zmax", "2")
            assert code == 2
            assert json.loads(err)["error"]["code"] == "UsageError"
        assert not os.path.exists(cache) or not os.listdir(cache)

    def test_delta_euler_rejects_the_symplectic_check(self, capsys, tmp_path):
        code, _out, _err = run(capsys, "--cache-dir", str(tmp_path / "cache"), "delta",
                               "--target", "point", "--bundle", "trivial", "--euler",
                               "--zmax", "2", "--check-symplectic")
        assert code == 2
        assert not os.path.exists(tmp_path / "cache") or not os.listdir(tmp_path / "cache")

    def test_cold_warm_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["--cache-dir", cache, "invariants", "--target", "P4",
                "--bundle", "O5", "--max-degree", "1"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        doc1, doc2 = json.loads(out1), json.loads(out2)
        assert doc1["cache"] == "computed"
        assert doc2["cache"] == "cached"
        doc1.pop("cache"), doc2.pop("cache")
        assert doc1 == doc2

    def test_tampered_entry_recomputed(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["--cache-dir", cache, "invariants", "--target", "P4",
                "--bundle", "O5", "--max-degree", "1"]
        run(capsys, *argv)
        (entry,) = os.listdir(cache)
        path = os.path.join(cache, entry)
        doc = json.loads(open(path).read())
        doc["payload"]["rows"][0]["N"] = "999"
        open(path, "w").write(json.dumps(doc))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc2 = json.loads(out)
        assert doc2["cache"] == "recomputed"
        assert doc2["rows"][0]["N"] == "2875"

    @staticmethod
    def _invariants_entry(capsys, tmp_path):
        """A cache holding the entry of ``invariants P4/O5 --max-degree 1``."""
        cache = str(tmp_path / "cache")
        argv = ["--cache-dir", cache, "invariants", "--target", "P4",
                "--bundle", "O5", "--max-degree", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        (entry,) = os.listdir(cache)
        return argv, os.path.join(cache, entry), json.loads(out)

    def test_flipped_payload_byte_recomputed(self, capsys, tmp_path):
        argv, path, _first = self._invariants_entry(capsys, tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data.count(b'"N": "2875"') == 1
        with open(path, "wb") as fh:      # one byte, same length and layout
            fh.write(data.replace(b'"N": "2875"', b'"N": "2876"'))
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and doc["cache"] == "recomputed"
        assert doc["rows"][0]["N"] == "2875"
        with open(path, "rb") as fh:
            assert fh.read() == data      # overwritten with the right entry

    @pytest.mark.parametrize("damage", [
        lambda data: data[:len(data) // 2],                             # torn mid-payload
        lambda data: data[:-1],                                         # last byte lost
        lambda data: data.replace(b'"version":2}', b'"version":3}'),    # another version
        lambda data: data + b"\n",                                      # trailing newline
        lambda data: _rehashed(data, b'{"rows":['),                     # hash ok, not JSON
        lambda data: _rehashed(data, b'[{"rows": []}]'),                # hash ok, not an object
        lambda data: _rehashed(data, b'{"rows": "\xff"}'),              # hash ok, not UTF-8
    ])
    def test_entry_not_in_the_layout_recomputed(self, capsys, tmp_path, damage):
        argv, path, first = self._invariants_entry(capsys, tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(damage(data))
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and doc["cache"] == "recomputed"
        assert doc == {**first, "cache": "recomputed"}

    def test_entry_written_as_a_document_is_served(self, capsys, tmp_path):
        """An entry written in the documented layout, around the text a hit
        prints, is a hit: read from the entry and printed as it is stored."""
        argv, path, first = self._invariants_entry(capsys, tmp_path)
        first["rows"][0]["N"] = "999"
        text = json.dumps({**first, "cache": "cached"}, sort_keys=True)
        with open(path, "wb") as fh:
            fh.write(_entry(os.path.basename(path)[:-len(".json")], text.encode()))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == text
        assert json.loads(out)["rows"][0]["N"] == "999"

    @settings(max_examples=150, deadline=None)
    @given(_PAYLOADS)
    def test_store_load_round_trip_pins_the_layout(self, payload):
        """An entry is the frame around the text a hit prints; load returns
        that text and its parse."""
        from orbiqrr import cache as cache_mod
        with tempfile.TemporaryDirectory() as directory:
            store = cache_mod.ArtifactCache(directory)
            key = cache_mod.request_key({"payload": payload})
            store.store(key, payload)
            text = json.dumps({**payload, "cache": "cached"}, sort_keys=True)
            assert store.load(key) == (text, {**payload, "cache": "cached"})
            with open(store._path(key), "rb") as fh:
                assert fh.read() == _entry(key, text.encode())

    @settings(max_examples=100, deadline=None)
    @given(_PAYLOADS, st.none() | st.lists(st.dictionaries(_TRICKY_TEXT, _JSON_VALUES,
                                                             max_size=3), max_size=4))
    def test_hit_prints_what_a_re_encoded_hit_printed(self, payload, rows):
        """The fast path (print the verified text, format the parse load made)
        against the slow path (parse the canonical payload, add the status and
        encode it again), in every format."""
        from orbiqrr import cache as cache_mod
        from orbiqrr.cli import emit
        if rows is not None:
            payload = {**payload, "rows": rows}
        slow = {**json.loads(cache_mod.canonical_json(payload)), "cache": "cached"}
        with tempfile.TemporaryDirectory() as directory:
            store = cache_mod.ArtifactCache(directory)
            store.store("k", payload)
            hit = store.load("k")
            assert hit.text == json.dumps(slow, sort_keys=True)
            with open(store._path("k"), "rb") as fh:
                assert fh.read() == _entry("k", hit.text.encode())
        for fmt in ("json", "pretty") + (("csv",) if rows is not None else ()):
            assert emit(hit, fmt) == emit(slow, fmt)

    @pytest.mark.parametrize("argv, formats", [
        (["ifunction", "--target", "P1", "--bundle", "O2", "--max-degree", "2"],
         ("json", "pretty", "csv")),
        (["ifunction", "--target", "P2", "--bundle", "O3", "--max-degree", "1",
          "--nonequivariant"], ("json", "pretty", "csv")),
        (["delta", "--target", "Bmu3", "--bundle", "char:1", "--euler", "--zmax", "3"],
         ("json", "pretty")),
        (["delta", "--target", "WPS:1,1,2", "--bundle", "O1", "--euler", "--zmax", "2",
          "--log"], ("json", "pretty")),
        (["delta", "--target", "Bmu3", "--bundle", "char:1", "--s=0,2/5,-1/3,1/7",
          "--zmax", "3", "--check-symplectic"], ("json", "pretty")),
        (["invariants", "--target", "P4", "--bundle", "O5", "--max-degree", "2"],
         ("json", "pretty", "csv")),
    ])
    def test_warm_stdout_is_cold_stdout_with_the_status_changed(self, capsys, tmp_path,
                                                                 argv, formats):
        for fmt in formats:
            cache = ["--format", fmt, "--cache-dir", str(tmp_path / fmt)]
            code1, cold, _ = run(capsys, *cache, *argv)
            code2, warm, _ = run(capsys, *cache, *argv)
            assert code1 == code2 == 0
            if fmt == "csv":             # rows only: no status to change
                assert warm == cold != ""
            else:
                assert cold.count('"cache": "computed"') == 1
                assert warm == cold.replace('"cache": "computed"', '"cache": "cached"')
            if "--check-symplectic" in argv:
                assert json.loads(warm)["symplectic_check"]["symplectic"] is True

    def test_concurrent_writers_and_a_killed_writer(self, tmp_path):
        """Three processes store one key in a loop while it is loaded: every
        load is a miss or a verified hit.  A fourth is killed halfway through
        its write: the previous entry still loads, and its temp file is ignored."""
        import multiprocessing
        import signal
        from orbiqrr.cache import ArtifactCache
        ctx = multiprocessing.get_context("spawn")
        directory = str(tmp_path / "cache")
        payloads = [{"rows": [str(i) * (1000 + 3000 * i)], "writer": i} for i in range(3)]
        texts = {json.dumps({**p, "cache": "cached"}, sort_keys=True) for p in payloads}
        stop = ctx.Event()
        writers = [ctx.Process(target=_store_until, args=(directory, p, stop))
                   for p in payloads]
        for w in writers:
            w.start()
        store = ArtifactCache(directory)
        hits, deadline = [], time.monotonic() + 60
        try:
            while len(hits) < 300 and time.monotonic() < deadline:
                hit = store.load("k")            # a torn entry would raise CorruptCache
                if hit is not None:
                    hits.append(hit)
        finally:
            stop.set()
            for w in writers:
                w.join(30)
        assert [w.exitcode for w in writers] == [0, 0, 0]
        assert len(hits) == 300
        assert all(hit.text in texts and hit.doc == json.loads(hit.text) for hit in hits)
        last = store.load("k")
        assert last.text in texts

        halfway = ctx.Event()
        victim = ctx.Process(target=_store_half, args=(directory, halfway))
        victim.start()
        try:
            assert halfway.wait(30)
        finally:
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(30)
        assert victim.exitcode == -signal.SIGKILL
        (tmp,) = [name for name in os.listdir(directory) if name.endswith(".tmp")]
        assert os.path.getsize(os.path.join(directory, tmp)) > 0
        assert store.load("k") == last

    def test_version_bump_invalidates(self, capsys, tmp_path):
        from orbiqrr import cache as cache_mod
        cachedir = str(tmp_path / "cache")
        argv = ["--cache-dir", cachedir, "invariants", "--target", "P4",
                "--bundle", "O5", "--max-degree", "1"]
        run(capsys, *argv)
        old = cache_mod.SCHEMA_VERSION
        try:
            cache_mod.SCHEMA_VERSION = old + 1
            code, out, _ = run(capsys, *argv)
            assert json.loads(out)["cache"] == "computed"
        finally:
            cache_mod.SCHEMA_VERSION = old

    def test_package_version_in_key(self, capsys, tmp_path, monkeypatch):
        from orbiqrr import cache as cache_mod
        request = {"op": "invariants", "target": "P4", "bundle": "O5", "max_degree": 1}
        old_key = cache_mod.request_key(request)
        cachedir = str(tmp_path / "cache")
        argv = ["--cache-dir", cachedir, "invariants", "--target", "P4",
                "--bundle", "O5", "--max-degree", "1"]
        run(capsys, *argv)
        assert os.listdir(cachedir) == [f"{old_key}.json"]
        monkeypatch.setattr(cache_mod, "__version__", cache_mod.__version__ + ".post1")
        assert cache_mod.request_key(request) != old_key
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["cache"] == "computed"

    def test_failed_write_keeps_old_entry(self, tmp_path, monkeypatch):
        from orbiqrr import cache as cache_mod

        class TornFile:
            """Writes half of what it is given to the real file, then fails."""

            def __init__(self, path, mode):
                self.fh = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        store = cache_mod.ArtifactCache(str(tmp_path / "cache"))
        store.store("k", {"rows": ["old"]})
        monkeypatch.setattr(cache_mod, "open", TornFile, raising=False)
        with pytest.raises(OSError, match="disk full"):
            store.store("k", {"rows": ["new" * 1000]})
        monkeypatch.undo()
        assert store.load("k") == ('{"cache": "cached", "rows": ["old"]}',
                                   {"cache": "cached", "rows": ["old"]})
        assert os.listdir(store.directory) == ["k.json"]   # no temp file left behind

    def test_config_target_keyed_by_content(self, capsys, tmp_path, monkeypatch):
        from orbiqrr.orbtarget import projective_space, target_to_obj, wps_pullback_line
        monkeypatch.chdir(tmp_path)
        t = projective_space(1)
        obj = target_to_obj(t, [wps_pullback_line(t, 1)])
        obj["bundles"][0]["name"] = "F"
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(obj))
        argv = ["--cache-dir", "c", "delta", "--target", "t.json", "--bundle", "F",
                "--s=0,1,1,1", "--zmax", "2"]
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and doc["cache"] == "computed"
        assert doc["operator"]["blocks"]["1"]["0/p"] == "1/12"
        # ch_1 of F: 1 -> 5, with its line and c1 pairing to match
        obj["bundles"] = target_to_obj(t, [wps_pullback_line(t, 5)])["bundles"]
        obj["bundles"][0]["name"] = "F"
        cfg.write_text(json.dumps(obj))
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and doc["cache"] == "computed"
        assert doc["operator"]["blocks"]["1"]["0/p"] == "5/12"
        code, out, _ = run(capsys, *argv)
        assert json.loads(out)["cache"] == "cached"

    def test_config_target_keyed_by_jfunction_content(self, capsys, tmp_path, monkeypatch):
        from orbiqrr.genus0 import j_closed_form_Pn
        from orbiqrr.orbtarget import projective_space, target_to_obj
        monkeypatch.chdir(tmp_path)

        def write_j(scale):
            rows = []
            for (n, d), cls in j_closed_form_Pn(2, 1).series.data.items():
                for (cid, idx), c in cls.terms.items():
                    coeff = c.as_fraction() * (scale if d != (0,) else 1)
                    rows.append({"d": list(d), "zpow": n, "component": cid,
                                 "basis": idx, "coeff": str(coeff)})
            (tmp_path / "j.json").write_text(json.dumps({"rows": rows}))

        obj = target_to_obj(projective_space(2), [])
        obj["name"] = "P2custom"
        obj["jfunction_file"] = "j.json"
        (tmp_path / "t.json").write_text(json.dumps(obj))
        argv = ["--cache-dir", "c", "ifunction", "--target", "t.json", "--bundle", "O1",
                "--max-degree", "1", "--nonequivariant"]
        write_j(1)
        code, out, _ = run(capsys, *argv)
        first = json.loads(out)
        assert code == 0 and first["cache"] == "computed"
        write_j(2)
        code, out, _ = run(capsys, *argv)
        second = json.loads(out)
        assert code == 0 and second["cache"] == "computed"
        assert second["rows"] != first["rows"]

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        cachedir = str(tmp_path / "envcache")
        monkeypatch.setenv("ORBIQRR_CACHE", cachedir)
        code, out, _ = run(capsys, "bernoulli", "--m", "3", "--x", "1/3")
        assert code == 0
        assert json.loads(out)["value"] == "1/27"
