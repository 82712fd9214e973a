"""End-to-end tests for the command line front end."""

import contextlib
import importlib.resources
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ordspace
from ordspace import ordinal, topology
from ordspace.cli import MAX_PIECES, run, _color_enabled
from ordspace.extract import MAX_STAGES, ExtractionCertificate, family_from_table
from ordspace.fuzz import shrink_step_function
from ordspace.grasberg import StepFunction, constant, step_function_from_json, step_function_to_json, sup_on
from ordspace.ordinal import OMEGA, ONE, from_int, parse
from ordspace.topology import ClosedSet, Singleton, Stratum, interval
from ordspace.trees import tree_from_json


def cap(argv):
    """Run the CLI, returning (exit code, combined output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = run(argv)
    return code, out.getvalue()


def load_schema(name):
    root = importlib.resources.files("ordspace") / "schema" / "v1"
    return json.loads((root / name).read_text())


CONST_ONE = json.dumps(step_function_to_json(constant(OMEGA, 1)))


# --- ord ---------------------------------------------------------------------


def test_ord_eval_canonicalizes():
    assert cap(["ord", "eval", "w^(2)*2 + 3"]) == (0, "w^(2)*2+3\n")


def test_ord_eval_json_is_valid():
    code, out = cap(["ord", "eval", "--json", "w"])
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("ordinal.json"))


def test_ord_cmp():
    assert cap(["ord", "cmp", "w", "w^(2)"]) == (0, "less\n")
    assert cap(["ord", "cmp", "w", "w"]) == (0, "equal\n")
    assert cap(["ord", "cmp", "w^(w)", "w^(3)"]) == (0, "greater\n")


def test_ord_add_absorbs():
    assert cap(["ord", "add", "w", "1", "w"]) == (0, "w*2\n")


def test_ord_mul():
    assert cap(["ord", "mul", "w^(2)+w", "2"]) == (0, "w^(2)*2+w\n")


def test_ord_sub():
    assert cap(["ord", "sub", "w", "w*2"]) == (0, "w\n")


def test_ord_sub_domain_error_is_exit_1():
    code, out = cap(["ord", "sub", "w*2", "w"])
    assert code == 1
    assert out.startswith("error:")


# --- cb / derive / szlenk ------------------------------------------------------


def test_cb_omega():
    assert cap(["cb", "w"]) == (0, "2\n")


def test_cb_omega_omega():
    assert cap(["cb", "w^(w)"]) == (0, "w+1\n")


def test_derive_text():
    code, out = cap(["derive", "w^(2)*2+3", "--times", "2"])
    assert code == 0
    assert out == "mult(w^(2)) in (0, w^(2)*2+3]\n"


def test_derive_json_is_valid_closed_set():
    code, out = cap(["derive", "--json", "w", "--times", "1"])
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("closed_set.json"))


def test_szlenk_exact_line():
    assert cap(["szlenk", "w^(w)"]) == (0, "CB=w+1, Sz(C(K))=w^(2)\n")


def test_szlenk_json_fields():
    code, out = cap(["szlenk", "--json", "w"])
    data = json.loads(out)
    assert code == 0
    assert data["indexText"] == "w"
    assert data["cbText"] == "2"


# --- grasberg ------------------------------------------------------------------


def test_grasberg_params():
    assert cap(["grasberg", "params", "--space", "w^(w)"]) == (0, "o=1, b=1, CB=w+1\n")


def test_grasberg_norm_inline_fn():
    assert cap(["grasberg", "norm", "--space", "w", "--fn", CONST_ONE]) == (0, "2\n")


def test_grasberg_phi_text_and_json():
    code, out = cap(["grasberg", "phi", "--space", "w", "--fn", CONST_ONE, "--eps", "1/2"])
    assert (code, out) == (0, "{w}\n")
    code, out = cap(
        ["grasberg", "phi", "--json", "--space", "w", "--fn", CONST_ONE, "--eps", "1/2"]
    )
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("closed_set.json"))


def test_grasberg_norm_bad_json_is_exit_1():
    code, out = cap(["grasberg", "norm", "--space", "w", "--fn", "{not json"])
    assert code == 1
    assert out.startswith("error:")


@pytest.mark.parametrize(
    "on_object, on_piece, message",
    [
        ({"colour": "x"}, {"note": "x"}, "step function JSON has an unknown field 'colour'"),
        ({}, {"note": "x"}, "step function piece has an unknown field 'note'"),
    ],
    ids=["object", "piece"],
)
def test_grasberg_norm_refuses_keys_the_schema_does_not_name(on_object, on_piece, message):
    data = json.loads(CONST_ONE)
    data.update(on_object)
    data["pieces"][0].update(on_piece)
    code, out = cap(["grasberg", "norm", "--space", "w", "--fn", json.dumps(data)])
    assert (code, out) == (1, f"error: {message}\n")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, load_schema("step_function.json"))


def test_step_function_json_matches_schema():
    payload = step_function_to_json(
        StepFunction(OMEGA, (from_int(3), OMEGA), (Fraction(2, 3), Fraction(0)))
    )
    jsonschema.validate(payload, load_schema("step_function.json"))


# --- check ---------------------------------------------------------------------


def test_check_king_pass_line():
    code, out = cap(["check", "king", "--space", "w^(2)", "--trials", "50", "--seed", "1"])
    assert (code, out) == (0, "50/50 pass\n")


def test_check_queen_pass_line():
    code, out = cap(["check", "queen", "--space", "w", "--trials", "25", "--seed", "3"])
    assert (code, out) == (0, "25/25 pass\n")


def test_check_json_report():
    code, out = cap(
        ["check", "king", "--space", "w", "--trials", "3", "--seed", "1", "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"trials": 3, "passes": 3, "pass": True}


def test_check_negative_trials_is_exit_1():
    code, out = cap(["check", "king", "--space", "w", "--trials", "-5"])
    assert (code, out) == (1, "error: trials must be >= 0\n")


FINITE_SPACE = "error: Grasberg parameters need an infinite space (cb index >= 2)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["king", "--space", "0"], FINITE_SPACE),
        (["queen", "--space", "7"], FINITE_SPACE),
        (["king", "--space", "w", "--max-pieces", "0"], "error: max_pieces must be >= 1\n"),
        (["king", "--space", "w", "--max-pieces", "100000000"], f"error: max_pieces must be <= {MAX_PIECES}\n"),
    ],
    ids=["king-space-0", "queen-space-7", "max-pieces-0", "max-pieces-above-cap"],
)
def test_check_rejects_bad_inputs_before_any_trial(argv, message):
    """Zero trials still validate the space and --max-pieces, as one trial does."""
    for trials in ("0", "1"):
        assert cap(["check", *argv, "--trials", trials]) == (1, message)


def _top(h):
    return max(abs(v) for v in h.values)


def _king_fails(f, space, eps):
    return SimpleNamespace(passed=not (len(f.values) >= 3 and _top(f) > Fraction(1, 3)))


def _queen_fails(f, g, space, eps):
    # g's bound depends on f, so shrinking g before f would end elsewhere
    return SimpleNamespace(
        passed=not (len(f.values) >= 2 and _top(f) > Fraction(1, 3) and _top(g) > _top(f) / 1000)
    )


# Recorded with the lemmas replaced by the rules above: the first failure is
# trial 2 of seed 2; pieces shrink before values, and f before g.
FAILING_CHECKS = {
    ("king", "w^(2)"): '{"lemma": "king", "pass": false, "eps": "17/20", "f": {"ambient": '
    '[[[[[], 2]], 1]], "pieces": [{"upTo": [[[], 2]], "value": "0"}, {"upTo": [[[[[], 1]], 3]], '
    '"value": "1/2"}, {"upTo": [[[[[], 2]], 1]], "value": "0"}]}}',
    ("queen", "w"): '{"lemma": "queen", "pass": false, "eps": "17/20", "f": {"ambient": '
    '[[[[[], 1]], 1]], "pieces": [{"upTo": [[[], 1]], "value": "-2/3"}, {"upTo": [[[[[], 1]], 1]], '
    '"value": "0"}]}, "g": {"ambient": [[[[[], 1]], 1]], "pieces": [{"upTo": [[[[[], 1]], 1]], '
    '"value": "17/320"}]}}',
}


@pytest.mark.lock
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("lemma, space", list(FAILING_CHECKS))
def test_check_failure_prints_shrunk_counterexample(monkeypatch, lemma, space, as_json):
    import ordspace.grasberg

    monkeypatch.setattr(ordspace.grasberg, "check_king", _king_fails)
    monkeypatch.setattr(ordspace.grasberg, "check_queen", _queen_fails)
    argv = ["check", lemma, "--space", space, "--trials", "50", "--seed", "2"]
    payload = FAILING_CHECKS[lemma, space]
    if as_json:
        assert cap(argv + ["--json"]) == (1, payload + "\n")
    else:
        pretty = json.dumps(json.loads(payload), indent=2)
        assert cap(argv) == (1, f"2/50 FAIL\nminimal counterexample:\n{pretty}\n")


def test_check_deterministic():
    argv = ["check", "queen", "--space", "w^(2)", "--trials", "40", "--seed", "9"]
    assert cap(argv) == cap(argv)


@pytest.mark.lock
def test_check_queen_builds_one_critical_set_per_trial(phi_builds):
    """The trial's scaling step and check_queen share one phi(f, space, eps)."""
    argv = ["check", "queen", "--space", "w^(2)", "--trials", "30", "--seed", "4"]
    assert cap(argv) == (0, "30/30 pass\n")
    assert len(phi_builds) == 30


# --- tree ------------------------------------------------------------------------


def test_tree_rank_text_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a -\nb a\nc b\n")
    assert cap(["tree", "rank", "--file", str(path)]) == (0, "3\n")


def test_tree_rank_json_file(tmp_path):
    path = tmp_path / "t.json"
    payload = {"nodes": [{"id": "a", "parent": None}, {"id": "b", "parent": "a"}]}
    jsonschema.validate(payload, load_schema("tree.json"))
    path.write_text(json.dumps(payload))
    assert cap(["tree", "rank", "--file", str(path)]) == (0, "2\n")


def test_tree_facts(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a -\nb a\nc b\n")
    code, out = cap(["tree", "facts", "--file", str(path)])
    assert code == 0
    assert out == "rank 3\nfacts i and ii for k=0..3: pass\n"


def test_tree_bad_file_is_exit_1(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a -\na -\n")
    code, out = cap(["tree", "rank", "--file", str(path)])
    assert code == 1
    assert out.startswith("error:")


def test_tree_node_named_dash_is_exit_1(tmp_path):
    # '-' marks a node without a parent, so "- -" then "x -" must not make x a root
    path = tmp_path / "t.txt"
    path.write_text("- -\nx -\n")
    code, out = cap(["tree", "facts", "--file", str(path)])
    assert (code, out) == (1, "error: line 1: '-' means no parent and cannot be a node id\n")


# --- extract ----------------------------------------------------------------------


def test_extract_text_transcript():
    code, out = cap(
        ["extract", "--space", "w", "--family", "marching-indicators", "--delta", "1/2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=17 eps=1/34"
    assert lines[2] == "finalNorm=1/17 < delta=1/2"


def test_extract_json_is_valid_certificate():
    code, out = cap(
        [
            "extract",
            "--json",
            "--space",
            "w",
            "--family",
            "marching-indicators",
            "--delta",
            "1/2",
        ]
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("certificate.json"))
    assert set(data) == {"n", "eps", "branch", "stageNorms", "finalNorm"}


def test_extract_deterministic():
    argv = ["extract", "--json", "--space", "w", "--family", "marching-indicators", "--delta", "1/2"]
    assert cap(argv) == cap(argv)


def test_extract_tall_space_is_exit_1():
    code, out = cap(
        ["extract", "--space", "w^(w)", "--family", "marching-indicators", "--delta", "1/2"]
    )
    assert code == 1
    assert "o = 1" in out


def test_extract_text_output_builds_no_json(monkeypatch):
    argv = ["extract", "--space", "w^(2)", "--delta", "1/4"]
    expected = cap(argv)

    def refuse(self):
        raise AssertionError("text output built the JSON certificate")

    monkeypatch.setattr(ExtractionCertificate, "to_json", refuse)
    assert cap(argv) == expected
    assert expected[0] == 0 and expected[1].startswith("n=65 eps=1/130\n")


def test_extract_negative_budget_is_exit_1(tmp_path):
    # The child-search budget is a table's cutoff, so a negative budget is
    # refused where the table is read, before any extraction runs.
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"cutoff": -1}))
    code, out = cap(["extract", "--space", "w", "--family", str(path), "--delta", "1/2"])
    assert (code, out) == (1, "error: family table cutoff must be an integer >= 1, got -1\n")


def test_extract_exhausted_budget_names_witness(tmp_path):
    # Stage 1 picks the indicator of [0, 3]; every stage-2 child is 1/10 on
    # [0, 1] and 1 on (1, 3], so no child within the cutoff is small on the
    # critical set {0, 1, 2, 3}, and the witness is its first point where the
    # last child is largest.
    first = StepFunction(OMEGA, (from_int(3), OMEGA), (Fraction(1), Fraction(0)))
    default = StepFunction(OMEGA, (from_int(1), from_int(3), OMEGA), (Fraction(1, 10), Fraction(1), Fraction(0)))
    path = tmp_path / "fam.json"
    path.write_text(
        json.dumps(
            {
                "cutoff": 5,
                "entries": [{"path": [0], "fn": step_function_to_json(first)}],
                "default": step_function_to_json(default),
            }
        )
    )
    code, out = cap(["extract", "--space", "w", "--family", str(path), "--delta", "1/2"])
    assert code == 1 and one_line_error(out)
    assert "at node [0], witness point 2: no child fell below 1/68 on the critical set within 5 probes" in out


def test_extract_ladder_with_a_family_table_is_exit_1(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"cutoff": 40}))
    code, out = cap(["extract", "--space", "w", "--family", str(path), "--delta", "1/2", "--ladder", "2"])
    assert (code, out) == (1, "error: --ladder applies only to the marching-indicators family\n")


def test_extract_long_ladder_does_not_list_points():
    # each critical set holds about 10,000 points; listing them would take minutes
    code, out = cap(
        ["extract", "--space", "w+1000000", "--ladder", "10000", "--delta", "1/2"]
    )
    assert code == 0
    assert out.splitlines()[0] == "n=17 eps=1/34"


def test_extract_family_table(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"cutoff": 40}))
    code, out = cap(["extract", "--space", "w", "--family", str(path), "--delta", "1/2"])
    assert code == 0
    assert "finalNorm=0" in out


def test_extract_family_table_without_cutoff_is_exit_1(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"entries": []}))
    code, out = cap(["extract", "--space", "w", "--family", str(path), "--delta", "1/2"])
    assert code == 1
    assert "cutoff" in out


@pytest.mark.parametrize(
    "table, field",
    [
        (5, "must be a JSON object"),
        ({"cutoff": [1]}, "cutoff"),
        ({"cutoff": 2.7}, "cutoff"),
        ({"cutoff": True}, "cutoff"),
        ({"cutoff": 1, "entries": 5}, "entries"),
        ({"cutoff": 1, "entries": [{"fn": None}]}, "entries[0]"),
        ({"cutoff": 1, "entries": [{"path": [0]}]}, "entries[0]"),
        ({"cutoff": 1, "entries": [{"path": [0.5], "fn": None}]}, "entries[0].path"),
        ({"cutoff": 1, "entries": [{"path": [0], "fn": 5}]}, "entries[0].fn"),
        ({"cutoff": 1, "default": 5}, "default"),
        ({"cutoff": 1, "entries": [{"path": [0], "fn": json.loads(CONST_ONE)}] * 2}, "entries[1].path repeats"),
        ({"cutoff": 1, "entires": []}, "has an unknown field 'entires'"),
        ({"cutoff": 1, "entries": [{"path": [0], "fn": json.loads(CONST_ONE), "note": 1}]}, "entries[0] has an unknown field 'note'"),
    ],
    ids=[
        "not-an-object",
        "cutoff-list",
        "cutoff-float",
        "cutoff-bool",
        "entries-number",
        "entry-without-path",
        "entry-without-fn",
        "path-float",
        "fn-number",
        "default-number",
        "repeated-path",
        "unknown-key",
        "entry-unknown-key",
    ],
)
def test_malformed_family_table_is_one_error_line(tmp_path, table, field):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(table))
    code, out = cap(["extract", "--space", "w", "--family", str(path), "--delta", "1/2"])
    assert code == 1
    assert one_line_error(out) and f"family table {field}" in out


def test_family_tables_validate_against_their_schema():
    """The tables these tests and README build are valid v1 family tables, and an
    unknown key, at the top level or in an entry, is refused by both
    family_from_table and jsonschema."""
    schema = load_schema("family_table.json")
    jsonschema.Draft202012Validator.check_schema(schema)
    first = step_function_to_json(StepFunction(OMEGA, (from_int(3), OMEGA), (1, 0)))
    default = step_function_to_json(StepFunction(OMEGA, (from_int(1), from_int(3), OMEGA), ("1/10", 1, 0)))
    half = step_function_to_json(constant(OMEGA, Fraction(1, 2)))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tables = [
        {"cutoff": 40},
        {"cutoff": 5, "entries": [{"path": [0], "fn": first}], "default": default},
        {"cutoff": 5, "default": default},
        {"cutoff": 4, "entries": [{"path": [0], "fn": half}]},
        {"cutoff": 1, "entries": [{"path": [], "fn": half}, {"path": [0, 2], "fn": first}], "default": None},
        json.loads(re.search(r'```json\n(\{"cutoff".*?)```', readme, re.S).group(1)),
    ]
    for table in tables:
        jsonschema.validate(table, schema)
        family_from_table(interval(OMEGA), table)
    for table in (
        {**tables[1], "colour": "red"},
        {"cutoff": 5, "entries": [{"path": [0], "fn": first, "note": "x"}]},
    ):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(table, schema)
        with pytest.raises(ValueError, match="has an unknown field"):
            family_from_table(interval(OMEGA), table)


# --- schema -------------------------------------------------------------------------


def test_schema_list():
    code, out = cap(["schema", "list"])
    assert code == 0
    assert out.splitlines() == [
        "certificate.json",
        "closed_set.json",
        "family_table.json",
        "ordinal.json",
        "step_function.json",
        "tree.json",
    ]


def test_schema_show_is_json():
    code, out = cap(["schema", "show", "ordinal"])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["$id"].endswith("ordinal.json")


# --- every JSON door against its schema -------------------------------------------------

STEP = step_function_to_json(StepFunction(OMEGA, (from_int(3), OMEGA), ("1/2", 0)))
# schema file -> (a valid document, the library decoder of that format)
DOORS = {
    "ordinal.json": (ordinal.to_json(parse("w^(w+1)*2+w^(3)+5")), ordinal.from_json),
    "closed_set.json": (
        topology.to_json(
            ClosedSet(parse("w^(2)*2"), [Singleton(from_int(3)), Stratum(OMEGA, parse("w^(2)*2"), ONE)])
        ),
        topology.from_json,
    ),
    "step_function.json": (STEP, step_function_from_json),
    "tree.json": (
        {"nodes": [{"id": "a", "parent": None}, {"id": 1, "parent": "a"}, {"id": "c", "parent": 1}]},
        tree_from_json,
    ),
    "family_table.json": (
        {"cutoff": 5, "entries": [{"path": [0], "fn": STEP}], "default": STEP},
        lambda table: family_from_table(interval(OMEGA), table),
    ),
}
# every key some format names, and two no format names
KEYS = ["ambient", "atoms", "singleton", "lo", "hi", "mu", "pieces", "upTo", "value",
        "nodes", "id", "parent", "cutoff", "entries", "default", "path", "fn", "note", "colour"]
SCALARS = [None, True, 0, 1, -1, 2.0, 1.5, "", "a", "1/2", "1/0", [], {}]


def _parts(doc):
    """Every value in the document, the document first, as they appear in it."""
    yield doc
    for value in doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ():
        yield from _parts(value)


@st.composite
def mutated(draw, doc):
    """A deep copy of the document with one key or element added, dropped or
    replaced, in one of its objects or arrays; a new value is a scalar, an
    empty container or a copy of any part of the document."""
    doc = json.loads(json.dumps(doc))
    value = json.loads(json.dumps(draw(st.sampled_from(SCALARS + list(_parts(doc))))))
    target = draw(st.sampled_from([part for part in _parts(doc) if isinstance(part, (dict, list))]))
    op = draw(st.sampled_from(["add", "drop", "replace"]) if target else st.just("add"))
    if isinstance(target, dict):
        key = draw(st.sampled_from(KEYS if op == "add" else sorted(target)))
        if op == "drop":
            del target[key]
        else:
            target[key] = value
    elif op == "add":
        target.insert(draw(st.integers(0, len(target))), value)
    else:
        i = draw(st.integers(0, len(target) - 1))
        if op == "drop":
            del target[i]
        else:
            target[i] = value
    return doc


@pytest.mark.parametrize("name", list(DOORS))
@given(data=st.data())
def test_a_door_accepts_only_what_its_schema_accepts(name, data):
    """Whenever a decoder accepts a mutated document, jsonschema accepts it on the
    shipped v1 schema.  Not the converse: the decoders also check CNF order,
    increasing breakpoints, matching ambients and repeated ids or paths."""
    valid, decode = DOORS[name]
    schema = load_schema(name)
    jsonschema.validate(valid, schema)
    doc = data.draw(mutated(valid))
    try:
        decode(doc)
    except ValueError:
        return
    jsonschema.validate(doc, schema)


# command -> (schema file of its input, argv with {} for the input)
JSON_COMMANDS = {
    "grasberg-norm": ("step_function.json", ["grasberg", "norm", "--space", "w", "--fn", "{}"]),
    "tree-rank": ("tree.json", ["tree", "rank", "--file", "{}"]),
    "extract-family": ("family_table.json", ["extract", "--space", "w", "--family", "{}", "--delta", "1/2"]),
}


@pytest.mark.parametrize("command", list(JSON_COMMANDS))
@given(data=st.data())
def test_a_mutated_json_input_is_one_line_or_none(tmp_path_factory, command, data):
    """Through the command line a mutated input exits 0, 1 or 2, writes at most
    one line to stderr, and raises nothing out of run (no traceback)."""
    name, argv = JSON_COMMANDS[command]
    text = json.dumps(data.draw(mutated(DOORS[name][0])))
    if "--fn" not in argv:
        path = tmp_path_factory.mktemp(command) / "input.json"
        path.write_text(text)
        text = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([text if arg == "{}" else arg for arg in argv])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# --- exit codes and plumbing ----------------------------------------------------------


def test_parse_error_is_exit_2_with_position():
    code, out = cap(["ord", "eval", "w^("])
    assert code == 2
    assert "position 3" in out


def one_line_error(out):
    return out.startswith("error: ") and out.count("\n") == 1 and "Traceback" not in out


def nested_json_ordinal(depth):
    """The ordinal JSON text of w^(w^(...w^(0)...)) with depth nested exponents,
    written out directly since json.dumps itself cannot nest that deep."""
    return "[[" * depth + "[]" + ",1]]" * depth


def fn_json(ambient, pieces=None):
    if pieces is None:
        pieces = [{"upTo": ambient, "value": "1"}]
    return json.dumps({"ambient": ambient, "pieces": pieces})


def test_deeply_nested_notation_is_exit_2():
    deep = "w^(" * 3000 + "1" + ")" * 3000
    code, out = cap(["cb", deep])
    assert code == 2
    assert one_line_error(out) and "nested deeper" in out and "position" in out


def test_over_long_number_is_exit_2():
    """Past Python's int-to-string limit a coefficient is a parse error at its first digit."""
    code, out = cap(["ord", "eval", "w*" + "1" * 5000])
    assert code == 2
    assert one_line_error(out) and "position 2" in out


SRC = str(Path(ordspace.__file__).resolve().parents[1])
STAGE_LIMIT = f"stages, above the limit of {MAX_STAGES}\n"
# (argv, exit code, end of the one stderr line): inputs whose work has no
# useful bound, which are refused before any of it runs
UNBOUNDED_INPUTS = [
    (["extract", "--space", "w^(60)", "--delta", "1"], 1, "n = 4611686018427387905 " + STAGE_LIMIT),
    (["extract", "--space", "w", "--delta", "1/100000000"], 1, "n = 800000001 " + STAGE_LIMIT),
    (["extract", "--space", "w^(100000)", "--delta", "1"], 1, "n = about 2^100002 " + STAGE_LIMIT),
    (["check", "king", "--space", "w", "--max-pieces", "100000000"], 1, f"max_pieces must be <= {MAX_PIECES}\n"),
    (["ord", "eval", "w*" + "1" * 5000], 2, "number too long (5000 digits) at position 2\n"),
    (["extract", "--space", "w", "--delta", "1e-999999999"], 1, "--delta must be a rational like 1/2, got '1e-999999999'\n"),
    (
        ["grasberg", "phi", "--space", "w", "--fn", CONST_ONE, "--eps", "1e999999999"],
        1,
        "--eps must be a rational like 1/2, got '1e999999999'\n",
    ),
]


@pytest.mark.parametrize(
    "argv, code, message",
    UNBOUNDED_INPUTS,
    ids=[
        "extract-tall-space",
        "extract-small-delta",
        "extract-huge-b",
        "check-many-pieces",
        "ord-long-number",
        "delta-exponent",
        "eps-exponent",
    ],
)
def test_unbounded_input_is_refused_in_one_line(argv, code, message):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ordspace.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=30,
    )
    assert (done.returncode, done.stdout) == (code, "")
    assert one_line_error(done.stderr) and done.stderr.endswith(message)


@pytest.mark.parametrize("depth", [150, 3000])
def test_deeply_nested_json_ordinal_is_exit_1(depth):
    ambient = nested_json_ordinal(depth)
    fn = f'{{"ambient": {ambient}, "pieces": [{{"upTo": {ambient}, "value": "1"}}]}}'
    code, out = cap(["grasberg", "norm", "--space", "w", "--fn", fn])
    assert code == 1
    assert one_line_error(out) and "nested" in out


def test_bool_coefficient_is_exit_1():
    code, out = cap(["grasberg", "norm", "--space", "w", "--fn", fn_json([[[[[], 1]], True]])])
    assert code == 1
    assert one_line_error(out)


W_JSON = [[[[[], 1]], 1]]


@pytest.mark.parametrize(
    "fn, named",
    [
        (fn_json(W_JSON, [{"upTo": W_JSON, "value": 0.1}]), "value"),
        (fn_json(W_JSON, "abc"), "pieces"),
        (fn_json(W_JSON, ["abc"]), "pieces"),
        (json.dumps({"pieces": [{"upTo": W_JSON, "value": "1"}]}), "'ambient'"),
        (fn_json(W_JSON, [{"value": "1"}]), "'upTo'"),
        (fn_json(W_JSON, [{"upTo": W_JSON}]), "'value'"),
    ],
    ids=["float-value", "string-pieces", "string-piece", "no-ambient", "no-upTo", "no-value"],
)
def test_malformed_step_function_is_exit_1(fn, named):
    code, out = cap(["grasberg", "norm", "--space", "w", "--fn", fn])
    assert code == 1
    assert one_line_error(out) and named in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["extract", "--space", "w", "--delta", "1/0"], "--delta"),
        (["grasberg", "phi", "--space", "w", "--fn", CONST_ONE, "--eps", "1/0"], "--eps"),
    ],
    ids=["delta", "eps"],
)
def test_zero_denominator_names_the_flag(argv, flag):
    code, out = cap(argv)
    assert code == 1
    assert one_line_error(out) and flag in out


RATIONAL_FLAGS = {
    "--delta": ["extract", "--space", "w"],
    "--eps": ["grasberg", "phi", "--space", "w", "--fn", CONST_ONE],
}


@pytest.mark.parametrize("flag", RATIONAL_FLAGS)
@pytest.mark.parametrize("text", ["0.5", "1e-3", " 1/2", "1/2 ", "+1/2", "1/02", "1_0/2", "１/2", "1" * 5000])
def test_rational_flags_take_only_p_over_q(flag, text):
    """--delta and --eps read the p/q grammar of step-function JSON values and nothing else."""
    code, out = cap([*RATIONAL_FLAGS[flag], f"{flag}={text}"])
    assert (code, out) == (1, f"error: {flag} must be a rational like 1/2, got {text!r}\n")


@pytest.mark.parametrize("flag", RATIONAL_FLAGS)
@pytest.mark.parametrize("text, code", [("1/2", 0), ("3", 0), ("-1/2", 1)])
def test_rational_flags_accept_p_over_q(flag, text, code):
    """A p/q value gets past the flag; a negative one then fails the domain check."""
    got, out = cap([*RATIONAL_FLAGS[flag], f"{flag}={text}"])
    assert got == code and "must be a rational" not in out


@pytest.mark.parametrize(
    "payload",
    [
        {"nodes": [{"id": [1], "parent": None}]},
        {"nodes": [{"id": "a", "parent": None}, {"id": "b", "parent": ["a"]}]},
        {"nodes": "abc"},
        {"nodes": [{"id": True, "parent": None}]},
        {"nodes": [{"id": "a"}]},
        {"nodes": [{"id": "a", "parent": None}, {"id": "b", "parent": "a", "colour": 1}]},
        {"nodes": [{"id": "a", "parent": None}], "extra": 2},
    ],
    ids=["list-id", "list-parent", "string-nodes", "bool-id", "no-parent", "node-key", "file-key"],
)
def test_malformed_tree_is_exit_1(tmp_path, payload):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(payload))
    code, out = cap(["tree", "rank", "--file", str(path)])
    assert code == 1
    assert one_line_error(out)


def test_unknown_command_is_exit_2():
    code, _ = cap(["nope"])
    assert code == 2


def test_missing_command_is_exit_2():
    code, _ = cap([])
    assert code == 2


def test_output_has_no_escape_codes():
    _, out = cap(["szlenk", "w"])
    assert "\x1b" not in out


def test_color_disabled_by_env(monkeypatch):
    import sys

    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.setenv("NO_COLOR", "1")
    assert not _color_enabled()
    monkeypatch.delenv("NO_COLOR")
    assert _color_enabled()


# --- shrinking ---------------------------------------------------------------------


def test_shrink_step_function_minimizes():
    space = interval(OMEGA)
    start = StepFunction(
        OMEGA,
        (from_int(3), from_int(5), OMEGA),
        (Fraction(1, 3), Fraction(7, 3), Fraction(1, 2)),
    )

    def still_failing(f):
        return sup_on(f, space) >= 1

    got = shrink_step_function(start, still_failing)
    assert still_failing(got)
    assert got == StepFunction(OMEGA, (from_int(5), OMEGA), (Fraction(1), Fraction(0)))


def test_shrink_keeps_failing_input_without_improvement():
    space = interval(OMEGA)
    start = constant(OMEGA, 1)

    def still_failing(f):
        return sup_on(f, space) >= 1

    assert shrink_step_function(start, still_failing) == start


def test_shrink_halves_only_down_to_the_input_denominators():
    """Only zeroing a value makes this input pass, so every halving still
    fails: 4/5 halves to 2/5 and 1/5, which reaches the input's largest
    denominator, and stops there instead of after MAX_SHRINK_STEPS halvings."""
    start = StepFunction(OMEGA, (from_int(3), OMEGA), (Fraction(-1, 2), Fraction(4, 5)))
    got = shrink_step_function(start, lambda f: any(f.values))
    assert got == StepFunction(OMEGA, (OMEGA,), (Fraction(1, 5),))


def _queen_fails_on_two_pieces(f, g, space, eps):
    return SimpleNamespace(passed=not (len(f.values) == 2 and any(g.values)))


def test_check_shrinks_values_without_a_halving_run(monkeypatch):
    """The rule "f has 2 pieces and g is not 0" once printed 60-digit denominators."""
    import ordspace.grasberg

    monkeypatch.setattr(ordspace.grasberg, "check_queen", _queen_fails_on_two_pieces)
    code, out = cap(["check", "queen", "--space", "w^(2)", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert [p["value"] for p in payload["f"]["pieces"]] == ["0", "-1/3"]
    assert [p["value"] for p in payload["g"]["pieces"]] == ["-9/100"]


# --- README -------------------------------------------------------------------------


def readme_samples():
    """(argv, expected stdout) for each `$ ordspace ...` sample in the README's
    Command line section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    samples = []
    for line in block.splitlines():
        if line.startswith("$ ordspace "):
            samples.append((shlex.split(line[len("$ ordspace "):]), []))
        else:
            samples[-1][1].append(line + "\n")
    return [pytest.param(argv, "".join(out), id=" ".join(argv)) for argv, out in samples]


@pytest.mark.lock
@pytest.mark.parametrize("argv, expected", readme_samples())
def test_readme_samples(argv, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0
    assert out.getvalue() == expected
