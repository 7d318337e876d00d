"""The one document helper under all three validators: whatever JSON a
user hands ``repro report`` (or CI hands a validator), the answer is a
list of problem strings — never a traceback."""

import copy
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.report import validate_lint_document
from repro.document import NUMBER, MapOf, Maybe, check, write_json
from repro.nemesis import nemesis_document, run_matrix, validate_nemesis_document
from repro.obs import validate_obs_document

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

VALIDATORS = {
    "obs": validate_obs_document,
    "nemesis": validate_nemesis_document,
    "lint": validate_lint_document,
}


def _committed(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def valid_documents(lint_report):
    """One valid document per schema: the committed obs artifacts, a
    fresh nemesis document and a fresh lint report."""
    cells = run_matrix(seed=1, protocols=("rfs",), workloads=("meta-churn",),
                       plans=("calm", "server-crash"))
    code, text, lint_doc = lint_report
    assert code == 0, text
    return {
        "obs": [_committed("OBS_andrew-nfs.json"), _committed("OBS_andrew-snfs.json")],
        "nemesis": [nemesis_document(cells, 1, timing={"jobs": 1})],
        "lint": [lint_doc],
    }


@pytest.mark.parametrize("schema", sorted(VALIDATORS))
def test_valid_documents_have_no_problems(schema, valid_documents):
    for doc in valid_documents[schema]:
        assert VALIDATORS[schema](doc) == []


# -- never raises -------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _is_problem_list(problems):
    return isinstance(problems, list) and all(isinstance(p, str) for p in problems)


@pytest.mark.parametrize("schema", sorted(VALIDATORS))
@given(value=json_values)
@settings(max_examples=150, deadline=None)
def test_any_json_value_gets_a_problem_list(schema, value):
    problems = VALIDATORS[schema](value)
    assert _is_problem_list(problems)
    assert problems  # nothing random is a valid document


def _paths(value, prefix=()):
    """Every position in a JSON value, as a key/index path."""
    yield prefix
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("schema", sorted(VALIDATORS))
@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_valid_document_with_one_subtree_replaced_never_raises(
    schema, data, valid_documents
):
    """Random JSON rarely gets past the top-level keys; a valid document
    with one subtree swapped for junk reaches the nested specs and the
    semantic checks behind them."""
    doc = valid_documents[schema][0]
    paths = sorted(_paths(doc), key=repr)
    path = data.draw(st.sampled_from(paths))
    mutant = _replaced(doc, path, data.draw(json_values))
    assert _is_problem_list(VALIDATORS[schema](mutant))


def test_the_inputs_that_raised_at_the_parent(valid_documents):
    # AttributeError: 'list' object has no attribute 'get'
    assert validate_obs_document([]) == ["document is not an object"]
    assert validate_lint_document([]) == ["document is not an object"]
    # AttributeError: 'list' object has no attribute 'items'
    obs = dict(valid_documents["obs"][0], ops=[])
    assert validate_obs_document(obs) == ["ops is not an object"]


def test_semantic_checks_run_only_on_a_structurally_clean_document(valid_documents):
    obs = copy.deepcopy(valid_documents["obs"][0])
    name = sorted(obs["ops"])[0]
    obs["ops"][name]["e2e_s"] *= 2  # breaks the digest and the phase sum
    assert len(validate_obs_document(obs)) == 2
    del obs["ops"][name]["count"]  # now structurally broken as well
    assert validate_obs_document(obs) == ["ops.%s missing 'count'" % name]
    # a quantile state QuantileDigest cannot restore is a problem, not a crash
    obs = copy.deepcopy(valid_documents["obs"][0])
    obs["ops"][name]["quantiles"]["cells"] = {"not-a-cell-index": 1}
    assert any("quantile state" in p for p in validate_obs_document(obs))


def test_report_on_a_malformed_file_is_invalid_not_a_traceback(tmp_path, capsys):
    from repro.__main__ import main

    bad = tmp_path / "bad.json"
    bad.write_text("[]\n")
    assert main(["report", str(bad)]) == 1
    assert "INVALID repro-obs document" in capsys.readouterr().out
    # ... also when it is the baseline, or one of several merged runs
    good = os.path.join(ROOT, "OBS_andrew-nfs.json")
    assert main(["report", good, "--against", str(bad)]) == 1
    assert "INVALID baseline document" in capsys.readouterr().out
    assert main(["report", good, str(bad)]) == 1


# -- the spec language --------------------------------------------------------


def test_check_spec_language():
    spec = {
        "kind": {"a", "b"},
        "n": int,
        "x": NUMBER,
        "rows": [{"id": str}],
        "extra": Maybe(bool),
        "by_name": MapOf(int),
    }
    good = {"kind": "a", "n": 1, "x": 0.5, "rows": [{"id": "r"}],
            "by_name": {"k": 3}, "unknown keys": "are ignored"}
    assert check(good, spec) == []
    assert check(dict(good, extra=None), spec) == []
    assert check(dict(good, extra=True), spec) == []
    assert check(dict(good, kind="c"), spec) == ["kind is 'c', expected 'a' or 'b'"]
    assert check(dict(good, kind=["a"]), spec)  # unhashable: compared, not hashed
    # a JSON boolean is not a number
    assert check(dict(good, n=True), spec) == ["n must be int, not bool"]
    assert check(dict(good, x=False), spec) == ["x must be int or float, not bool"]
    assert check(dict(good, rows=[{"id": "r"}, 7, {}]), spec) == [
        "rows[1] is not an object", "rows[2] missing 'id'",
    ]
    assert check(dict(good, by_name={"k": "3"}), spec) == [
        "by_name.k must be int, not str"
    ]
    assert check(dict(good, extra="yes"), spec) == ["extra must be bool, not str"]
    del good["n"]
    assert check(good, spec) == ["document missing 'n'"]


# -- the one writer -----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,parent_dump",
    [
        # (write_json arguments, the json.dump arguments the parent's
        # per-schema writer used): golden, obs, nemesis + lint
        ({}, dict(indent=2, sort_keys=True)),
        (dict(indent=1), dict(indent=1, sort_keys=True)),
        (dict(sort_keys=False), dict(indent=2)),
    ],
)
def test_write_json_bytes_equal_the_parents_writers(tmp_path, kwargs, parent_dump):
    doc = {"schema": "s/1", "rows": [{"name": "s", "ops": 1, "z": None, "a": [1.5]}]}
    path = write_json(doc, str(tmp_path / "new" / "dir" / "doc.json"), **kwargs)
    expected = io.StringIO()
    json.dump(doc, expected, **parent_dump)
    with open(path) as fh:
        assert fh.read() == expected.getvalue() + "\n"
