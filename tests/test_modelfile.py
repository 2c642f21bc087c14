import json
import math

import numpy as np
import pytest
from importlib import resources

from kinetostat import (
    JointModel,
    ModelError,
    OrthoglideSpec,
    SpringLaw,
    Transform,
    build_planar_orthoglide,
    parse_model,
    serialize_model,
    total_wrench,
)


def fixture_text():
    return resources.files("kinetostat").joinpath("models/orthoglide-planar.json").read_text()


def test_shipped_fixture_parses():
    model = parse_model(fixture_text())
    assert model.task_dim == 2
    assert len(model.chains) == 2
    assert model.workspace is not None


def test_fixture_round_trips_canonically():
    text = fixture_text()
    canonical = serialize_model(parse_model(text))
    assert serialize_model(parse_model(canonical)) == canonical


def test_parse_is_key_order_independent():
    def reorder(node):
        if isinstance(node, dict):
            return {k: reorder(node[k]) for k in reversed(list(node))}
        if isinstance(node, list):
            return [reorder(v) for v in node]
        return node

    text = fixture_text()
    shuffled = json.dumps(reorder(json.loads(text)))
    assert serialize_model(parse_model(shuffled)) == serialize_model(parse_model(text))


def test_parsed_model_behaves_like_built(ortho_spec):
    built = build_planar_orthoglide(
        OrthoglideSpec(spring=SpringLaw(0.1, 0.0, "linear"))
    )
    parsed = parse_model(fixture_text())
    t = [0.2, 0.3]
    rho = [[1.1], [1.05]]
    Fb, _ = total_wrench(built, t, rho)
    Fp, _ = total_wrench(parsed, t, rho)
    np.testing.assert_allclose(Fp, Fb, atol=1e-12)


def test_random_documents_round_trip():
    rng = np.random.default_rng(9)
    kinds = ["actuated", "perfect_passive", "preloaded_passive", "virtual_elastic"]
    for _ in range(100):
        chains = []
        for _ in range(int(rng.integers(1, 3))):
            elements = [
                {
                    "link": {"translation": list(rng.uniform(-1, 1, 3)), "rpy": [0.0, 0.0, float(rng.uniform(-1, 1))]},
                    "joint": {"kind": "virtual_elastic", "motion": "translational", "axis": [1.0, 0.0, 0.0], "stiffness": float(rng.uniform(0.1, 2.0))},
                }
            ]
            for kind in rng.choice(kinds, size=int(rng.integers(0, 3))):
                joint = {
                    "kind": str(kind),
                    "motion": str(rng.choice(["rotational", "translational"])),
                    "axis": [0.0, 0.0, 1.0] if rng.uniform() < 0.5 else [0.0, 1.0, 0.0],
                }
                if kind == "virtual_elastic":
                    joint["stiffness"] = float(rng.uniform(0.1, 2.0))
                if kind == "preloaded_passive":
                    joint["spring"] = {
                        "k": float(rng.uniform(0.0, 1.0)),
                        "offset": float(rng.uniform(-0.5, 0.5)),
                        "branch": str(rng.choice(["linear", "positive_part", "negative_part"])),
                    }
                elements.append({"joint": joint})
            chains.append({"elements": elements})
        doc = json.dumps({"version": "kinetostat/1", "task_dim": 2, "chains": chains})
        canonical = serialize_model(parse_model(doc))
        assert serialize_model(parse_model(canonical)) == canonical


def test_missing_spring_rejected_with_path():
    tree = json.loads(fixture_text())
    del tree["chains"][0]["elements"][2]["joint"]["spring"]
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(tree))
    assert "$.chains[0].elements[2].joint.spring" in str(exc.value)


def test_unknown_key_rejected_with_path():
    tree = json.loads(fixture_text())
    tree["chains"][1]["colour"] = "red"
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(tree))
    assert "$.chains[1].colour" in str(exc.value)


def test_nonpositive_stiffness_rejected():
    tree = json.loads(fixture_text())
    tree["chains"][0]["elements"][1]["joint"]["stiffness"] = 0.0
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(tree))
    assert "stiffness" in str(exc.value)


def test_version_mismatch_rejected():
    tree = json.loads(fixture_text())
    tree["version"] = "kinetostat/2"
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(tree))
    assert "$.version" in str(exc.value)


def test_all_violations_reported_at_once():
    tree = json.loads(fixture_text())
    tree["version"] = "nope"
    tree["chains"][0]["elements"][0]["joint"]["axis"] = [2.0, 0.0, 0.0]
    tree["chains"][1]["extra"] = 1
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(tree))
    message = str(exc.value)
    assert "$.version" in message
    assert "axis" in message
    assert "$.chains[1].extra" in message


def test_syntax_error_reported():
    with pytest.raises(ModelError) as exc:
        parse_model("{not json")
    assert "syntax" in str(exc.value)


def test_bad_workspace_rejected():
    tree = json.loads(fixture_text())
    tree["workspace"] = {"min": [0.5, -0.45], "max": [0.45, 0.45]}
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(tree))
    assert "workspace" in str(exc.value)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["stiffness", "translation"])
def test_non_finite_tokens_rejected(token, field):
    # json.dumps writes these tokens, and json.loads reads them unless told otherwise
    tree = json.loads(fixture_text())
    if field == "stiffness":
        tree["chains"][0]["elements"][1]["joint"]["stiffness"] = float(token.lower())
    else:
        tree["chains"][0]["elements"][1]["link"] = {"translation": [float(token.lower()), 0.0, 0.0]}
    text = json.dumps(tree)
    assert token in text
    with pytest.raises(ModelError, match=f"non-finite number {token}"):
        parse_model(text)


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400])
def test_out_of_range_numbers_rejected_with_path(literal):
    tree = json.loads(fixture_text())
    tree["chains"][1]["base"] = {"rpy": [0.0, 0.0, 0.5]}
    text = json.dumps(tree).replace('"rpy": [0.0, 0.0, 0.5]', f'"rpy": [0.0, 0.0, {literal}]')
    with pytest.raises(ModelError) as exc:
        parse_model(text)
    assert "$.chains[1].base.rpy[2]: expected a finite number" in str(exc.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_dataclasses_reject_non_finite_numbers(bad):
    with pytest.raises(ModelError, match="finite"):
        Transform(translation=(bad, 0.0, 0.0))
    with pytest.raises(ModelError, match="finite"):
        Transform(rpy=(0.0, bad, 0.0))
    with pytest.raises(ModelError, match="finite"):
        JointModel(kind="actuated", motion="translational", axis=(bad, 0.0, 0.0))
    with pytest.raises(ModelError, match="finite"):
        JointModel(kind="virtual_elastic", motion="translational", axis=(1.0, 0.0, 0.0), stiffness=bad)


_ACTUATED_ONLY = [{"joint": {"kind": "actuated", "motion": "translational", "axis": [1.0, 0.0, 0.0]}}]


@pytest.mark.parametrize(
    "where, value, path, words",
    [
        (("chains", 0, "elements", 0, "joint", "kind"), "spherical", "elements[0].joint.kind", "spherical"),
        (("chains", 0, "elements", 0, "joint", "motion"), "helical", "elements[0].joint.motion", "helical"),
        (("chains", 0, "elements", 1, "joint", "axis"), [0.6, 0.6, 0.0], "elements[1].joint.axis", "unit norm"),
        (("chains", 0, "elements", 1, "joint", "axis", 0), 1e300, "elements[1].joint.axis", "= inf"),
        (("chains", 0, "elements", 1, "joint", "stiffness"), -1.0, "elements[1].joint.stiffness", "> 0"),
        (("chains", 0, "elements", 0, "joint", "stiffness"), 1.0, "elements[0].joint.stiffness", "takes no"),
        (("chains", 0, "elements", 0, "joint", "stiffness"), None, "elements[0].joint.stiffness", "expected a number"),
        (("chains", 0, "elements", 1, "joint", "stiffness"), None, "elements[1].joint.stiffness", "expected a number"),
        (("chains", 0, "elements", 0, "joint", "spring"), {"k": 1.0}, "elements[0].joint.spring", "takes no"),
        (("chains", 0, "elements", 0, "joint", "spring"), None, "elements[0].joint.spring", "expected an object"),
        (("chains", 0, "elements", 2, "joint", "spring"), None, "elements[2].joint.spring", "expected an object"),
        (("chains", 0, "elements", 2, "joint", "spring", "k"), -1.0, "elements[2].joint.spring.k", ">= 0"),
        (("chains", 0, "elements", 2, "joint", "spring", "branch"), "sideways", "elements[2].joint.spring.branch", "sideways"),
        (("chains", 0, "ik_seed"), [1.0], "ik_seed", "rigid coordinates"),
        (("chains", 0, "elements"), _ACTUATED_ONLY, "elements", "virtual_elastic"),
        (("chains", 0, "elements"), [], "elements", "virtual_elastic"),
    ],
)
def test_constructor_rules_reported_under_their_key_path(where, value, path, words):
    # the model constructors hold these rules; the parser reports each one
    # at the document path of the key it names, with null read as present
    tree = json.loads(fixture_text())
    node = tree
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(tree))
    line = next(l for l in str(exc.value).splitlines() if l.startswith(f"$.chains[0].{path}: "))
    assert words in line


@pytest.mark.parametrize(
    "key, value, path, words",
    [
        ("stiffness", None, "stiffness", "expected a number"),
        ("axis", "x", "axis", "list of 3"),
        ("axis", [None, 0, 0], "axis[0]", "expected a number"),
    ],
)
def test_placeholder_fault_reported_once(key, value, path, words):
    # the parser reports the key and builds the joint with a placeholder; the
    # constructor's complaint about that placeholder is the same fault
    tree = json.loads(fixture_text())
    tree["chains"][0]["elements"][1]["joint"][key] = value
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(tree))
    problems = str(exc.value).splitlines()[1:]
    assert len(problems) == 1
    assert problems[0].startswith(f"$.chains[0].elements[1].joint.{path}: ") and words in problems[0]


def _float_leaves(node, path="$"):
    """(path, keys) of every float leaf of a document tree, its path in the parser's wording."""
    if isinstance(node, float):
        return [(path, ())]
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else []
    leaves = []
    for key, child in items:
        child_path = f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]"
        leaves += [(p, (key, *keys)) for p, keys in _float_leaves(child, child_path)]
    return leaves


@pytest.mark.parametrize(
    "literal, problem",
    [
        ("true", "expected a number, got bool"),
        ('"1.0"', "expected a number, got str"),
        ("null", "expected a number, got NoneType"),
        ("1e999", "expected a finite number"),
        ("1" + "0" * 400, "expected a finite number"),
    ],
)
def test_every_numeric_leaf_of_the_shipped_document_is_checked_with_its_path(literal, problem):
    # one bad leaf at a time at every number of the shipped document (workspace,
    # base, tool, ik_seed, link translation and rpy, axis, stiffness, spring k
    # and offset): the document is refused, and one line names that leaf's path
    leaves = _float_leaves(json.loads(fixture_text()))
    assert {p.rsplit(".", 1)[-1].split("[")[0] for p, _ in leaves} == {
        "min", "max", "translation", "rpy", "ik_seed", "axis", "stiffness", "k", "offset"
    }
    for path, keys in leaves:
        tree = json.loads(fixture_text())
        node = tree
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "@bad@"
        with pytest.raises(ModelError) as exc:
            parse_model(json.dumps(tree).replace('"@bad@"', literal))
        assert f"{path}: {problem}" in str(exc.value).splitlines(), path
