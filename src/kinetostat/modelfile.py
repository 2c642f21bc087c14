"""Model document parsing and canonical serialization (schema kinetostat/1).

Documents are JSON trees. Parsing checks keys, JSON types and literals
itself and leaves the model's rules to the constructors of SpringLaw,
JointModel and ChainModel; it validates the whole document first and
reports every violation with its path. Serialization emits a canonical
form (fixed key order, defaults materialized) so that parse/serialize is
idempotent and independent of the input key order.
"""

from __future__ import annotations

import json
import math

from .chain import TASK_DIMS, ChainModel, JointModel, ManipulatorModel, Transform
from .errors import ModelError
from .springs import SpringLaw

SCHEMA_VERSION = "kinetostat/1"

_TOP_KEYS = {"version", "task_dim", "name", "units", "workspace", "chains"}
_CHAIN_KEYS = {"name", "base", "tool", "ik_seed", "elements"}
_TRANSFORM_KEYS = {"translation", "rpy"}
_ELEMENT_KEYS = {"link", "joint"}
_JOINT_KEYS = {"kind", "motion", "axis", "stiffness", "spring"}
_SPRING_KEYS = {"k", "offset", "branch"}


class _Collector:
    def __init__(self):
        self.problems: list[str] = []
        self.paths: set[str] = set()

    def add(self, path, message):
        self.problems.append(f"{path}: {message}")
        self.paths.add(path)

    def raise_if_any(self):
        if self.problems:
            raise ModelError("invalid model document\n" + "\n".join(self.problems))


def _check_keys(obj, allowed, path, errs):
    for key in obj:
        if key not in allowed:
            errs.add(f"{path}.{key}", "unknown key")


def _number(value, path, errs, index=None):
    """``value`` as a float, or 0.0 with its problem recorded under ``path``, or ``path[index]`` if given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = f"expected a number, got {type(value).__name__}"
    else:
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
        problem = "expected a finite number"  # also 1e999, which json reads as inf
    errs.add(path if index is None else f"{path}[{index}]", problem)
    return 0.0


def _vector(value, length, path, errs):
    if not isinstance(value, list) or len(value) != length:
        errs.add(path, f"expected a list of {length} numbers")
        return (0.0,) * length
    if {*map(type, value)} <= {float} and math.isfinite(sum(value)):  # every leaf at once; a problem leaf by leaf
        return tuple(value)
    return tuple(_number(v, path, errs, i) for i, v in enumerate(value))


def _transform(value, path, errs) -> Transform:
    if value is None:
        return Transform.identity()
    if not isinstance(value, dict):
        errs.add(path, "expected an object")
        return Transform.identity()
    _check_keys(value, _TRANSFORM_KEYS, path, errs)
    translation = (0.0, 0.0, 0.0)
    rpy = (0.0, 0.0, 0.0)
    if "translation" in value:
        translation = _vector(value["translation"], 3, f"{path}.translation", errs)
    if "rpy" in value:
        rpy = _vector(value["rpy"], 3, f"{path}.rpy", errs)
    return Transform(translation=translation, rpy=rpy)


def _build(cls, path, errs, **kwargs):
    """``cls(**kwargs)``, or None with the constructor's ModelError recorded
    under the path of the argument it names. An argument the parser has
    already reported, whole or in part, holds a placeholder value, so the
    constructor's complaint about it is the same fault and is not recorded
    again."""
    try:
        return cls(**kwargs)
    except ModelError as err:
        key = f"{path}.{err.field}" if err.field else path
        if not any(p == key or p.startswith(f"{key}[") for p in errs.paths):
            errs.add(key, str(err))
        return None


def _spring(value, path, errs) -> SpringLaw | None:
    if not isinstance(value, dict):
        errs.add(path, "expected an object")
        return None
    _check_keys(value, _SPRING_KEYS, path, errs)
    k = _number(value.get("k", 0.0), f"{path}.k", errs)
    offset = _number(value.get("offset", 0.0), f"{path}.offset", errs)
    return _build(SpringLaw, path, errs, k=k, preload_offset=offset, branch=value.get("branch", "linear"))


def _joint(value, path, errs) -> JointModel | None:
    if not isinstance(value, dict):
        errs.add(path, "expected an object")
        return None
    _check_keys(value, _JOINT_KEYS, path, errs)
    axis = _vector(value.get("axis"), 3, f"{path}.axis", errs)
    # a key given as null still counts as present: _number and _spring reject
    # null, so the constructor never takes it for an absent stiffness or spring
    stiffness = None
    if "stiffness" in value:
        stiffness = _number(value["stiffness"], f"{path}.stiffness", errs)
    spring = None
    if "spring" in value:
        spring = _spring(value["spring"], f"{path}.spring", errs)
        if spring is None:
            return None
    kind, motion = value.get("kind"), value.get("motion")
    return _build(JointModel, path, errs, kind=kind, motion=motion, axis=axis, spring=spring, stiffness=stiffness)


def _element(value, path, errs) -> tuple[Transform, JointModel] | None:
    if not isinstance(value, dict):
        errs.add(path, "expected an object")
        return None
    _check_keys(value, _ELEMENT_KEYS, path, errs)
    link = _transform(value.get("link"), f"{path}.link", errs)
    if "joint" not in value:
        errs.add(f"{path}.joint", "missing joint")
        return None
    joint = _joint(value["joint"], f"{path}.joint", errs)
    return None if joint is None else (link, joint)


def parse_document(tree) -> ManipulatorModel:
    errs = _Collector()
    if not isinstance(tree, dict):
        raise ModelError("invalid model document\n$: expected a top-level object")
    _check_keys(tree, _TOP_KEYS, "$", errs)

    version = tree.get("version")
    if version != SCHEMA_VERSION:
        errs.add("$.version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    task_dim = tree.get("task_dim")
    if task_dim not in TASK_DIMS:
        errs.add("$.task_dim", f"expected one of {TASK_DIMS}")
        errs.raise_if_any()
    name = tree.get("name", "")
    if not isinstance(name, str):
        errs.add("$.name", "expected a string")
        name = ""

    units = tree.get("units", {})
    if not isinstance(units, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in units.items()
    ):
        errs.add("$.units", "expected a string-to-string map")
        units = {}

    workspace = None
    if tree.get("workspace") is not None:
        ws = tree["workspace"]
        n_pos = 2 if task_dim in (2, 3) else 3
        if not isinstance(ws, dict):
            errs.add("$.workspace", "expected an object")
        else:
            _check_keys(ws, {"min", "max"}, "$.workspace", errs)
            lo = _vector(ws.get("min"), n_pos, "$.workspace.min", errs)
            hi = _vector(ws.get("max"), n_pos, "$.workspace.max", errs)
            if all(l < h for l, h in zip(lo, hi)):
                workspace = (lo, hi)
            else:
                errs.add("$.workspace", "min must be strictly below max per axis")

    chains_doc = tree.get("chains")
    chains: list[ChainModel] = []
    if not isinstance(chains_doc, list) or not chains_doc:
        errs.add("$.chains", "expected a nonempty list")
    else:
        for ci, cdoc in enumerate(chains_doc):
            cpath = f"$.chains[{ci}]"
            if not isinstance(cdoc, dict):
                errs.add(cpath, "expected an object")
                continue
            _check_keys(cdoc, _CHAIN_KEYS, cpath, errs)
            base = _transform(cdoc.get("base"), f"{cpath}.base", errs)
            tool = _transform(cdoc.get("tool"), f"{cpath}.tool", errs)
            cname = cdoc.get("name", "")
            if not isinstance(cname, str):
                errs.add(f"{cpath}.name", "expected a string")
                cname = ""
            ik_seed = cdoc.get("ik_seed")
            if isinstance(ik_seed, list):
                seed_path = f"{cpath}.ik_seed"
                ik_seed = [_number(v, seed_path, errs, i) for i, v in enumerate(ik_seed)]
            elif ik_seed is not None:
                errs.add(f"{cpath}.ik_seed", "expected a list of numbers")
                ik_seed = None
            edocs = cdoc.get("elements")
            if not isinstance(edocs, list):
                errs.add(f"{cpath}.elements", "expected a list")
                continue
            elements = [_element(e, f"{cpath}.elements[{ei}]", errs) for ei, e in enumerate(edocs)]
            if None in elements:
                continue
            chain = _build(
                ChainModel, cpath, errs, task_dim=task_dim, base_pose=base, elements=elements,
                tool_transform=tool, ik_seed=ik_seed, name=cname,
            )
            if chain is not None:
                chains.append(chain)
    errs.raise_if_any()
    return ManipulatorModel(
        task_dim=task_dim, chains=chains, units=dict(units), workspace=workspace, name=name
    )


def _reject_constant(name: str):
    raise ModelError(f"model document syntax error: non-finite number {name} is not allowed")


def parse_model(text: str) -> ManipulatorModel:
    """Parse and validate a model document; raises ModelError with every
    violation and its document path."""
    try:
        tree = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as err:  # also a document nested too deep
        raise ModelError(f"model document syntax error: {err}") from err
    return parse_document(tree)


def _transform_doc(tr: Transform) -> dict:
    return {
        "translation": [float(v) for v in tr.translation],
        "rpy": [float(v) for v in tr.rpy],
    }


def document_tree(model: ManipulatorModel) -> dict:
    """Canonical (fully materialized, fixed key order) document tree."""
    chains = []
    for chain in model.chains:
        elements = []
        for link, joint in chain.elements:
            jdoc = {
                "kind": joint.kind,
                "motion": joint.motion,
                "axis": [float(v) for v in joint.axis],
            }
            if joint.stiffness is not None:
                jdoc["stiffness"] = float(joint.stiffness)
            if joint.spring is not None:
                jdoc["spring"] = {
                    "k": float(joint.spring.k),
                    "offset": float(joint.spring.preload_offset),
                    "branch": joint.spring.branch,
                }
            elements.append({"link": _transform_doc(link), "joint": jdoc})
        chains.append(
            {
                "name": chain.name,
                "base": _transform_doc(chain.base_pose),
                "tool": _transform_doc(chain.tool_transform),
                "ik_seed": None if chain.ik_seed is None else [float(v) for v in chain.ik_seed],
                "elements": elements,
            }
        )
    workspace = None
    if model.workspace is not None:
        lo, hi = model.workspace
        workspace = {"min": [float(v) for v in lo], "max": [float(v) for v in hi]}
    return {
        "version": SCHEMA_VERSION,
        "task_dim": model.task_dim,
        "name": model.name,
        "units": dict(sorted(model.units.items())),
        "workspace": workspace,
        "chains": chains,
    }


def serialize_model(model: ManipulatorModel) -> str:
    return json.dumps(document_tree(model), indent=2) + "\n"
