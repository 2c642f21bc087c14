"""The numpy names the package uses, each checked against its declared floor.

``pyproject.toml`` declares ``numpy>=1.24``, but the suite runs on one
installed numpy only, so a call that needs a newer release would pass it.
Every ``np.`` attribute in ``src/kinetostat`` is listed below, and every
listed name is still used there; each listed name exists in numpy 1.24. A
name goes onto the list only once it has been checked against that floor,
and leaves it with its last use.
"""

import ast
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src" / "kinetostat"

# checked against numpy 1.24
NUMPY_1_24 = frozenset(
    """
    abs all arange array array_equal asarray ascontiguousarray atleast_1d concatenate cos
    count_nonzero cumsum divmod empty errstate eye flatnonzero fmin full inf
    int64 intp isfinite isin ix_ lexsort linspace maximum mean nan ndarray outer packbits repeat sin
    split sqrt stack sum take vdot where zeros
    linalg.LinAlgError linalg.cond linalg.det linalg.eigvalsh linalg.inv linalg.lstsq
    linalg.norm linalg.solve linalg.svd
    random.default_rng
    """.split()
)


def _numpy_names(tree: ast.AST) -> set[str]:
    """Dotted names read off ``np`` (``np.linalg.solve`` gives ``linalg.solve``)."""
    names = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "np":
            names.add(".".join(reversed(parts)))
    # keep the longest chains: np.linalg.solve counts as linalg.solve, not also as linalg
    return {n for n in names if not any(m.startswith(n + ".") for m in names)}


def _used_numpy_names() -> set[str]:
    return set().union(*(_numpy_names(ast.parse(path.read_text(encoding="utf-8"))) for path in SRC.glob("*.py")))


def test_every_numpy_name_in_src_is_checked_against_the_floor():
    used, aliased = _used_numpy_names(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            # any other way in would hide names from the scan above
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                aliased.append(f"{path.name}: from {node.module} import ...")
            elif isinstance(node, ast.Import):
                aliased += [f"{path.name}: import {a.name}" for a in node.names if a.name.startswith("numpy") and a.asname != "np"]
    assert not aliased, f"numpy imported other than as np: {aliased}"
    unchecked = sorted(used - NUMPY_1_24)
    assert not unchecked, f"numpy names not yet checked against numpy>=1.24: {unchecked}"


def test_the_checked_names_resolve_in_the_installed_numpy():
    for name in NUMPY_1_24:
        obj = np
        for part in name.split("."):
            obj = getattr(obj, part)


def test_every_checked_name_is_still_used_in_src():
    # a name whose last use left src/ leaves the list, so the list stays exact
    unused = sorted(NUMPY_1_24 - _used_numpy_names())
    assert not unused, f"checked numpy names no longer used in src/: {unused}"
