"""JSON and CSV interchange for algebras, elements, and operators.

Schemas:
  algebra   {"blocks": [{"dim": int, "weight": float}, ...]}
  element   {"algebra": <algebra>, "blocks": [[[re, im], ...], ...]}
            one flat row-major list of [re, im] pairs per block
  operator  tagged by "kind", mirroring the node taxonomy
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .algebra import Element, TracedAlgebra
from .errors import InvalidInputError
from . import superops


def algebra_to_dict(a: TracedAlgebra) -> dict:
    return {"blocks": [{"dim": d, "weight": w} for d, w in a.blocks]}


def algebra_from_dict(d: dict) -> TracedAlgebra:
    try:
        return TracedAlgebra(tuple((b["dim"], b["weight"]) for b in d["blocks"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad algebra spec: {exc}") from exc


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def _pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs])
    if flat.size != dim * dim:
        raise InvalidInputError("block length does not match dim^2")
    return flat.reshape(dim, dim)


def element_to_dict(x: Element) -> dict:
    return {"algebra": algebra_to_dict(x.algebra),
            "blocks": [_matrix_to_pairs(b) for b in x.data]}


def element_from_dict(d: dict, algebra: Optional[TracedAlgebra] = None) -> Element:
    try:
        algebra = algebra or algebra_from_dict(d["algebra"])
        data = [_pairs_to_matrix(pairs, dim)
                for pairs, dim in zip(d["blocks"], algebra.dims)]
        if len(d["blocks"]) != len(algebra.dims):
            raise InvalidInputError("block count mismatch")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad element spec: {exc}") from exc
    return Element(algebra, data)


def superop_to_dict(op: superops.SuperOperator) -> dict:
    if isinstance(op, superops.UnitaryConjugation):
        return {"kind": "unitary_conjugation",
                "unitary": [_matrix_to_pairs(b) for b in op.u.data]}
    if isinstance(op, superops.Pinching):
        return {"kind": "pinching",
                "projections": [[_matrix_to_pairs(b) for b in p.data]
                                for p in op.projections]}
    if isinstance(op, superops.BlockExpectation):
        return {"kind": "block_expectation",
                "partition": [[list(g) for g in groups]
                              for groups in op.partition]}
    if isinstance(op, superops.ConvexCombination):
        return {"kind": "convex_combination",
                "terms": [{"weight": w, "op": superop_to_dict(o)}
                          for w, o in op.terms]}
    if isinstance(op, superops.Composition):
        return {"kind": "composition",
                "factors": [superop_to_dict(o) for o in op.factors]}
    if isinstance(op, superops.Power):
        return {"kind": "power", "base": superop_to_dict(op.base),
                "exponent": op.exponent}
    if isinstance(op, superops.ExplicitMatrix):
        return {"kind": "explicit_matrix",
                "matrix": _matrix_to_pairs(op.matrix),
                "dim": op.matrix.shape[0]}
    raise InvalidInputError(f"unknown operator type {type(op).__name__}")


def superop_from_dict(d: dict, algebra: TracedAlgebra) -> superops.SuperOperator:
    try:
        kind = d["kind"]
        if kind == "unitary_conjugation":
            u = Element(algebra, [_pairs_to_matrix(p, dim)
                                  for p, dim in zip(d["unitary"], algebra.dims)])
            return superops.UnitaryConjugation(u)
        if kind == "pinching":
            projections = []
            for blocks in d["projections"]:
                data = [_pairs_to_matrix(p, dim)
                        for p, dim in zip(blocks, algebra.dims)]
                projections.append(Element(algebra, data, selfadjoint=True,
                                           positive=True, projection=True))
            return superops.Pinching(projections)
        if kind == "block_expectation":
            return superops.BlockExpectation(algebra, d["partition"])
        if kind == "convex_combination":
            return superops.ConvexCombination(
                [(t["weight"], superop_from_dict(t["op"], algebra))
                 for t in d["terms"]])
        if kind == "composition":
            return superops.Composition(
                [superop_from_dict(f, algebra) for f in d["factors"]])
        if kind == "power":
            return superops.Power(superop_from_dict(d["base"], algebra),
                                  d["exponent"])
        if kind == "explicit_matrix":
            dim = algebra.vec_dim
            return superops.ExplicitMatrix(
                algebra, _pairs_to_matrix(d["matrix"], dim))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad operator spec: {exc}") from exc
    raise InvalidInputError(f"unknown operator kind {d.get('kind')!r}")


def dumps(obj: dict) -> str:
    """Canonical JSON used by all reports (stable bytes for fixed inputs)."""
    return json.dumps(obj, sort_keys=True, indent=2)
