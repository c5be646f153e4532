"""JSON and CSV interchange for algebras, elements, and operators.

Schemas:
  algebra   {"blocks": [{"dim": int, "weight": float}, ...]}
  element   {"algebra": <algebra>, "blocks": [[[re, im], ...], ...]}
            one flat row-major list of [re, im] pairs per block
  operator  tagged by "kind", mirroring the node taxonomy

This module is the one reader of the command line's JSON input: malformed
input raises InvalidInputError, and its message names the JSON path.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .algebra import Element, TracedAlgebra, _integer
from .ergodic import SectorNet
from .errors import InvalidInputError, NumericFailureError
from .rng import stream
from . import superops


@contextmanager
def _reading(path: str):
    """Turn an error raised while reading the JSON value at `path` into an
    InvalidInputError naming the path.  Wrap no computation on what was
    read: an error there is a bug, and stays a traceback."""
    try:
        yield
    except (OSError, KeyError, IndexError, TypeError, ValueError,
            OverflowError, AttributeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InvalidInputError(f"{path}: {reason}") from exc


def _field(d, path: str, read=None, *default):
    """read(d[key]) for the last key of the dotted `path`; a missing key
    reads as `default` when one is given."""
    with _reading(path):
        key = path.rpartition(".")[2]
        value = d.get(key, *default) if default else d[key]
        return value if read is None else read(value)


def _real(value, positive: bool = False):
    """A finite JSON number, > 0 if `positive`, returned as read (an int is
    written back as an int); a string or a bool is refused, not parsed."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and not value > 0)):
        raise ValueError(f"expected a finite number{' > 0' * positive}, "
                         f"got {value!r}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def read_json(source) -> tuple[dict, bytes]:
    """The JSON object in the file `source` (a path, or a bundled config's
    resource), with the bytes it was read from."""
    with _reading(source):
        raw = Path(source).read_bytes()
        obj = json.loads(raw)
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{source}: top level must be a JSON object")
    return obj, raw


def algebra_to_dict(a: TracedAlgebra) -> dict:
    return {"blocks": [{"dim": d, "weight": w} for d, w in a.blocks]}


def algebra_from_dict(d: dict) -> TracedAlgebra:
    # TracedAlgebra checks each dim and weight; float() fails here, not there
    return TracedAlgebra(_field(d, "algebra.blocks", lambda blocks: tuple(
        (b["dim"], float(b["weight"])) for b in blocks)))


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def _blocks(specs, dims) -> list:
    """One finite matrix per dim from lists of [re, im] pairs, row-major."""
    if len(specs) != len(dims):
        raise ValueError(f"{len(specs)} blocks for {len(dims)} algebra blocks")
    blocks = [np.array([complex(re, im) for re, im in pairs]).reshape(d, d)
              for pairs, d in zip(specs, dims)]
    if not all(np.isfinite(b).all() for b in blocks):
        raise ValueError("non-finite matrix entries")
    return blocks


def element_to_dict(x: Element) -> dict:
    return {"algebra": algebra_to_dict(x.algebra),
            "blocks": [_matrix_to_pairs(b) for b in x.data]}


def element_from_dict(d: dict, algebra: Optional[TracedAlgebra] = None) -> Element:
    """The element `d`.  Given `algebra`, it is built on that object, and
    the algebra `d` names, if it names one, must equal it."""
    if algebra is None:
        algebra = algebra_from_dict(_field(d, "algebra"))
    elif (spec := _field(d, "algebra", None, None)) is not None:
        if algebra_from_dict(spec) != algebra:
            raise InvalidInputError("algebra: differs from the algebra the "
                                    "element is read on")
    return Element(algebra, _field(d, "blocks", lambda b: _blocks(b, algebra.dims)))


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


def superop_from_dict(d: dict, algebra: TracedAlgebra,
                      path: str = "operator") -> superops.SuperOperator:
    """The operator `d` on `algebra`; `path` names `d` in error messages."""
    kind, dims = _field(d, f"{path}.kind"), algebra.dims
    if kind == "unitary_conjugation":
        u = _field(d, f"{path}.unitary", lambda b: _blocks(b, dims))
        return superops.UnitaryConjugation(Element(algebra, u))
    if kind == "pinching":
        ps = _field(d, f"{path}.projections", lambda ps: [_blocks(p, dims) for p in ps])
        return superops.Pinching([Element(algebra, p, selfadjoint=True, positive=True,
                                          projection=True) for p in ps])
    if kind == "block_expectation":
        return superops.BlockExpectation(algebra, _field(
            d, f"{path}.partition", lambda partition: [
                [[_integer(i, "partition index") for i in g] for g in groups]
                for groups in partition]))
    if kind == "convex_combination":
        terms = _field(d, f"{path}.terms",
                       lambda ts: [(_real(t["weight"]), t["op"]) for t in ts])
        return superops.ConvexCombination(
            [(w, superop_from_dict(op, algebra, f"{path}.terms[{i}].op"))
             for i, (w, op) in enumerate(terms)])
    if kind == "composition":
        factors = _field(d, f"{path}.factors", list)
        return superops.Composition(
            [superop_from_dict(f, algebra, f"{path}.factors[{i}]")
             for i, f in enumerate(factors)])
    if kind == "power":
        base = superop_from_dict(_field(d, f"{path}.base"), algebra, f"{path}.base")
        return superops.Power(base, _field(d, f"{path}.exponent",
                                           lambda e: _integer(e, "exponent")))
    if kind == "explicit_matrix":
        return superops.ExplicitMatrix(algebra, _field(
            d, f"{path}.matrix", lambda m: _blocks([m], [algebra.vec_dim])[0]))
    raise InvalidInputError(f"{path}.kind: unknown operator kind {kind!r}")


def ds_check_from_dict(cfg: dict) -> superops.SuperOperator:
    """The operator of a ``ds-check`` map {"algebra", "operator"}."""
    algebra = algebra_from_dict(_field(cfg, "algebra"))
    return superop_from_dict(_field(cfg, "operator"), algebra)


def average_from_dict(cfg: dict, seed: Optional[int]) -> tuple:
    """(seed, fixture, run) of an ``average`` config; `seed`, unless None,
    overrides the config's own (default 0).  A config naming a `fixture`
    has no run.  Any other gives the run (element, operators, net,
    epsilon), a random element drawn from ``cli/average/element``."""
    if seed is None:
        seed = _field(cfg, "seed", lambda s: _integer(s, "seed"), 0)
    fixture = _field(cfg, "fixture", None, None)
    if fixture is not None:
        return seed, fixture, None
    algebra = algebra_from_dict(_field(cfg, "algebra"))
    ops = [superop_from_dict(op, algebra, f"operators[{i}]")
           for i, op in enumerate(_field(cfg, "operators", list))]
    spec = _field(cfg, "element")
    blocks = _field(spec, "element.explicit",
                    lambda b: None if b is None else _blocks(b, algebra.dims), None)
    if blocks is not None:
        x = Element(algebra, blocks)
    else:
        spec = _field(spec, "element.random")
        x = algebra.random_element(
            stream(seed, "cli/average/element"),
            scale=_field(spec, "element.random.scale", _real, 1.0),
            selfadjoint=_field(spec, "element.random.selfadjoint", _bool, False))
    net = _field(cfg, "net")
    dimension, indices = _field(net, "net.indices", lambda ns: (
        len(ns[0]), tuple(tuple(n) for n in ns)))
    net = SectorNet(dimension, indices, _field(
        net, "net.sector_constant", lambda c: None if c is None else _real(c), None))
    epsilon = _field(cfg, "epsilon", lambda e: _real(e, positive=True), 0.05)
    return seed, None, (x, ops, net, epsilon)


def dumps(obj: dict) -> str:
    """Canonical report JSON (stable bytes); inf or NaN is a numeric failure."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericFailureError(f"report is not JSON: {exc}") from None
