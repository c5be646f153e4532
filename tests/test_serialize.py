import json

import numpy as np
import pytest

from conftest import SEED, BLOCK_CONFIGS, make_algebra, \
    random_unitary_element
from ncergo import Element, TracedAlgebra
from ncergo import serialize
from ncergo.errors import InvalidInputError
from ncergo.rng import stream
from ncergo.superops import BlockExpectation, Composition, \
    ConvexCombination, ExplicitMatrix, Pinching, Power, UnitaryConjugation


def test_algebra_round_trip():
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        b = serialize.algebra_from_dict(serialize.algebra_to_dict(a))
        assert a == b


def test_element_round_trip():
    rng = stream(SEED, "test/serialize/element")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        x = a.random_element(rng)
        y = serialize.element_from_dict(serialize.element_to_dict(x))
        assert (x - y).sup_norm() == 0.0
        assert y.algebra == a


def test_element_bad_specs():
    with pytest.raises(InvalidInputError):
        serialize.algebra_from_dict({"blocks": [{"dim": 2}]})
    with pytest.raises(InvalidInputError):
        serialize.element_from_dict({"blocks": []})
    a = TracedAlgebra(((2, 1.0),))
    with pytest.raises(InvalidInputError):
        serialize.element_from_dict(
            {"algebra": serialize.algebra_to_dict(a),
             "blocks": [[[1.0, 0.0]]]})  # wrong length


def test_fractional_json_dim_is_an_input_error():
    with pytest.raises(InvalidInputError, match="block dim"):
        serialize.algebra_from_dict({"blocks": [{"dim": 2.9, "weight": 1.0}]})


def test_operator_round_trips():
    rng = stream(SEED, "test/serialize/operators")
    a = TracedAlgebra(((2, 1.0), (2, 0.5)))
    p = Element(a, [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])],
                selfadjoint=True, positive=True, projection=True)
    q = Element(a, [np.diag([0.0, 1.0]), np.diag([0.0, 1.0])],
                selfadjoint=True, positive=True, projection=True)
    conj = UnitaryConjugation(random_unitary_element(rng, a))
    mat = np.zeros((a.vec_dim, a.vec_dim), dtype=complex)
    mat[:4, :4] = np.eye(4)
    mat[4:, 4:] = 0.5 * np.eye(4)
    ops = [
        conj,
        Pinching([p, q]),
        BlockExpectation(a, [[[0], [1]], [[0, 1]]]),
        ConvexCombination([(0.25, conj), (0.5, Pinching([p, q]))]),
        Composition([conj, Pinching([p, q])]),
        Power(conj, 3),
        ExplicitMatrix(a, mat),
    ]
    x = a.random_element(rng)
    for op in ops:
        d = serialize.superop_to_dict(op)
        back = serialize.superop_from_dict(json.loads(json.dumps(d)), a)
        assert type(back) is type(op)
        assert (op.apply(x) - back.apply(x)).sup_norm() < 1e-12


def test_operator_bad_kind():
    a = TracedAlgebra(((2, 1.0),))
    with pytest.raises(InvalidInputError):
        serialize.superop_from_dict({"kind": "teleport"}, a)
    with pytest.raises(InvalidInputError):
        serialize.superop_from_dict({"kind": "pinching"}, a)


def test_dumps_is_canonical():
    payload = {"b": 1, "a": [1.5, 2.5]}
    s1 = serialize.dumps(payload)
    s2 = serialize.dumps({"a": [1.5, 2.5], "b": 1})
    assert s1 == s2
    assert s1.startswith("{\n")
