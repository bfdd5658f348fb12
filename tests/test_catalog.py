import json
from fractions import Fraction

import pytest

from nilcarnot.algebra import GradedAlgebra, bracket, validate_algebra
from nilcarnot.carnot import decompose
from nilcarnot.catalog import (
    central_product,
    direct_product,
    fixture,
    fixture_names,
    free_nilpotent_step2,
    heisenberg3,
    load_algebra,
    save_algebra,
)
from nilcarnot.linalg import is_zero


def test_every_fixture_validates():
    for name in fixture_names():
        report = validate_algebra(fixture(name))
        assert report.ok, name


def test_fixture_unknown_name():
    with pytest.raises(KeyError):
        fixture("nope")


def test_fixture_alphas():
    assert decompose(fixture("engel_heis7")).alpha == Fraction(2)
    assert decompose(fixture("ladder5")).alpha == Fraction(2)
    assert decompose(fixture("heisprod4")).alpha == Fraction(2)


def test_ladder5_center_layers(dec_l5):
    assert {j: s.rank for j, s in dec_l5.z_layers.items()} == {1: 1, 3: 1}


def test_free_nilpotent_step2():
    alg = free_nilpotent_step2(3)
    assert alg.dim == 6
    assert validate_algebra(alg).ok
    for i in range(3):
        for j in range(i + 1, 3):
            v = bracket(alg, alg.basis_vector(i), alg.basis_vector(j))
            assert not is_zero(v)


def test_direct_product_scaled_alpha():
    h = heisenberg3()
    prod = direct_product(h, h, Fraction(2))
    assert validate_algebra(prod).ok
    dec = decompose(prod)
    assert dec.alpha == Fraction(2)
    assert dec.w.rank == 3


def test_central_product_of_heisenbergs():
    h = heisenberg3()
    pairing = ([h.basis_vector(2)], [h.basis_vector(2)], ((Fraction(1),),))
    cp = central_product(h, h, pairing)
    assert cp.dim == 5
    assert validate_algebra(cp).ok
    # both commutator pairs hit the shared center line
    z1 = bracket(cp, cp.basis_vector(0), cp.basis_vector(1))
    z2 = bracket(cp, cp.basis_vector(2), cp.basis_vector(3))
    assert z1 == z2
    assert not is_zero(z1)


def test_central_product_rejects_noncentral_pairing():
    h = heisenberg3()
    pairing = ([h.basis_vector(0)], [h.basis_vector(0)], ((Fraction(1),),))
    with pytest.raises(ValueError):
        central_product(h, h, pairing)


def test_save_load_round_trip(tmp_path):
    alg = fixture("ladder5")
    path = tmp_path / "ladder5.json"
    save_algebra(alg, path)
    loaded = load_algebra(path)
    assert loaded == alg


def test_kernel_source_holds_no_label_weight_or_constant(tmp_path):
    path = tmp_path / "hostile.json"
    payload = {
        "dim": 3,
        "labels": ["__import__('os')", "exit()", "z"],
        "weights": [[5, 3], [5, 3], [10, 3]],
        "brackets": [[0, 1, 2, 7, 3]],
    }
    path.write_text(json.dumps(payload))
    loaded = load_algebra(path)
    plain = GradedAlgebra(3, ("x", "y", "z"), (Fraction(1), Fraction(1), Fraction(2)), ((0, 1, 2, Fraction(1)),))
    for kernel in ("bracket_kernel", "bch_kernel"):
        source = getattr(loaded, kernel).source
        assert source == getattr(plain, kernel).source
        for text in ("__import__", "exit", "7/3", "5/3", "Fraction"):
            assert text not in source
    e0, e1 = (Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))
    assert bracket(loaded, e0, e1) == (0, 0, Fraction(7, 3))


def test_load_rejects_diagonal_bracket(tmp_path):
    path = tmp_path / "bad.json"
    payload = {
        "dim": 3,
        "labels": ["x", "y", "z"],
        "weights": [[1, 1], [1, 1], [2, 1]],
        "brackets": [[0, 0, 2, 1, 1]],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_algebra(path)


def test_load_rejects_bad_index_and_duplicates(tmp_path):
    base = {
        "dim": 3,
        "labels": ["x", "y", "z"],
        "weights": [[1, 1], [1, 1], [2, 1]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**base, "brackets": [[0, 1, 7, 1, 1]]}))
    with pytest.raises(ValueError):
        load_algebra(path)
    path.write_text(json.dumps({**base, "brackets": [[0, 1, 2, 1, 1], [0, 1, 2, 2, 1]]}))
    with pytest.raises(ValueError):
        load_algebra(path)
    path.write_text(json.dumps({**base, "brackets": [[1, 0, 2, 1, 1]]}))
    with pytest.raises(ValueError):
        load_algebra(path)


def test_load_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_algebra(path)


def test_load_is_syntactic_grading_checked_later(tmp_path):
    payload = {
        "dim": 3,
        "labels": ["x", "y", "z"],
        "weights": [[1, 1], [1, 1], [2, 1]],
        "brackets": [[0, 2, 2, 1, 1]],  # weight 1 + 2 != 2: loads, fails validation
    }
    path = tmp_path / "ungraded.json"
    path.write_text(json.dumps(payload))
    alg = load_algebra(path)
    report = validate_algebra(alg)
    ok, _ = report.check("grading")
    assert not ok
