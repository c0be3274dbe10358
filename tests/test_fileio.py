import json

import numpy as np
import pytest

from fcblab import (
    BlockMultilinearPolynomial,
    ParseError,
    Polynomial,
    bml_general_witness,
    homogeneous_fcb_witness,
)
from fcblab.fileio import (
    load_bml,
    load_certificate,
    load_polynomial,
    load_witness,
    save_bml,
    save_certificate,
    save_polynomial,
    save_witness,
)

from conftest import maj3


class TestPolynomialFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        save_polynomial(maj3(), path)
        assert load_polynomial(path) == maj3()

    def test_subset_not_sorted(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "coeffs": [{"subset": [2, 1], "value": 1.0}]}))
        with pytest.raises(ParseError, match="subset not sorted"):
            load_polynomial(path)

    def test_duplicate_subset(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {"n": 2, "coeffs": [{"subset": [1], "value": 1.0}, {"subset": [1], "value": 2.0}]}
            )
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_polynomial(path)

    def test_json_error_has_line_context(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"n": 2,\n  "coeffs": [}')
        with pytest.raises(ParseError, match=r":2:"):
            load_polynomial(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"coeffs": []}))
        with pytest.raises(ParseError, match="missing"):
            load_polynomial(path)

    def test_out_of_range_subset(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 1, "coeffs": [{"subset": [2], "value": 1.0}]}))
        with pytest.raises(ParseError, match="out of range"):
            load_polynomial(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            # JSON true is a Python int, so this file once loaded as the polynomial x1
            ({"n": 2, "coeffs": [{"subset": [True], "value": True}]}, "coefficient value must be a number"),
            (
                {"n": 2, "coeffs": [{"subset": [True], "value": 1.0}]},
                "subset entry must be an integer, got true",
            ),
            ({"n": 2, "coeffs": [{"subset": [1], "value": True}]}, "coefficient value must be a number"),
            ({"n": True, "coeffs": [{"subset": [1], "value": 1.0}]}, "n must be an integer"),
            ({"n": 1, "coeffs": [{"subset": [1], "value": -(10**400)}]}, "coefficient value is too large for a float"),
        ],
        ids=["bool-subset-and-value", "bool-subset-entry", "bool-value", "bool-n", "huge-integer-value"],
    )
    def test_non_integer_fields(self, tmp_path, payload, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=message):
            load_polynomial(path)


class TestBmlFormat:
    def test_round_trip(self, tmp_path):
        p = BlockMultilinearPolynomial(2, 2, {((1, 1), (2, 2)): 0.5, ((2, 1),): -1.5})
        path = tmp_path / "b.json"
        save_bml(p, path)
        assert load_bml(path) == p

    def test_blocks_not_increasing(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps({"n": 2, "d": 2, "coeffs": [{"pairs": [[2, 1], [1, 1]], "value": 1.0}]})
        )
        with pytest.raises(ParseError, match="increasing"):
            load_bml(path)

    def test_nan_coefficient(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"n": 1, "d": 1, "coeffs": [{"pairs": [[1, 1]], "value": NaN}]}')
        with pytest.raises(ParseError, match="not finite"):
            load_bml(path)

    @pytest.mark.parametrize(
        "n, d, pairs, value, message",
        [
            # int() once truncated these pairs to [[1, 1], [2, 1]]
            (2, 2, [[1, 1.7], [2, True]], 1.0, "index must be an integer, got 1.7"),
            (2, 2, [[1, 1], [2, True]], 1.0, "index must be an integer, got true"),
            (2, 2, [[1.0, 1]], 1.0, "block must be an integer, got 1.0"),
            (2, 2.5, [[1, 1]], 1.0, "d must be an integer"),
            (True, 1, [[1, 1]], 1.0, "n must be an integer"),
            (1, 1, [[1, 1]], False, "coefficient value must be a number"),
        ],
        ids=[
            "float-and-bool-index",
            "bool-index",
            "integral-float-block",
            "non-integral-d",
            "bool-n",
            "bool-value",
        ],
    )
    def test_non_integer_fields(self, tmp_path, n, d, pairs, value, message):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"n": n, "d": d, "coeffs": [{"pairs": pairs, "value": value}]}))
        with pytest.raises(ParseError, match=message):
            load_bml(path)


class TestWitnessFormat:
    def test_round_trip(self, tmp_path):
        cert = homogeneous_fcb_witness(Polynomial(2, {(1, 2): 1.0}))
        path = tmp_path / "w.json"
        save_witness(cert.witness, path)
        loaded = load_witness(path)
        assert loaded.d == cert.witness.d
        assert np.array_equal(loaded.u, cert.witness.u)
        assert np.array_equal(loaded.A, cert.witness.A)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(
            json.dumps({"m": 2, "d": 1, "u": [1.0], "v": [1.0, 0.0], "A": [[[1.0]]]})
        )
        with pytest.raises(ParseError, match="inconsistent"):
            load_witness(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("u", [True], r"an entry of u must be a number, got true"),  # np.array once read 1.0
            ("v", ["1.0"], r"an entry of v must be a number, got \"1.0\""),
            ("A", [[[1.0]], [[False]]], r"an entry of A must be a number, got false"),
            ("A", [[[1.0]], [[None]]], r"an entry of A must be a number, got null"),
            ("A", [[[1.0]], [[1.0, 0.0]]], r"A is not a rectangular array"),
            pytest.param("u", [10**400], r"an entry of u is too large for a float", id="huge-integer"),
        ],
    )
    def test_non_numeric_entries(self, tmp_path, field, value, message):
        path = tmp_path / "w.json"
        data = {"m": 1, "d": 1, "u": [1.0], "v": [1.0], "A": [[[1.0]], [[1.0]]]}
        data[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=message):
            load_witness(path)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["u", "v", "A"])
    def test_non_finite_entries(self, tmp_path, field, entry):
        # json reads NaN and Infinity; a NaN in A once reached the SVD of verify_bb
        path = tmp_path / "w.json"
        data = {"m": 1, "d": 1, "u": [1.0], "v": [1.0], "A": [[[1.0]], [[1.0]]]}
        entries = data[field]
        while isinstance(entries[0], list):
            entries = entries[0]
        entries[0] = entry
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"{field} has an entry that is not finite"):
            load_witness(path)


class TestCertificateFormat:
    def test_fcb_round_trip(self, tmp_path):
        cert = homogeneous_fcb_witness(Polynomial(2, {(1, 2): 1.0}))
        path = tmp_path / "c.json"
        save_certificate(cert, path)
        loaded = load_certificate(path)
        assert loaded.kind == cert.kind
        assert loaded.certified_value == cert.certified_value
        assert loaded.implied_bound == cert.implied_bound
        assert loaded.s_or_d == cert.s_or_d
        assert np.array_equal(loaded.witness.A, cert.witness.A)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("s_or_D", 2.7, "s_or_D must be an integer, got 2.7"),  # int() once read 2
            ("certified_value", True, "certified_value must be a number, got true"),
            pytest.param("certified_value", 10**400, "certified_value is too large for a float", id="huge-integer"),
            # json reads NaN, Infinity and 1e400 (as inf); they once loaded as nan and inf
            *[
                pytest.param(field, value, f"{field} is not finite", id=f"{field}-{value}")
                for field in ("certified_value", "implied_bound")
                for value in [float("nan"), float("inf"), float("-inf"), "1e400"]
            ],
        ],
    )
    def test_non_numeric_fields(self, tmp_path, field, value, message):
        path = tmp_path / "c.json"
        save_certificate(homogeneous_fcb_witness(Polynomial(2, {(1, 2): 1.0})), path)
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data).replace('"1e400"', "1e400"))  # the string stands for the bare literal
        with pytest.raises(ParseError, match=message):
            load_certificate(path)

    def test_bml_round_trip(self, tmp_path):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1),): 2**-0.5, ((1, 1), (2, 1)): 2**-0.5})
        cert = bml_general_witness(p)
        path = tmp_path / "c.json"
        save_certificate(cert, path)
        loaded = load_certificate(path)
        assert loaded.kind == "bml_general"
        assert loaded.s_or_d == 1
        assert np.array_equal(loaded.witness.A, cert.witness.A)

    @pytest.mark.parametrize("field", ["u", "A_blocks"])
    def test_bml_boolean_entries(self, tmp_path, field):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1),): 2**-0.5, ((1, 1), (2, 1)): 2**-0.5})
        path = tmp_path / "c.json"
        save_certificate(bml_general_witness(p), path)
        data = json.loads(path.read_text())
        entries = data[field]
        while isinstance(entries[0], list):
            entries = entries[0]
        entries[0] = False
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"an entry of {field} must be a number, got false"):
            load_certificate(path)

    def test_bml_non_finite_entry(self, tmp_path):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1),): 2**-0.5, ((1, 1), (2, 1)): 2**-0.5})
        path = tmp_path / "c.json"
        save_certificate(bml_general_witness(p), path)
        data = json.loads(path.read_text())
        data["A_blocks"][0][0][0][0] = float("nan")
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="A_blocks has an entry that is not finite"):
            load_certificate(path)
