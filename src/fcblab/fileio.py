"""JSON file formats for polynomials, witnesses, and certificates.

Polynomial:      {"n": int, "coeffs": [{"subset": [ints], "value": float}]}
Block-multilinear: {"n": int, "d": int,
                    "coeffs": [{"pairs": [[block, index], ...], "value": float}]}
Witness:         {"m": int, "d": int, "u": [...], "v": [...], "A": [[[...]]]}
                 with A indexed 1..n+1, matrices row-major.
Certificate:     witness fields plus {"kind", "certified_value",
                 "implied_bound", "s_or_D"}; block-multilinear witnesses use
                 "A_blocks" (d x n matrices) instead of "A".

Subsets must be sorted ascending and blocks strictly increasing; duplicates
are rejected.  Sizes and indices must be JSON integers; coefficient and
certificate values and every entry of u, v and the matrices must be JSON
numbers, and the entries of u, v and the matrices must also be finite.
Booleans, strings and floats in an integer field (even 2.0) are rejected
rather than coerced.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .behavior import Witness
from .errors import ParseError
from .poly import BlockMultilinearPolynomial, Polynomial
from .witnesses import BmlWitness, InfluenceCertificate


def _load_json(path: str | Path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return data


def _require(data: dict, key: str, path) -> object:
    if key not in data:
        raise ParseError(f"{path}: missing field {key!r}")
    return data[key]


def _integer(value, what: str, path) -> int:
    # bool is a subclass of int, so JSON true would otherwise read as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: {what} must be an integer, got {json.dumps(value)}")
    return value


def _number(value, what: str, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: {what} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ParseError(f"{path}: {what} is too large for a float") from None


def _finite(value, what: str, path) -> float:
    number = _number(value, what, path)
    if not np.isfinite(number):  # Python's json reads NaN, Infinity and 1e400 (as inf)
        raise ParseError(f"{path}: {what} is not finite")
    return number


def _array(value, what: str, path) -> np.ndarray:
    """A nested list of JSON numbers as a float array; numpy alone would coerce true and "1.5"."""
    entries = np.array(value, dtype=object)
    for entry in entries.flat:
        if isinstance(entry, list):  # a ragged list leaves lists where numbers belong
            raise ParseError(f"{path}: {what} is not a rectangular array")
        _number(entry, f"an entry of {what}", path)
    array = entries.astype(float)
    if not np.isfinite(array).all():  # Python's json reads NaN and Infinity
        raise ParseError(f"{path}: {what} has an entry that is not finite")
    return array


def _entries(data: dict, key: str, path) -> list[tuple[list, float]]:
    """(entry[key], value) for each coefficient entry: a list and a JSON number."""
    entries = _require(data, "coeffs", path)
    if not isinstance(entries, list):
        raise ParseError(f"{path}: 'coeffs' must be a list")
    out = []
    for entry in entries:
        fields = entry if isinstance(entry, dict) else {}
        if not isinstance(fields.get(key), list) or "value" not in fields:
            raise ParseError(f"{path}: each coefficient needs a list {key!r} and a 'value': {json.dumps(entry)}")
        out.append((fields[key], _number(fields["value"], "a coefficient value", path)))
    return out


def load_polynomial(path: str | Path) -> Polynomial:
    data = _load_json(path)
    n = _integer(_require(data, "n", path), "n", path)
    if n < 0:
        raise ParseError(f"{path}: n must be a nonnegative integer")
    coeffs = {}
    for raw, value in _entries(data, "subset", path):
        subset = [_integer(i, "a subset entry", path) for i in raw]
        if subset != sorted(set(subset)):
            raise ParseError(f"{path}: subset not sorted ascending or has duplicates: {subset}")
        key = tuple(subset)
        if key in coeffs:
            raise ParseError(f"{path}: duplicate subset {subset}")
        coeffs[key] = value
    try:
        return Polynomial(n, coeffs)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None


def polynomial_payload(p: Polynomial) -> dict:
    entries = [
        {"subset": list(s), "value": c}
        for s, c in sorted(p.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return {"n": p.n, "coeffs": entries}


def save_polynomial(p: Polynomial, path: str | Path) -> None:
    Path(path).write_text(json.dumps(polynomial_payload(p), indent=2) + "\n", encoding="utf-8")


def load_bml(path: str | Path) -> BlockMultilinearPolynomial:
    data = _load_json(path)
    n = _integer(_require(data, "n", path), "n", path)
    d = _integer(_require(data, "d", path), "d", path)
    coeffs = {}
    for pairs, value in _entries(data, "pairs", path):
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise ParseError(f"{path}: each pair must be [block, index]: {pairs}")
        key = tuple((_integer(b, "a block", path), _integer(i, "an index", path)) for b, i in pairs)
        blocks = [b for b, _ in key]
        if blocks != sorted(set(blocks)):
            raise ParseError(f"{path}: blocks not strictly increasing: {pairs}")
        if key in coeffs:
            raise ParseError(f"{path}: duplicate key {pairs}")
        coeffs[key] = value
    try:
        return BlockMultilinearPolynomial(n, d, coeffs)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None


def save_bml(p: BlockMultilinearPolynomial, path: str | Path) -> None:
    entries = [
        {"pairs": [list(pair) for pair in k], "value": c}
        for k, c in sorted(p.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    Path(path).write_text(
        json.dumps({"n": p.n, "d": p.d, "coeffs": entries}, indent=2) + "\n",
        encoding="utf-8",
    )


def witness_payload(w: Witness) -> dict:
    return {
        "m": w.m,
        "d": w.d,
        "u": w.u.tolist(),
        "v": w.v.tolist(),
        "A": w.A.tolist(),
    }


def bml_witness_payload(w: BmlWitness) -> dict:
    return {
        "m": w.m,
        "d": w.d,
        "n": w.n,
        "u": w.u.tolist(),
        "v": w.v.tolist(),
        "A_blocks": w.A.tolist(),
    }


def save_witness(w: Witness, path: str | Path) -> None:
    Path(path).write_text(json.dumps(witness_payload(w), indent=2) + "\n", encoding="utf-8")


def _parse_witness(data: dict, path) -> Witness:
    m = _integer(_require(data, "m", path), "m", path)
    d = _integer(_require(data, "d", path), "d", path)
    u = _array(_require(data, "u", path), "u", path)
    v = _array(_require(data, "v", path), "v", path)
    a = _array(_require(data, "A", path), "A", path)
    if a.ndim != 3 or a.shape[1:] != (m, m) or u.shape != (m,) or v.shape != (m,):
        raise ParseError(f"{path}: witness dimensions are inconsistent with m={m}")
    try:
        return Witness(d=d, u=u, v=v, A=a)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None


def load_witness(path: str | Path) -> Witness:
    return _parse_witness(_load_json(path), path)


def _parse_bml_witness(data: dict, path) -> BmlWitness:
    m = _integer(_require(data, "m", path), "m", path)
    u = _array(_require(data, "u", path), "u", path)
    v = _array(_require(data, "v", path), "v", path)
    a = _array(_require(data, "A_blocks", path), "A_blocks", path)
    if a.ndim != 4 or a.shape[2:] != (m, m) or u.shape != (m,) or v.shape != (m,):
        raise ParseError(f"{path}: witness dimensions are inconsistent with m={m}")
    return BmlWitness(u=u, v=v, A=a)


def save_certificate(cert: InfluenceCertificate, path: str | Path) -> None:
    if isinstance(cert.witness, Witness):
        payload = witness_payload(cert.witness)
    else:
        payload = bml_witness_payload(cert.witness)
    payload.update(
        {
            "kind": cert.kind,
            "certified_value": cert.certified_value,
            "implied_bound": cert.implied_bound,
            "s_or_D": cert.s_or_d,
        }
    )
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_certificate(path: str | Path) -> InfluenceCertificate:
    data = _load_json(path)
    kind = _require(data, "kind", path)
    witness = _parse_witness(data, path) if "A" in data else _parse_bml_witness(data, path)
    return InfluenceCertificate(
        kind=str(kind),
        witness=witness,
        certified_value=_finite(_require(data, "certified_value", path), "certified_value", path),
        implied_bound=_finite(_require(data, "implied_bound", path), "implied_bound", path),
        s_or_d=_integer(_require(data, "s_or_D", path), "s_or_D", path),
    )
