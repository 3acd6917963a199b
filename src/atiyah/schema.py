"""JSON schemas of the payloads that the CLI prints with ``--format json``.

``REPORT_SCHEMA`` covers ``classify`` and ``p1``, ``DECOMPOSITION_SCHEMA``
covers ``tensor`` and ``power``, and ``SSET_SCHEMA``, ``EXPRESS_SCHEMA``,
``VERIFY_SCHEMA`` and ``GRID_SCHEMA`` one subcommand each.
"""


def _record(properties: dict, optional: tuple = ()) -> dict:
    """An object with exactly these properties, all required but ``optional``."""
    return {
        "type": "object",
        "required": [name for name in properties if name not in optional],
        "additionalProperties": False,
        "properties": properties,
    }


def _schema(title: str, properties: dict, optional: tuple = ()) -> dict:
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": title,
        **_record(properties, optional),
    }


_STRING = {"type": "string"}
_STRINGS = {"type": "array", "items": _STRING}
_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_BOOLEAN = {"type": "boolean"}
_NONNEG = {"type": "integer", "minimum": 0}
_POSITIVE = {"type": "integer", "minimum": 1}
_RANK_TORSION = _record({"rank": _POSITIVE, "torsion": _NONNEG})

REPORT_SCHEMA = _schema(
    "bundle classification report",
    {
        "input": {
            "oneOf": [
                _RANK_TORSION,
                _record({"degrees": {**_INTEGERS, "minItems": 1}}),
            ],
        },
        "s_set": _record({"finite": _STRINGS, "families": _STRINGS}),
        "presentation": _record({
            "kind": {
                "enum": [
                    "point",
                    "cyclotomic",
                    "poly",
                    "laurent",
                    "laurent_poly",
                    "cyclotomic_poly",
                ]
            },
            "modulus": {"type": ["integer", "null"], "minimum": 1},
            "generators": _STRINGS,
        }),
        "krull_dim": _NONNEG,
        "group": _record({"factors": _STRINGS, "dim": _NONNEG}),
        "correspondence": _BOOLEAN,
        "minimality_note": {"type": ["string", "null"]},
        "notes": _STRINGS,
        # p1 only: the power bound and the degrees enumerated up to it.
        "bound": _POSITIVE,
        "enumerated": _INTEGERS,
    },
    optional=("minimality_note", "notes", "bound", "enumerated"),
)

DECOMPOSITION_SCHEMA = _schema(
    "decomposition of a bundle expression",
    {
        "expression": _STRING,
        "torsion": _NONNEG,
        "terms": {
            "type": "array",
            "items": _record({"multiplicity": _POSITIVE, "bundle": _STRING}),
        },
        "text": _STRING,
    },
)

SSET_SCHEMA = _schema(
    "S-set description and enumeration",
    {
        "input": _RANK_TORSION,
        "bound": _POSITIVE,
        "symbolic": _record({"finite": _STRINGS, "families": _STRINGS}),
        "enumerated": _STRINGS,
    },
)

EXPRESS_SCHEMA = _schema(
    "basis class as a polynomial in a generator",
    {
        "index": _POSITIVE,
        "chain": {"enum": ["even", "odd"]},
        "generator": {"enum": ["[F_2]", "[F_3]"]},
        "coefficients": _INTEGERS,
        "polynomial": _STRING,
    },
)

VERIFY_SCHEMA = _schema(
    "tensor rule against the character oracle",
    {
        "pairs": _POSITIVE,
        "agreements": _NONNEG,
        "ok": _BOOLEAN,
        "failures": {**_STRINGS, "minItems": 1},
    },
    optional=("failures",),
)

GRID_SCHEMA = _schema(
    "dimension correspondence grid",
    {
        "cells": {
            "type": "array",
            "minItems": 1,
            "items": _record({
                "rank": _POSITIVE,
                "torsion": _NONNEG,
                "krull_dim": _NONNEG,
                "group_dim": _NONNEG,
                "holds": _BOOLEAN,
            }),
        },
        "all_hold": _BOOLEAN,
    },
)
