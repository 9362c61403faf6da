"""JSON encoding and decoding of verdicts and evidence.

One codec, built from the dataclass annotations once per type at import,
encodes every report.  Scalar and mpf fields go through `scalar_to_json`:
exact rationals become fraction strings ("61/100"), so an exact-mode report
re-parses to the identical object, and float evidence gets 40 significant
digits, which re-parse to the same rendering at any precision of 140 bits or
more.  Each mpf is rendered from its own mantissa, never re-rounded to the
ambient mpmath precision.  Fraction fields (a row's p) are their str;
int, float, bool and str stay as they are; Optional[T] is null or T; tuples
are arrays; a ProbVector is its entry list; a GridSpec is its spec string in
the `--grid` syntax ("-20:20:1/20"), and schema 3's list of grid points
still decodes (`_grid_from_json`).  The ROWS types are arrays in
field order, every other dataclass an object in field order with the RENAMED
keys.  A compact-evidence summary field (`context.summary_field`) is left
out when it is None, as it is under full evidence.  A derived field
(`init=False`) is written but never read: decoding recomputes it, and raises
KeyError on any other missing key unless its field has a default.  A key
that no field reads is skipped, as schema 5's `coherence` report is.
"""

from __future__ import annotations

import dataclasses
import typing
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mpf

from .context import DEFAULT_CONTEXT, Context, Scalar, workprec
from .majorization import GridSpec, OracleFailure
from .sympoly import ComparisonEntry
from .thermo import ThermoVerdict
from .trumping import TrumpingVerdict
from .vectors import ProbVector

SCHEMA = "catamaj/6"
FLOAT_DIGITS = 40
ROWS = (ComparisonEntry, OracleFailure)
RENAMED = {"closure_report": "closure_family", "negative_report": "negative_family",
           "slack_used": "slack"}


def scalar_to_json(value: Optional[Scalar]) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    return mpmath.nstr(value if isinstance(value, mpf) else mpf(value), FLOAT_DIGITS)


def scalar_from_json(text: Optional[str], ctx: Context = DEFAULT_CONTEXT) -> Optional[Scalar]:
    if text is None:
        return None
    if "/" in text:
        return Fraction(text)
    if "." in text or "e" in text or "inf" in text or "nan" in text:
        with workprec(ctx):
            return mpf(text)
    return Fraction(text)


def vector_to_json(v: Optional[ProbVector]) -> Optional[list]:
    if v is None:
        return None
    return [scalar_to_json(e) for e in v.entries]


def _vector_from_json(data: list, ctx: Context) -> ProbVector:
    return ProbVector(tuple(scalar_from_json(e, ctx) for e in data))


def _same(value, ctx=None):
    return value


def _grid_from_json(data, ctx=None) -> GridSpec:
    """A spec string, or the ascending point list of schema 3 and earlier:
    the spec from its first to its last point in steps of the least gap,
    which has the scanned spec's points (a 0 or 1 left out of a grid only
    widens gaps), so it equals that spec; an empty list is 1:1:1."""
    if isinstance(data, str):
        return GridSpec.parse(data)
    points = [Fraction(p) for p in data]
    gaps = [abs(b - a) for a, b in zip(points, points[1:])]
    grid = GridSpec(min(points, default=Fraction(1)), max(points, default=Fraction(1)),
                    min(gaps, default=0) or Fraction(1))
    if grid.size != len(points) or grid.points() != points:
        raise ValueError(f"grid points {data} are not a p-grid")
    return grid


def _codec(tp):
    """(encode(value), decode(data, ctx)) for values annotated `tp`."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is mpf or (origin is Union and mpf in args):    # Scalar, Optional[mpf]
        return scalar_to_json, scalar_from_json
    if origin is Union:                                   # Optional[T]
        (inner,) = (a for a in args if a is not type(None))
        enc, dec = _codec(inner)
        return (lambda v: None if v is None else enc(v),
                lambda d, ctx: None if d is None else dec(d, ctx))
    if tp is Fraction:
        return str, lambda d, ctx: Fraction(d)
    if tp is GridSpec:
        return str, _grid_from_json
    if tp in (int, float, bool, str):
        return _same, _same
    if origin is tuple and args[-1] is Ellipsis:
        enc, dec = _codec(args[0])
        return (lambda v: [enc(e) for e in v],
                lambda d, ctx: tuple(dec(e, ctx) for e in d))
    if origin is tuple:
        codecs = [_codec(a) for a in args]
        return (lambda v: [enc(e) for (enc, _), e in zip(codecs, v)],
                lambda d, ctx: tuple(dec(e, ctx) for (_, dec), e in zip(codecs, d)))
    if tp is ProbVector:
        return vector_to_json, _vector_from_json
    return _dataclass_codec(tp)


_built = {}


def _dataclass_codec(cls):
    if cls in _built:
        return _built[cls]
    hints = typing.get_type_hints(cls)
    fields = [(f.name, RENAMED.get(f.name, f.name), *_codec(hints[f.name]),
               f.default is not dataclasses.MISSING) for f in dataclasses.fields(cls)]
    summaries = {f.name for f in dataclasses.fields(cls) if f.metadata.get("summary")}
    derived = {f.name for f in dataclasses.fields(cls) if not f.init}
    if cls in ROWS:
        def encode(v):
            return [enc(getattr(v, name)) for name, _, enc, _, _ in fields]

        def decode(d, ctx):
            return cls(*[dec(e, ctx) for (_, _, _, dec, _), e in zip(fields, d)])
    else:
        def encode(v):
            return {key: enc(getattr(v, name)) for name, key, enc, _, _ in fields
                    if not (name in summaries and getattr(v, name) is None)}

        def decode(d, ctx):
            return cls(**{name: dec(d[key], ctx) for name, key, _, dec, has_default in fields
                          if name not in derived and (key in d or not has_default)})
    _built[cls] = encode, decode
    return encode, decode


_trumping_codec = _codec(TrumpingVerdict)
_thermo_codec = _codec(ThermoVerdict)


def trumping_verdict_to_json(v: TrumpingVerdict) -> dict:
    return _trumping_codec[0](v)


def trumping_verdict_from_json(data: dict, ctx: Context = DEFAULT_CONTEXT) -> TrumpingVerdict:
    return _trumping_codec[1](data, ctx)


def thermo_verdict_to_json(v: ThermoVerdict) -> dict:
    return _thermo_codec[0](v)


def thermo_verdict_from_json(data: dict, ctx: Context = DEFAULT_CONTEXT) -> ThermoVerdict:
    return _thermo_codec[1](data, ctx)
