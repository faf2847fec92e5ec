"""Canonical JSON encodings for every value the CLI reads or writes.

Scalars are reduced fraction strings "p/q" with positive q; complex scalars
are {"re", "im"} objects; points are homogeneous {"u", "v"} pairs with the
canonical representative (v = 1, or u = 1 for infinity).  Leaves appear as
label strings and internal vertices as integers; where JSON forces string
keys, an internal vertex id n is written "#n".  Labels must not start with
"#" or "@" (those prefixes are reserved for internal ids and cut leaves).

Output is canonicalized by sorted keys and a fixed layout, so identical
values serialize to identical bytes: exactly ``json.dumps(payload,
sort_keys=True, indent=2, ensure_ascii=False)`` plus a newline, written in
one pass.

``KINDS`` is the one table of payload kinds: the keys that name each kind
and its reader.  ``detect_kind`` and ``READERS`` are read off it, so a new
kind is one row there.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring as _quote
from typing import Any, Mapping, Optional

from .covers import Portrait, TreeCover
from .dynamics import DynSystem
from .errors import SchemaError
from .gaussian import GaussianRational
from .laurent import LP_ZERO, LaurentMap, LaurentPoint, LaurentPoly
from .limits import CoverFamily, LaurentFamily, NumericConfigSequence, NumericTreeOfSpheres
from .moduli import MarkedSphere, TreeOfSpheres
from .projective import ProjPoint
from .rational import RationalMap
from .trees import MarkedTree, Vertex, vertex_key


# Largest |exponent| of eps a parsed Laurent polynomial may carry.  Sampling
# at eps = p/q raises q to that power exactly, so a huge exponent runs long
# and then overflows the interpreter's int-to-str digit limit; the shipped
# data, the tests and the benchmark stay far below it.
MAX_EXPONENT = 1000

# Largest |exponent| of a decimal rational such as "25e-3", in a payload or --eps:
# Fraction expands 10 to it exactly, which takes seconds past a million, and a power
# past the default int-to-str digit limit, 4300, could not be printed in a result.
MAX_DECIMAL_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)\s*\Z")

# Largest coefficient index, that is map degree, a parsed Laurent or exact map
# may carry.  Every later step grows faster than the degree (reducing an exact
# map takes seconds at degree 64, minutes at 200); the shipped data and the
# benchmark use degree at most 4.
MAX_MAP_DEGREE = 64


def canonical_dumps(payload: Any) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``.

    CPython's C encoder does not indent, so json.dumps falls back to an
    encoder built from Python generators; this writer produces the same text
    in one recursive pass and escapes strings with the C escaper.
    """
    out: list = []
    _write(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


# the children written inline, without a call to _write: those whose type is exactly str or int
_INLINE = {str: _quote, int: int.__repr__}


def _write(o: Any, nl: str, put) -> None:
    """Append the JSON text of o to put; nl is the newline and indent of o's line."""
    if isinstance(o, str):
        put(_quote(o))
    elif isinstance(o, (list, tuple)) and o:
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            text = _INLINE.get(type(v))
            if text:
                put(sep + text(v))
            else:
                put(sep)
                _write(v, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(o, dict) and o:
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            head, text = f"{sep}{_quote(_json_key(k))}: ", _INLINE.get(type(v))
            if text:
                put(head + text(v))
            else:
                put(head)
                _write(v, inner, put)
            sep = "," + inner
        put(nl + "}")
    else:  # a number, bool, None or empty container: the C encoder writes it as json.dumps does
        put(json.dumps(o))


def _json_key(k: Any) -> str:
    """A dict key as json.dumps writes it: a string as it is, None, a bool or a
    number as its JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


# ---------------------------------------------------------------------------
# scalars and points


def fraction_to_json(f: Fraction) -> str:
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:
        raise SchemaError("a result exceeds the int-to-str digit limit") from exc


def parse_rational(text: str) -> Fraction:
    """Fraction(text), but a decimal exponent beyond MAX_DECIMAL_EXPONENT raises
    ValueError before Fraction expands it."""
    m = _DECIMAL_EXPONENT.search(text)
    digits = m[1].replace("_", "").lstrip("0") if m else ""
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}: {text!r}")
    return Fraction(text)


def fraction_from_json(s: Any) -> Fraction:
    try:
        return parse_rational(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational number: {s!r}") from exc


def int_from_json(x: Any, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{what} must be a JSON integer: {x!r}")
    return x


def float_from_json(x: Any, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"{what} must be a JSON number: {x!r}")
    try:
        return float(x)
    except OverflowError as exc:
        raise SchemaError(f"{what} is beyond the float range: {x!r}") from exc


def complex_to_json(c: GaussianRational) -> dict:
    return {"re": fraction_to_json(c.re), "im": fraction_to_json(c.im)}


def _canonical_fraction(s: Any) -> Optional[tuple[int, int]]:
    """(n, d) for a string "n/d" of ASCII digits, n with an optional "-" and d > 0;
    None for any other input, which then takes the ``fraction_from_json`` route."""
    if not isinstance(s, str) or not s.isascii():
        return None
    num, slash, den = s.partition("/")
    if not (slash and den.isdigit() and (num[1:] if num[:1] == "-" else num).isdigit()):
        return None
    try:
        n, d = int(num), int(den)
    except ValueError:  # beyond the int-to-str digit limit
        return None
    return (n, d) if d else None


def _complex_triple(obj: Any) -> tuple:
    """The scalar obj = n1/d1 + (n2/d2) i as the unreduced triple (n1 d2, n2 d1, d1 d2)."""
    if not isinstance(obj, dict) or obj.keys() != {"re", "im"}:
        raise SchemaError(f"complex scalars are {{'re', 'im'}} objects, got {obj!r}")
    re, im = _canonical_fraction(obj["re"]), _canonical_fraction(obj["im"])
    if re is None or im is None:
        re = fraction_from_json(obj["re"]).as_integer_ratio()
        im = fraction_from_json(obj["im"]).as_integer_ratio()
    return re[0] * im[1], im[0] * re[1], re[1] * im[1]


def complex_from_json(obj: Any) -> GaussianRational:
    return GaussianRational._raw(*_complex_triple(obj))


def point_to_json(p) -> dict:
    return {"u": complex_to_json(p.u), "v": complex_to_json(p.v)}


def point_from_json(obj: Any):
    if not isinstance(obj, dict) or set(obj) != {"u", "v"}:
        raise SchemaError(f"points are {{'u', 'v'}} objects, got {obj!r}")
    try:
        return ProjPoint.ratio(_complex_triple(obj["u"]), _complex_triple(obj["v"]))
    except ValueError as exc:
        raise SchemaError(f"(0 : 0) is not a point: {obj!r}") from exc


# ---------------------------------------------------------------------------
# vertices


def check_label(x: Any) -> str:
    if not isinstance(x, str) or not x or x[0] in "#@":
        raise SchemaError(f"labels are nonempty strings not starting with '#' or '@': {x!r}")
    return x


def vertex_from_json(obj: Any) -> Vertex:
    if isinstance(obj, bool) or not isinstance(obj, (str, int)):
        raise SchemaError(f"vertices are label strings or internal integers: {obj!r}")
    return check_label(obj) if isinstance(obj, str) else obj


def vertex_to_key(v: Vertex) -> str:
    return v if isinstance(v, str) else f"#{v}"


def vertex_from_key(s: Any) -> Vertex:
    if not isinstance(s, str) or not s:
        raise SchemaError(f"vertex keys are strings: {s!r}")
    if s.startswith("#"):
        try:
            v = int(s[1:])
        except ValueError:
            v = None
        # only the spelling vertex_to_key writes, so two keys never name one vertex
        if v is None or vertex_to_key(v) != s:
            raise SchemaError(f"bad internal vertex key: {s!r} (internal vertex keys are '#<id>')")
        return v
    return check_label(s)


# ---------------------------------------------------------------------------
# trees


def tree_to_json(t: MarkedTree) -> dict:
    edges = sorted(
        (sorted(e, key=vertex_key) for e in t.edges),
        key=lambda e: (vertex_key(e[0]), vertex_key(e[1])),
    )
    return {
        "leaves": sorted(t.leaves),
        "internal": sorted(t.internal),
        "edges": [list(e) for e in edges],
    }


def tree_from_json(obj: Any, check: bool = True) -> MarkedTree:
    try:
        leaves = [check_label(x) for x in obj["leaves"]]
        internal = [int_from_json(v, "internal vertex") for v in obj["internal"]]
        edges = [tuple(vertex_from_json(x) for x in e) for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed tree object: {exc}") from exc
    if check:
        return MarkedTree.make(leaves, internal, edges)
    return MarkedTree(frozenset(leaves), frozenset(internal),
                      frozenset(frozenset(e) for e in edges))


def tree_of_spheres_to_json(t: TreeOfSpheres) -> dict:
    out = tree_to_json(t.shape)
    out["marking"] = {
        vertex_to_key(v): {vertex_to_key(n): point_to_json(p) for n, p in row}
        for v, row in t.marking
    }
    return out


def tree_of_spheres_from_json(obj: Any) -> TreeOfSpheres:
    shape = tree_from_json(obj)
    if "marking" not in obj or not isinstance(obj["marking"], dict):
        raise SchemaError("tree of spheres requires a 'marking' object")
    marking = {}
    for vkey, row in obj["marking"].items():
        v = vertex_from_key(vkey)
        if not isinstance(v, int):
            raise SchemaError(f"marking keys are internal vertex keys: {vkey!r}")
        if not isinstance(row, dict):
            raise SchemaError(f"marking rows are objects: {row!r}")
        marking[v] = {vertex_from_key(n): point_from_json(p) for n, p in row.items()}
    return TreeOfSpheres.make(shape, marking)


def marked_sphere_to_json(s: MarkedSphere) -> dict:
    return {"labels": sorted(s.labels),
            "points": {x: point_to_json(p) for x, p in s.points}}


def marked_sphere_from_json(obj: Any) -> MarkedSphere:
    try:
        points = {check_label(x): point_from_json(p) for x, p in obj["points"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed marked sphere: {exc}") from exc
    return MarkedSphere.make(points)


def embedding_to_json(e: Mapping) -> list:
    return [{"quad": [*t, x], "value": point_to_json(p)} for (t, x), p in sorted(e.items())]


# ---------------------------------------------------------------------------
# Laurent data


def laurent_poly_to_json(p: LaurentPoly) -> list:
    return [[e, complex_to_json(c)] for e, c in p.terms]


def laurent_poly_from_json(obj: Any) -> LaurentPoly:
    if not isinstance(obj, list):
        raise SchemaError(f"Laurent polynomials are [[exp, coeff], ...] lists: {obj!r}")
    terms = []
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"bad Laurent term: {item!r}")
        e = int_from_json(item[0], "Laurent exponent")
        if abs(e) > MAX_EXPONENT:
            raise SchemaError(f"Laurent exponent {e} exceeds the bound {MAX_EXPONENT}")
        terms.append((e, complex_from_json(item[1])))
    return LaurentPoly.make(terms)


def laurent_point_to_json(p: LaurentPoint) -> dict:
    """The canonical components, shifted down to end at MAX_EXPONENT when they pass it."""
    k = min(0, MAX_EXPONENT - max(c.terms[-1][0] for c in (p.u, p.v) if c.terms))
    return {"u": laurent_poly_to_json(p.u.shift(k)), "v": laurent_poly_to_json(p.v.shift(k))}


def laurent_point_from_json(obj: Any) -> LaurentPoint:
    if not isinstance(obj, dict) or set(obj) != {"u", "v"}:
        raise SchemaError(f"Laurent points are {{'u', 'v'}} objects: {obj!r}")
    return LaurentPoint.make(laurent_poly_from_json(obj["u"]),
                             laurent_poly_from_json(obj["v"]))


def family_to_json(fam: LaurentFamily) -> dict:
    return {"labels": sorted(fam.labels),
            "paths": {x: laurent_point_to_json(p) for x, p in fam.paths}}


def family_from_json(obj: Any) -> LaurentFamily:
    try:
        paths = {check_label(x): laurent_point_from_json(p)
                 for x, p in obj["paths"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed Laurent family: {exc}") from exc
    return LaurentFamily.make(paths)


def laurent_map_to_json(m: LaurentMap) -> dict:
    return {
        "num": [[i, laurent_poly_to_json(c)] for i, c in enumerate(m.num)],
        "den": [[i, laurent_poly_to_json(c)] for i, c in enumerate(m.den)],
    }


def laurent_map_from_json(obj: Any) -> LaurentMap:
    def side(rows):
        if not isinstance(rows, list):
            raise SchemaError("Laurent map sides are [[degree, poly], ...] lists")
        coeffs = {}
        for item in rows:
            if not isinstance(item, list) or len(item) != 2:
                raise SchemaError(f"bad Laurent map coefficient: {item!r}")
            k = int_from_json(item[0], "coefficient index")
            if k < 0:
                raise SchemaError(f"negative coefficient index: {k}")
            if k > MAX_MAP_DEGREE:
                raise SchemaError(
                    f"coefficient index {k} exceeds the bound {MAX_MAP_DEGREE}")
            coeffs[k] = laurent_poly_from_json(item[1])
        top = max(coeffs, default=-1)
        return [coeffs.get(i, LP_ZERO) for i in range(top + 1)]

    try:
        num, den = side(obj["num"]), side(obj["den"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed Laurent map: {exc!r}") from exc
    if all(c.is_zero() for c in num + den):
        raise SchemaError("a Laurent map needs a nonzero coefficient")
    return LaurentMap.make(num, den)


# ---------------------------------------------------------------------------
# portraits, covers, dynamics


def portrait_to_json(p: Portrait) -> dict:
    return {
        "Y": sorted(p.y_labels),
        "Z": sorted(p.z_labels),
        "F": dict(p.fmap),
        "deg": dict(p.degmap),
        "d": p.d,
    }


def portrait_from_json(obj: Any) -> Portrait:
    try:
        fmap = {check_label(a): check_label(b) for a, b in obj["F"].items()}
        degmap = {check_label(a): int_from_json(k, "local degree")
                  for a, k in obj["deg"].items()}
        d = int_from_json(obj["d"], "degree")
        ys, zs = sorted(map(check_label, obj["Y"])), sorted(map(check_label, obj["Z"]))
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed portrait: {exc}") from exc
    if ys != sorted(fmap) or zs != sorted(set(fmap.values())):
        raise SchemaError("'Y' and 'Z' must list exactly the labels of 'F' and of its image")
    return Portrait.make(fmap, degmap, d)


def rational_map_to_json(f: RationalMap) -> dict:
    return {"num": [complex_to_json(c) for c in f.num],
            "den": [complex_to_json(c) for c in f.den]}


def rational_map_from_json(obj: Any) -> RationalMap:
    try:
        if (top := max(len(obj["num"]), len(obj["den"])) - 1) > MAX_MAP_DEGREE:
            raise SchemaError(f"coefficient index {top} exceeds the bound {MAX_MAP_DEGREE}")
        num = [complex_from_json(c) for c in obj["num"]]
        den = [complex_from_json(c) for c in obj["den"]]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed rational map: {exc}") from exc
    if all(c.is_zero() for c in den):
        raise SchemaError("a rational map needs a nonzero denominator")
    return RationalMap.make(num, den)


def cover_to_json(c: TreeCover) -> dict:
    return {
        "source": tree_of_spheres_to_json(c.source),
        "target": tree_of_spheres_to_json(c.target),
        "vertex_map": {vertex_to_key(a): vertex_to_key(b) for a, b in c.vertex_map},
        "maps": {vertex_to_key(v): rational_map_to_json(f) for v, f in c.maps},
    }


def cover_from_json(obj: Any) -> TreeCover:
    try:
        source = tree_of_spheres_from_json(obj["source"])
        target = tree_of_spheres_from_json(obj["target"])
        vertex_map = {vertex_from_key(a): vertex_from_key(b)
                      for a, b in obj["vertex_map"].items()}
        maps = {}
        for vkey, f in obj["maps"].items():
            v = vertex_from_key(vkey)
            if not isinstance(v, int):
                raise SchemaError(f"map keys are internal vertex keys: {vkey!r}")
            maps[v] = rational_map_from_json(f)
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed cover: {exc}") from exc
    return TreeCover.make(source, target, vertex_map, maps)


def cover_family_to_json(fam: CoverFamily) -> dict:
    return {
        "portrait": portrait_to_json(fam.portrait),
        "y_family": family_to_json(fam.y_family),
        "z_family": family_to_json(fam.z_family),
        "map": laurent_map_to_json(fam.map_family),
    }


def cover_family_from_json(obj: Any) -> CoverFamily:
    try:
        portrait = portrait_from_json(obj["portrait"])
        y_family = family_from_json(obj["y_family"])
        z_family = family_from_json(obj["z_family"])
        map_family = laurent_map_from_json(obj["map"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed cover family: {exc!r}") from exc
    return CoverFamily.make(portrait, y_family, z_family, map_family)


def dyn_to_json(d: DynSystem) -> dict:
    return {
        "cover": cover_to_json(d.cover),
        "X": sorted(d.labels),
        "dyn_tree": tree_of_spheres_to_json(d.dyn_tree),
    }


def dyn_from_json(obj: Any) -> DynSystem:
    try:
        cover = cover_from_json(obj["cover"])
        dyn_tree = tree_of_spheres_from_json(obj["dyn_tree"])
        labels = frozenset(check_label(x) for x in obj["X"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed dynamical system: {exc}") from exc
    if labels != dyn_tree.labels:
        raise SchemaError("'X' must list exactly the labels of the dynamical tree")
    return DynSystem(cover, dyn_tree)


# ---------------------------------------------------------------------------
# numeric mode


def numeric_sequence_from_json(obj: Any, tolerance: float, window: int
                               ) -> NumericConfigSequence:
    try:
        raw, eps = obj["snapshots"], obj["eps"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed numeric sequence: {exc}") from exc
    if not isinstance(raw, list) or not isinstance(eps, list):
        raise SchemaError("'snapshots' and 'eps' are lists")
    eps = [float_from_json(e, "eps value") for e in eps]
    snapshots = []
    for snap in raw:
        if not isinstance(snap, dict):
            raise SchemaError("snapshots are objects mapping labels to points")
        row = {}
        for x, value in snap.items():
            check_label(x)
            if value == "inf":
                row[x] = None
            elif isinstance(value, list) and len(value) == 2:
                row[x] = complex(*(float_from_json(c, "coordinate") for c in value))
            else:
                raise SchemaError(f"numeric points are [re, im] or \"inf\": {value!r}")
        snapshots.append(row)
    return NumericConfigSequence.make(snapshots, eps, tolerance, window)


def numeric_tree_to_json(t: NumericTreeOfSpheres) -> dict:
    out = tree_to_json(t.shape)
    out["marking"] = {
        vertex_to_key(v): {
            x: "inf" if z is None else [z.real, z.imag] for x, z in row
        }
        for v, row in t.marking
    }
    return out


# ---------------------------------------------------------------------------
# payload kinds


# (kind, the keys that name it, its reader), in the order detect_kind tries
# them.  A numeric sequence has no reader here: reading one takes the CLI's
# --tolerance and --window.
KINDS = [
    ("dyn", {"cover", "dyn_tree"}, dyn_from_json),
    ("cover", {"vertex_map"}, cover_from_json),
    ("cover_family", {"portrait", "map"}, cover_family_from_json),
    ("numeric", {"snapshots"}, None),
    ("family", {"paths"}, family_from_json),
    ("portrait", {"F", "deg"}, portrait_from_json),
    ("tree_of_spheres", {"marking"}, tree_of_spheres_from_json),
    ("marked_sphere", {"points"}, marked_sphere_from_json),
    ("tree", {"leaves"}, tree_from_json),
]
READERS = {kind: read for kind, _, read in KINDS if read is not None}


def detect_kind(obj: Any) -> str:
    """The first kind in KINDS whose keys the payload has."""
    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON payloads are objects")
    for kind, keys, _ in KINDS:
        if keys <= obj.keys():
            return kind
    raise SchemaError(f"unrecognized payload with keys {sorted(obj)}")
