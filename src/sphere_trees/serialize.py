"""Canonical JSON encodings for every value the CLI reads or writes.

Scalars are reduced fraction strings "p/q" with positive q, written from each
scalar's integer triple; complex scalars are {"re", "im"} objects; points are
homogeneous {"u", "v"} pairs with the canonical representative (v = 1, or u = 1
for infinity).  Any spelling of a value reads; a point whose v is the canonical 1
is read from u alone.  Leaves are label strings and internal vertices integers;
where JSON forces string keys, an internal vertex id n is written "#n".  Labels
must not start with "#", the prefix of internal ids; no other prefix is reserved.

Output is canonicalized by sorted keys and a fixed layout, so identical values
serialize to identical bytes: exactly ``json.dumps(payload, sort_keys=True,
indent=2, ensure_ascii=False)`` plus a newline, written in one pass.  Edges and
rows are read in the order each tree stores them (``trees.sorted_edges``).

``KINDS`` is the one table of payload kinds: the keys that name each kind
and its reader.  ``detect_kind`` and ``READERS`` are read off it, so a new
kind is one row there.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring as _quote
from math import gcd
from typing import Any, Mapping, Optional

from .covers import Portrait, TreeCover
from .dynamics import DynSystem
from .errors import SchemaError
from .gaussian import GR_ONE, GaussianRational
from .laurent import LP_ZERO, LaurentMap, LaurentPoint, LaurentPoly
from .limits import CoverFamily, LaurentFamily, NumericConfigSequence, NumericTreeOfSpheres
from .moduli import MarkedSphere, TreeOfSpheres
from .projective import ProjPoint
from .rational import RationalMap
from .trees import AdmissibilityViolation, MarkedTree, Vertex, sorted_edges


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
    in one recursive pass and escapes strings with the C escaper.  A complex
    scalar, a plain dict of exactly "im" and "re" with plain str values, takes
    one put; a subclass, another key or another value type the general route.
    """
    out: list = []
    _write(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


# the children written inline, without a call to _write: those whose type is exactly str or int
_INLINE = {str: _quote, int: int.__repr__}


def _write(o: Any, nl: str, put) -> None:
    """Append the JSON text of o to put; nl is the newline and indent of o's line."""
    if type(o) is dict and len(o) == 2 and type(o.get("im")) is str and type(o.get("re")) is str:
        inner = nl + "  "  # a complex scalar, the commonest object, in one put
        put(f'{{{inner}"im": {_quote(o["im"])},{inner}"re": {_quote(o["re"])}{nl}}}')
    elif isinstance(o, str):
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


def witness_to_json(witness: Any) -> Any:
    """A domain error's witness as JSON data: sets sorted, keys as strings, and an
    admissibility violation as its four fields; any other object as its str."""
    if witness is None or isinstance(witness, (str, int, float, bool)):
        return witness
    if isinstance(witness, (list, tuple)):
        return [witness_to_json(w) for w in witness]
    if isinstance(witness, dict):
        return {str(k): witness_to_json(v) for k, v in witness.items()}
    if isinstance(witness, (set, frozenset)):
        return sorted(witness_to_json(w) if isinstance(w, (set, frozenset)) else str(w)
                      for w in witness)
    if isinstance(witness, AdmissibilityViolation):
        return {k: witness_to_json(getattr(witness, k))
                for k in ("condition", "detail", "partition", "block")}
    return str(witness)


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
    g, h = gcd(c.a, c.c), gcd(c.b, c.c)
    try:
        return {"re": f"{c.a // g}/{c.c // g}", "im": f"{c.b // h}/{c.c // h}"}
    except ValueError as exc:
        raise SchemaError("a result exceeds the int-to-str digit limit") from exc


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
    if not isinstance(obj, dict) or len(obj) != 2 or "re" not in obj or "im" not in obj:
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


# v as point_to_json writes it at every finite point
_V_ONE = {"re": "1/1", "im": "0/1"}


def point_from_json(obj: Any):
    """(u : v) for any spelling of u and v; the canonical v = 1 reads u alone."""
    if not isinstance(obj, dict) or len(obj) != 2 or "u" not in obj or "v" not in obj:
        raise SchemaError(f"points are {{'u', 'v'}} objects, got {obj!r}")
    try:
        if obj["v"] == _V_ONE:
            return ProjPoint(complex_from_json(obj["u"]), GR_ONE)
        return ProjPoint.ratio(_complex_triple(obj["u"]), _complex_triple(obj["v"]))
    except ValueError as exc:
        raise SchemaError(f"(0 : 0) is not a point: {obj!r}") from exc


# ---------------------------------------------------------------------------
# vertices


def check_label(x: Any) -> str:
    if not isinstance(x, str) or not x or x[0] == "#":
        raise SchemaError(f"labels are nonempty strings not starting with '#': {x!r}")
    return x


def _lists_exactly(obj: Any, labels) -> bool:
    """Whether obj is a list of exactly these labels, each once."""
    return isinstance(obj, list) and sorted(map(check_label, obj)) == sorted(labels)


def _once(items: list, what: str) -> frozenset:
    """A tree's list as a set, refused if an item repeats: it would name one vertex twice."""
    seen = frozenset(items)
    if len(seen) != len(items):
        raise SchemaError(f"a tree lists {what} twice")
    return seen


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
    return {
        "leaves": sorted(t.leaves),
        "internal": sorted(t.internal),
        "edges": [list(e) for e in sorted_edges(t)],
    }


def _listed(x: Any) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"a tree's leaves, internal vertices, edges and each edge are lists: {x!r}")
    return x


def tree_from_json(obj: Any, check: bool = True) -> MarkedTree:
    try:
        leaves = _once([check_label(x) for x in _listed(obj["leaves"])], "a leaf")
        internal = _once([int_from_json(v, "internal vertex") for v in _listed(obj["internal"])],
                         "an internal vertex")
        edges = _once([frozenset(map(vertex_from_json, _listed(e))) for e in _listed(obj["edges"])],
                      "an edge")
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed tree object: {exc}") from exc
    return (MarkedTree.make if check else MarkedTree)(leaves, internal, edges)


def tree_of_spheres_to_json(t: TreeOfSpheres) -> dict:
    return {**tree_to_json(t.shape), "marking": {
        vertex_to_key(v): {vertex_to_key(n): point_to_json(p) for n, p in row}
        for v, row in t.marking}}


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


def _labelled(obj: Any, key: str, read, what: str) -> dict:
    """obj[key] read label by label, once obj["labels"] lists exactly its labels."""
    try:
        items = {check_label(x): read(p) for x, p in obj[key].items()}
        listed = obj["labels"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed {what}: {exc}") from exc
    if not _lists_exactly(listed, items):
        raise SchemaError(f"'labels' must list exactly the labels of '{key}'")
    return items


def marked_sphere_from_json(obj: Any) -> MarkedSphere:
    return MarkedSphere.make(_labelled(obj, "points", point_from_json, "marked sphere"))


def embedding_to_json(e: Mapping) -> list:
    return [{"quad": [*t, x], "value": point_to_json(p)} for (t, x), p in sorted(e.items())]


# ---------------------------------------------------------------------------
# Laurent data


def laurent_poly_to_json(p: LaurentPoly) -> list:
    return [[e, complex_to_json(c)] for e, c in p.terms]


def _indexed(obj: Any, what: str, lo: int, hi: int, read) -> dict:
    """A [[index, value], ...] list as {index: read(value)}, each index an integer, at least
    lo, at most hi in absolute value, and listed once: a repeated one would be summed or dropped."""
    if not isinstance(obj, list):
        raise SchemaError(f"expected a [[{what}, value], ...] list: {obj!r}")
    out = {}
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"bad [{what}, value] entry: {item!r}")
        k = int_from_json(item[0], what)
        if abs(k) > hi:
            raise SchemaError(f"{what} {k} exceeds the bound {hi}")
        if k < lo:
            raise SchemaError(f"negative {what}: {k}")
        if k in out:
            raise SchemaError(f"{what} {k} is listed twice")
        out[k] = read(item[1])
    return out


def laurent_poly_from_json(obj: Any) -> LaurentPoly:
    return LaurentPoly.make(_indexed(obj, "Laurent exponent", -MAX_EXPONENT, MAX_EXPONENT,
                                     complex_from_json).items())


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
    return LaurentFamily.make(_labelled(obj, "paths", laurent_point_from_json, "Laurent family"))


def laurent_map_to_json(m: LaurentMap) -> dict:
    return {
        "num": [[i, laurent_poly_to_json(c)] for i, c in enumerate(m.num)],
        "den": [[i, laurent_poly_to_json(c)] for i, c in enumerate(m.den)],
    }


def laurent_map_from_json(obj: Any) -> LaurentMap:
    def side(rows):
        coeffs = _indexed(rows, "coefficient index", 0, MAX_MAP_DEGREE, laurent_poly_from_json)
        return [coeffs.get(i, LP_ZERO) for i in range(max(coeffs, default=-1) + 1)]

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
        ys, zs = obj["Y"], obj["Z"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed portrait: {exc}") from exc
    if not (_lists_exactly(ys, fmap) and _lists_exactly(zs, set(fmap.values()))):
        raise SchemaError("'Y' and 'Z' must list exactly the labels of 'F' and of its image")
    return Portrait.make(fmap, degmap, d)


def rational_map_to_json(f: RationalMap) -> dict:
    return {"num": [complex_to_json(c) for c in f.num],
            "den": [complex_to_json(c) for c in f.den]}


def rational_map_from_json(obj: Any) -> RationalMap:
    try:
        if not isinstance(obj["num"], list) or not isinstance(obj["den"], list):
            raise SchemaError("rational map sides are lists of coefficients")
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
        labels = obj["X"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed dynamical system: {exc}") from exc
    if not _lists_exactly(labels, dyn_tree.labels):
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
    return {**tree_to_json(t.shape), "marking": {
        vertex_to_key(v): {x: "inf" if z is None else [z.real, z.imag] for x, z in row}
        for v, row in t.marking}}


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
