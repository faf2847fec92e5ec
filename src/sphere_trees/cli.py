"""Command-line front end with canonical, diff-stable JSON output.

Exit codes: 0 for results (including negative verdicts), 1 for domain
errors (reported as {"error": <code>, "witness": ...}), 2 for schema,
usage, and parse errors.  Only `limit` takes `--tolerance` and `--window`,
and only on a numeric sequence; `iso` on two dynamical systems decides
conjugacy.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Optional

from . import serialize as ser
from .covers import cover_iso, reconstruct_cover, validate_cover, validate_portrait
from .dynamics import compatible, dyn_conjugate, dyn_membership, validate_dyn
from .errors import SchemaError, SphereTreesError
from .limits import limit_cover, limit_tree, numeric_limit_tree
from .moduli import embed, project, spheres_iso
from .plumbing import plumb_family
from .trees import AdmissibilityViolation, trees_isomorphic, validate_tree


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _emit(payload: Any, out: Optional[str]) -> None:
    text = ser.canonical_dumps(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _cmd_validate(args) -> int:
    obj = _load(args.input)
    kind = ser.detect_kind(obj)
    try:
        if kind == "tree":
            problems = validate_tree(ser.tree_from_json(obj, check=False))
        elif kind == "tree_of_spheres":
            ser.tree_of_spheres_from_json(obj)  # constructor enforces the invariants
            problems = []
        elif kind == "marked_sphere":
            ser.marked_sphere_from_json(obj)
            problems = []
        elif kind == "portrait":
            problems = validate_portrait(ser.portrait_from_json(obj))
        elif kind == "cover":
            problems = validate_cover(ser.cover_from_json(obj))
        elif kind == "dyn":
            dyn = ser.dyn_from_json(obj)
            problems = validate_cover(dyn.cover) or validate_dyn(dyn)
        elif kind == "family":
            ser.family_from_json(obj)
            problems = []
        elif kind == "cover_family":
            ser.cover_family_from_json(obj)
            problems = []
        else:
            raise SchemaError(f"validate does not handle {kind!r} payloads")
    except SchemaError:
        raise
    except SphereTreesError as exc:
        problems = [f"{exc.code}: {exc}"]
    _emit({"ok": not problems} if not problems else
          {"ok": False, "violations": problems}, args.out)
    return 0


# Largest label count `embed` prints.  Its output has 6·C(n,3)·n values, about
# n^4: at n = 16 that is 12 MB and a 222 MiB peak, at n = 24 already 1.17 GiB.
# The in-process oracle `moduli.embed` is not bounded.
MAX_EMBED_LABELS = 16


def _cmd_embed(args) -> int:
    t = ser.tree_of_spheres_from_json(_load(args.input))
    if len(t.labels) > MAX_EMBED_LABELS:
        raise SchemaError(f"embed takes at most {MAX_EMBED_LABELS} labels, got {len(t.labels)}")
    _emit(ser.embedding_to_json(embed(t)), args.out)
    return 0


def _cmd_iso(args) -> int:
    a, b = _load(args.left), _load(args.right)
    ka, kb = ser.detect_kind(a), ser.detect_kind(b)
    if ka != kb:
        raise SchemaError(f"cannot compare {ka!r} with {kb!r}")
    if ka == "tree":
        verdict = trees_isomorphic(ser.tree_from_json(a), ser.tree_from_json(b))
    elif ka == "tree_of_spheres":
        verdict = spheres_iso(ser.tree_of_spheres_from_json(a),
                              ser.tree_of_spheres_from_json(b))
    elif ka == "cover":
        verdict = cover_iso(ser.cover_from_json(a), ser.cover_from_json(b))
    elif ka == "dyn":
        verdict = dyn_conjugate(ser.dyn_from_json(a), ser.dyn_from_json(b))
    else:
        raise SchemaError(f"iso does not handle {ka!r} payloads")
    _emit({"isomorphic": verdict}, args.out)
    return 0


def _cmd_limit(args) -> int:
    obj = _load(args.input)
    kind = ser.detect_kind(obj)
    if kind == "family":
        if args.tolerance is not None or args.window is not None:
            raise SchemaError("--tolerance and --window apply only to numeric input")
        tree = limit_tree(ser.family_from_json(obj))
        _emit(ser.tree_of_spheres_to_json(tree), args.out)
    elif kind == "numeric":
        tolerance = 1e-6 if args.tolerance is None else args.tolerance
        window = 5 if args.window is None else args.window
        seq = ser.numeric_sequence_from_json(obj, tolerance, window)
        _emit(ser.numeric_tree_to_json(numeric_limit_tree(seq)), args.out)
    else:
        raise SchemaError("limit expects a Laurent family or a numeric sequence")
    return 0


def _cmd_limit_cover(args) -> int:
    fam = ser.cover_family_from_json(_load(args.input))
    _emit(ser.cover_to_json(limit_cover(fam)), args.out)
    return 0


def _cmd_project(args) -> int:
    t = ser.tree_of_spheres_from_json(_load(args.input))
    labels = _parse_labels(args.labels)
    _emit(ser.tree_of_spheres_to_json(project(t, labels)), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    source = ser.tree_of_spheres_from_json(_load(args.source))
    portrait = ser.portrait_from_json(_load(args.portrait))
    _emit(ser.cover_to_json(reconstruct_cover(source, portrait)), args.out)
    return 0


def _cmd_plumb(args) -> int:
    t = ser.tree_of_spheres_from_json(_load(args.input))
    _emit(ser.family_to_json(plumb_family(t)), args.out)
    return 0


def _cmd_sample(args) -> int:
    fam = ser.family_from_json(_load(args.input))
    if args.eps is None:
        raise SchemaError("sample requires --eps")
    # a b-bit part of eps to the largest exponent E is >= 2^(E (b - 1)) > 10^(3 E (b - 1) / 10)
    top = max((abs(e) for _, p in fam.paths for part in (p.u, p.v) for e, _ in part.terms), default=0)
    bits = max(args.eps.numerator, args.eps.denominator).bit_length() - 1
    if 0 < 10 * sys.get_int_max_str_digits() <= 3 * top * bits:
        raise SchemaError(f"eps^{top} at this --eps exceeds the int-to-str digit limit")
    sphere = fam.evaluate(args.eps)
    _emit(ser.marked_sphere_to_json(sphere), args.out)
    return 0


def _cmd_compat(args) -> int:
    tx = ser.tree_of_spheres_from_json(_load(args.left))
    ty = ser.tree_of_spheres_from_json(_load(args.right))
    _emit({"compatible": compatible(tx, ty)}, args.out)
    return 0


def _cmd_dyn_member(args) -> int:
    cover = ser.cover_from_json(_load(args.input))
    labels = _parse_labels(args.labels)
    verdict, witness = dyn_membership(cover, labels)
    payload = {"member": verdict,
               "witness": ser.tree_of_spheres_to_json(witness) if witness else None}
    _emit(payload, args.out)
    return 0


def _parse_labels(raw: Optional[str]) -> list[str]:
    if not raw:
        raise SchemaError("a comma-separated --labels list is required")
    labels = [x.strip() for x in raw.split(",") if x.strip()]
    for x in labels:
        ser.check_label(x)
    return labels


def _parse_eps(raw: str) -> Fraction:
    try:
        eps = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"--eps must be a rational number: {raw!r}") from exc
    if eps <= 0:
        raise SchemaError("--eps must be positive")
    return eps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere-trees",
        description="Exact calculus of marked spheres, their degeneration trees, and covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="also write the canonical output to this path")

    p = sub.add_parser("validate", help="validate any payload, reporting violations")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("embed", help="all quadruple chart values of a tree of spheres")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("iso", help="isomorphism verdict for trees, marked trees, or covers;"
                                   " conjugacy for dynamical systems")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("limit", help="limit tree of a Laurent family or numeric sequence")
    p.add_argument("input")
    p.add_argument("--tolerance", type=float, default=None,
                   help="numeric mode tolerance (default 1e-6)")
    p.add_argument("--window", type=int, default=None,
                   help="numeric mode stability window (default 5)")
    common(p)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("limit-cover", help="limit of a degenerating cover family")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_limit_cover)

    p = sub.add_parser("project", help="restrict a tree of spheres to a sub-label-set")
    p.add_argument("input")
    p.add_argument("--labels", help="comma-separated label subset")
    common(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("reconstruct", help="rebuild the cover from a source tree and portrait")
    p.add_argument("source")
    p.add_argument("portrait")
    common(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("plumb", help="degenerating family realizing a tree of spheres")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_plumb)

    p = sub.add_parser("sample", help="evaluate a family at a positive rational eps")
    p.add_argument("input")
    p.add_argument("--eps", type=_parse_eps, default=None)
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("compat", help="is the first tree the projection of the second")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("dyn-member", help="does a cover underlie a dynamical system")
    p.add_argument("input")
    p.add_argument("--labels", help="comma-separated dynamical label set")
    common(p)
    p.set_defaults(func=_cmd_dyn_member)

    return parser


_PARSER = build_parser()  # once per process: a build costs more than most commands


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except SphereTreesError as exc:
        payload = {"error": exc.code, "witness": _jsonable(exc.witness)}
        sys.stdout.write(ser.canonical_dumps(payload))
        sys.stderr.write(f"{exc.code}: {exc}\n")
        return 1


def _jsonable(witness) -> object:
    if witness is None or isinstance(witness, (str, int, float, bool)):
        return witness
    if isinstance(witness, (list, tuple)):
        return [_jsonable(w) for w in witness]
    if isinstance(witness, dict):
        return {str(k): _jsonable(v) for k, v in witness.items()}
    if isinstance(witness, (set, frozenset)):
        return sorted(_jsonable(w) if isinstance(w, (set, frozenset)) else str(w)
                      for w in witness)
    if isinstance(witness, AdmissibilityViolation):
        return {"condition": witness.condition, "detail": witness.detail,
                "partition": _jsonable(witness.partition), "block": _jsonable(witness.block)}
    return str(witness)


if __name__ == "__main__":
    sys.exit(main())
