"""Command-line front end with canonical, diff-stable JSON output.

Exit codes: 0 for results (including negative verdicts), 1 for domain
errors (reported as {"error": <code>, "witness": ...}), 2 for schema,
usage, and parse errors.  Only `limit` takes `--tolerance` and `--window`,
and only on a numeric sequence; `iso` on two dynamical systems decides
conjugacy.

Each command is one row of `COMMANDS`: its function, help, positional inputs
and options.  Every command also takes `--out <path>`, which writes the same
bytes as stdout.  A command function returns its payload, and `main` writes
it: `main` is the one writer of stdout.
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
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _dyn_violations(obj: Any) -> list[str]:
    dyn = ser.dyn_from_json(obj)
    return validate_cover(dyn.cover) or validate_dyn(dyn)


# validate's check for the kinds whose reader accepts a payload that breaks an
# invariant; the reader of every other kind refuses such a payload itself
_VIOLATIONS = {
    "tree": lambda obj: validate_tree(ser.tree_from_json(obj, check=False)),
    "portrait": lambda obj: validate_portrait(ser.portrait_from_json(obj)),
    "cover": lambda obj: validate_cover(ser.cover_from_json(obj)),
    "dyn": _dyn_violations,
}


def _cmd_validate(args) -> Any:
    obj = _load(args.input)
    kind = ser.detect_kind(obj)
    if kind not in ser.READERS:
        raise SchemaError(f"validate does not handle {kind!r} payloads")
    try:
        if kind in _VIOLATIONS:
            problems = _VIOLATIONS[kind](obj)
        else:
            ser.READERS[kind](obj)
            problems = []
    except SchemaError:
        raise
    except SphereTreesError as exc:
        problems = [f"{exc.code}: {exc}"]
    return {"ok": True} if not problems else {"ok": False, "violations": problems}


# Largest label count `embed` prints.  Its output has 6·C(n,3)·n values, about
# n^4: at n = 16 that is 12 MB and a 222 MiB peak, at n = 24 already 1.17 GiB.
# The in-process oracle `moduli.embed` is not bounded.
MAX_EMBED_LABELS = 16


def _cmd_embed(args) -> Any:
    t = ser.tree_of_spheres_from_json(_load(args.input))
    if len(t.labels) > MAX_EMBED_LABELS:
        raise SchemaError(f"embed takes at most {MAX_EMBED_LABELS} labels, got {len(t.labels)}")
    return ser.embedding_to_json(embed(t))


# iso's verdict per kind: isomorphism, or conjugacy for dynamical systems
_VERDICTS = {"tree": trees_isomorphic, "tree_of_spheres": spheres_iso,
             "cover": cover_iso, "dyn": dyn_conjugate}


def _cmd_iso(args) -> Any:
    a, b = _load(args.left), _load(args.right)
    ka, kb = ser.detect_kind(a), ser.detect_kind(b)
    if ka != kb:
        raise SchemaError(f"cannot compare {ka!r} with {kb!r}")
    if ka not in _VERDICTS:
        raise SchemaError(f"iso does not handle {ka!r} payloads")
    read = ser.READERS[ka]
    return {"isomorphic": _VERDICTS[ka](read(a), read(b))}


def _cmd_limit(args) -> Any:
    obj = _load(args.input)
    kind = ser.detect_kind(obj)
    if kind == "family":
        if args.tolerance is not None or args.window is not None:
            raise SchemaError("--tolerance and --window apply only to numeric input")
        return ser.tree_of_spheres_to_json(limit_tree(ser.family_from_json(obj)))
    if kind == "numeric":
        tolerance = 1e-6 if args.tolerance is None else args.tolerance
        window = 5 if args.window is None else args.window
        seq = ser.numeric_sequence_from_json(obj, tolerance, window)
        return ser.numeric_tree_to_json(numeric_limit_tree(seq))
    raise SchemaError("limit expects a Laurent family or a numeric sequence")


def _cmd_limit_cover(args) -> Any:
    return ser.cover_to_json(limit_cover(ser.cover_family_from_json(_load(args.input))))


def _cmd_project(args) -> Any:
    t = ser.tree_of_spheres_from_json(_load(args.input))
    return ser.tree_of_spheres_to_json(project(t, _parse_labels(args.labels)))


def _cmd_reconstruct(args) -> Any:
    source = ser.tree_of_spheres_from_json(_load(args.source))
    portrait = ser.portrait_from_json(_load(args.portrait))
    return ser.cover_to_json(reconstruct_cover(source, portrait))


def _cmd_plumb(args) -> Any:
    return ser.family_to_json(plumb_family(ser.tree_of_spheres_from_json(_load(args.input))))


def _cmd_sample(args) -> Any:
    fam = ser.family_from_json(_load(args.input))
    if args.eps is None:
        raise SchemaError("sample requires --eps")
    # a b-bit part of eps to the largest exponent E is >= 2^(E (b - 1)) > 10^(3 E (b - 1) / 10)
    top = max((abs(e) for _, p in fam.paths for part in (p.u, p.v) for e, _ in part.terms), default=0)
    bits = max(args.eps.numerator, args.eps.denominator).bit_length() - 1
    if 0 < 10 * sys.get_int_max_str_digits() <= 3 * top * bits:
        raise SchemaError(f"eps^{top} at this --eps exceeds the int-to-str digit limit")
    return ser.marked_sphere_to_json(fam.evaluate(args.eps))


def _cmd_compat(args) -> Any:
    tx = ser.tree_of_spheres_from_json(_load(args.left))
    ty = ser.tree_of_spheres_from_json(_load(args.right))
    return {"compatible": compatible(tx, ty)}


def _cmd_dyn_member(args) -> Any:
    cover = ser.cover_from_json(_load(args.input))
    verdict, witness = dyn_membership(cover, _parse_labels(args.labels))
    return {"member": verdict,
            "witness": ser.tree_of_spheres_to_json(witness) if witness else None}


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
        raise argparse.ArgumentTypeError(f"--eps must be a rational number: {raw!r}") from exc
    if eps <= 0:
        raise argparse.ArgumentTypeError("--eps must be positive")
    return eps


# name: (function, help, positional inputs, options); every command also takes --out
COMMANDS = {
    "validate": (_cmd_validate, "validate any payload, reporting violations", ["input"], {}),
    "embed": (_cmd_embed, "all quadruple chart values of a tree of spheres", ["input"], {}),
    "iso": (_cmd_iso, "isomorphism verdict for trees, marked trees, or covers;"
                      " conjugacy for dynamical systems", ["left", "right"], {}),
    "limit": (_cmd_limit, "limit tree of a Laurent family or numeric sequence", ["input"], {
        "--tolerance": {"type": float, "help": "numeric mode tolerance (default 1e-6)"},
        "--window": {"type": int, "help": "numeric mode stability window (default 5)"}}),
    "limit-cover": (_cmd_limit_cover, "limit of a degenerating cover family", ["input"], {}),
    "project": (_cmd_project, "restrict a tree of spheres to a sub-label-set", ["input"],
                {"--labels": {"help": "comma-separated label subset"}}),
    "reconstruct": (_cmd_reconstruct, "rebuild the cover from a source tree and portrait",
                    ["source", "portrait"], {}),
    "plumb": (_cmd_plumb, "degenerating family realizing a tree of spheres", ["input"], {}),
    "sample": (_cmd_sample, "evaluate a family at a positive rational eps", ["input"],
               {"--eps": {"type": _parse_eps}}),
    "compat": (_cmd_compat, "is the first tree the projection of the second",
               ["left", "right"], {}),
    "dyn-member": (_cmd_dyn_member, "does a cover underlie a dynamical system", ["input"],
                   {"--labels": {"help": "comma-separated dynamical label set"}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere-trees",
        description="Exact calculus of marked spheres, their degeneration trees, and covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, inputs, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in inputs:
            p.add_argument(arg)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", help="also write the canonical output to this path")
        p.set_defaults(func=func)
    return parser


_PARSER = build_parser()  # once per process: a build costs more than most commands


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        text = ser.canonical_dumps(args.func(args))
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise SchemaError(f"cannot write {args.out}: {exc}") from exc
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except SphereTreesError as exc:
        payload = {"error": exc.code, "witness": _jsonable(exc.witness)}
        sys.stdout.write(ser.canonical_dumps(payload))
        sys.stderr.write(f"{exc.code}: {exc}\n")
        return 1
    sys.stdout.write(text)
    return 0


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
