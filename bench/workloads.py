"""The four benchmark workloads: inputs, timed steps and oracle checks.

Each workload is a closed loop with one caller: an item's inputs are
generated, its timed steps run one after another, and its outputs are then
checked against an oracle already in the repository.  Generation and checks
are not timed; an item's latency is the sum of its timed steps.

Item ``i`` of a run is built from ``PLAN[i % len(PLAN)]``.  A run measures a
fixed amount of work, ``item_count(seconds)``: the whole number of PLAN cycles
nearest to ``seconds * RATE`` items, where ``RATE`` is about the loop's
speed in items per second on the reference machine (2 cores, Python 3.11);
so a run lasts about ``--seconds`` there, every run has the same item mix,
and the same seed and seconds always give the same items, the same output
digest and the same cache growth, whatever the speed of the code or the
host.  Each PLAN
and RATE are chosen so that the median and the tail fall inside a group of
items of similar cost, not in a gap between two groups, where they would
jump from seed to seed: ``degenerate`` and ``classify`` use one input size,
and ``numeric`` and ``covers`` repeat some strata (see their PLAN).  The traced
run uses ``TRACE_PLAN``, which spans every size, so the per-size spans show
how each layer scales.  ``WARMUP_PLAN`` holds small items for the warm-up.

A workload exposes ``make(stratum, rng, steps)`` for the inputs of one item,
``run(inputs, steps)`` for the timed steps, ``check(inputs, outputs)`` for
the oracle, ``output_json(outputs)`` for the bytes that enter the output
digest, ``cli_cases(rng, workdir)`` for its CLI commands, and ``REFUSALS``
for the raises it expects: (step prefix, predicate on inputs and exception)
pairs.  ``refused`` applies them; any other raise fails the run.  ``steps`` is
a ``Steps`` object from ``worker.py``: ``steps.call`` times one call into
the program, ``steps.untimed`` spans a call made while generating inputs.
"""

from __future__ import annotations

import itertools
import pathlib
import random

from sphere_trees import (
    NumericConfigSequence,
    canonical_form,
    cover_iso,
    dyn_membership,
    embed,
    extract_portrait,
    limit_cover,
    limit_tree,
    numeric_limit_tree,
    plumb_family,
    project,
    reconstruct_cover,
    spheres_iso,
    validate_cover,
)
from sphere_trees import serialize as ser
from sphere_trees.covers import TreeCover
from sphere_trees.errors import (
    AdmissibilityFailure,
    InconsistentClustering,
    NotRealizable,
    NotStabilized,
    SphereTreesError,
)
from sphere_trees.moduli import TreeOfSpheres, twist
from sphere_trees.trees import MarkedTree, tree_partitions

import generators as gen


class CheckFailed(Exception):
    """A returned result disagrees with its oracle."""


def refused(workload, inputs: dict, step: str, exc: Exception) -> bool:
    """Whether a raise at ``step`` is one the workload expects.

    Expected raises are counted as failed items and reported with their
    witnesses; any other raise is a defect that fails the run.
    """
    return any(step.startswith(prefix) and accept(inputs, exc)
               for prefix, accept in workload.REFUSALS)


def cli_case(workdir: pathlib.Path, argv: list, files: dict, compute) -> dict:
    """One CLI command on generated files, with its outcome computed in process.

    ``files`` maps file names used in ``argv`` to JSON payloads; the expected
    outcome is the canonical stdout of ``compute()``, or the code of the
    domain error it raises (the CLI then exits 1).
    """
    for name, payload in files.items():
        (workdir / name).write_text(ser.canonical_dumps(payload), encoding="utf-8")
    argv = [str(workdir / a) if a in files else a for a in argv]
    try:
        return {"argv": argv, "stdout": ser.canonical_dumps(compute()), "error": None}
    except SphereTreesError as exc:
        return {"argv": argv, "stdout": None, "error": exc.code}


def item_count(workload, seconds: float) -> int:
    """How many items a run of ``seconds`` measures: whole PLAN cycles."""
    cycle = len(workload.PLAN)
    return cycle * max(1, round(seconds * workload.RATE / cycle))


# The CLI's trees have the commonest number of internal vertices for their
# label count (n=6: 3, n=8: 5), so a CLI process does about the same work
# whatever the seed; with a random count, cli_p50_ms moved with it.
CLI_INTERNAL = {6: 3, 8: 5}


def plumbed(n: int, form: str, rng: random.Random, steps,
            internal: int | None = None) -> tuple:
    """A random tree and a plumbed family degenerating to it, in one form."""
    tree = gen.random_tree(n, rng, internal)
    fam = steps.untimed("plumbing.plumb", plumb_family, tree)
    if form == "twist":
        fam = fam.twist(gen.random_moebius(rng))
    elif form == "reparametrize":
        fam = fam.reparametrize(2)
    return tree, fam


# ---------------------------------------------------------------------------
# degenerate: exact limits of plumbed families


class Degenerate:
    name = "degenerate"
    FORMS = ("plain", "twist", "reparametrize")
    # The cost of limit_tree grows with the number of internal vertices,
    # which random insertion at n=12 spreads over 4..10, mostly 6..9.  Each
    # stratum fixes that count, so a run's item mix, and with it the median
    # and tail, does not change from seed to seed.
    PLAN = [(12, form, k) for k, form in itertools.product((6, 7, 8, 9), FORMS)]
    TRACE_PLAN = [(n, "plain", None) for n in (10, 12, 14, 16)] + [
        (12, "twist", None), (12, "reparametrize", None)]
    WARMUP_PLAN = [(8, "plain", None), (8, "twist", None)]
    RATE = 2.4
    REFUSALS = ()  # the limit of a plumbed family always exists

    def make(self, stratum: tuple, rng: random.Random, steps) -> dict:
        n, form, internal = stratum
        tree, fam = plumbed(n, form, rng, steps, internal)
        return {"size": f"n{n}", "form": form, "tree": tree, "family": fam}

    def run(self, inputs: dict, steps) -> dict:
        return {"limit": steps.call("limits.limit_tree", limit_tree, inputs["family"])}

    def check(self, inputs: dict, outputs: dict) -> None:
        if canonical_form(outputs["limit"]) != canonical_form(inputs["tree"]):
            raise CheckFailed("limit tree is not isomorphic to the plumbed tree")

    def output_json(self, outputs: dict) -> str:
        return ser.canonical_dumps(ser.tree_of_spheres_to_json(outputs["limit"]))

    def cli_cases(self, rng: random.Random, workdir: pathlib.Path) -> list[dict]:
        fam = plumb_family(gen.random_tree(6, rng, CLI_INTERNAL[6]))
        return [cli_case(workdir, ["limit", "family.json"],
                         {"family.json": ser.family_to_json(fam)},
                         lambda: ser.tree_of_spheres_to_json(limit_tree(fam)))]


# ---------------------------------------------------------------------------
# numeric: Bulirsch-Stoer limits of float snapshots


class Numeric:
    name = "numeric"
    # The cost of an item depends on n alone, so sizes can mix.  n=9 and n=11
    # run twice per eight items, so as many items cost less than the n=9
    # ones as cost more: the median falls in the middle of the n=9 items and
    # the tail (p79 of 48 items) inside the n=11 items, not in a gap between
    # sizes.  Over sixteen items every size appears plain and twisted.
    SIZES = (6, 7, 8, 9, 9, 10, 11, 11)
    FORMS = ("plain", "twist")
    PLAN = [(n, form) for form, n in itertools.product(FORMS, SIZES)]
    TRACE_PLAN = list(zip(range(6, 12), FORMS * 3))
    WARMUP_PLAN = [(6, "plain")]
    RATE = 3.2
    TOLERANCE = 1e-6
    WINDOW = 5
    # The numeric mode fails closed: it refuses with a typed error when the
    # quadruples do not settle (NotStabilized) or when the settled values do
    # not cluster into an admissible tree (InconsistentClustering,
    # AdmissibilityFailure).  Known defect: when two labels' float values
    # coincide in some snapshot, the degenerate cross-ratio (0, 0) reaches a
    # division and numeric_limit_tree raises ZeroDivisionError instead of
    # refusing; that raise is expected only on such snapshots.
    REFUSALS = (
        ("limits.numeric", lambda inputs, exc: isinstance(
            exc, (NotStabilized, InconsistentClustering, AdmissibilityFailure))),
        ("limits.numeric", lambda inputs, exc: isinstance(exc, ZeroDivisionError)
         and gen.coincident_labels(inputs["snapshots"]) is not None),
    )

    def make(self, stratum: tuple, rng: random.Random, steps) -> dict:
        n, form = stratum
        tree, fam = plumbed(n, form, rng, steps)
        snaps, eps = gen.snapshots(fam)
        return {"size": f"n{n}", "form": form, "tree": tree,
                "snapshots": snaps, "eps": eps}

    def run(self, inputs: dict, steps) -> dict:
        seq = steps.call("limits.numeric_sequence", NumericConfigSequence.make,
                         inputs["snapshots"], inputs["eps"],
                         self.TOLERANCE, self.WINDOW)
        return {"limit": steps.call("limits.numeric", numeric_limit_tree, seq)}

    def check(self, inputs: dict, outputs: dict) -> None:
        # Fail-closed: a returned numeric tree must have the exact partitions.
        if outputs["limit"].partitions() != tree_partitions(inputs["tree"].shape):
            raise CheckFailed("numeric limit returned a wrong partition set")

    def output_json(self, outputs: dict) -> str:
        return ser.canonical_dumps(ser.numeric_tree_to_json(outputs["limit"]))

    def cli_cases(self, rng: random.Random, workdir: pathlib.Path) -> list[dict]:
        snaps, eps = gen.snapshots(plumb_family(gen.random_tree(6, rng, CLI_INTERNAL[6])))
        payload = {"snapshots": [{x: "inf" if z is None else [z.real, z.imag]
                                  for x, z in snap.items()} for snap in snaps],
                   "eps": eps}

        def compute():
            seq = ser.numeric_sequence_from_json(payload, self.TOLERANCE, self.WINDOW)
            return ser.numeric_tree_to_json(numeric_limit_tree(seq))

        return [cli_case(workdir, ["limit", "sequence.json", "--tolerance",
                                   str(self.TOLERANCE), "--window", str(self.WINDOW)],
                         {"sequence.json": payload}, compute)]


# ---------------------------------------------------------------------------
# classify: parse, canonical forms, isomorphism and projection


class Classify:
    name = "classify"
    # Two items in nine re-query the base tree of an earlier item: parsed
    # again, it is equal to the earlier object, so the program's module-level
    # caches can hit.  The other items bring fresh trees.
    PLAN = [(10, "fresh")] * 4 + [(10, "requery")] + [(10, "fresh")] * 3 + [(10, "requery")]
    TRACE_PLAN = [(n, "fresh") for n in range(6, 13)] + [(10, "requery")]
    WARMUP_PLAN = [(6, "fresh")]
    RATE = 3.0
    REFUSALS = ()  # every step accepts any valid tree

    def __init__(self):
        self._bases: list[dict] = []

    def make(self, stratum: tuple, rng: random.Random, steps) -> dict:
        n, form = stratum
        if form == "requery" and self._bases:
            base_json = rng.choice(self._bases)
            base = ser.tree_of_spheres_from_json(base_json)
        else:
            base = gen.random_tree(n, rng)
            base_json = ser.tree_of_spheres_to_json(base)
            self._bases.append(base_json)
        n = len(base.labels)
        twists = [twist(base, {v: gen.random_moebius(rng) for v in base.shape.internal})
                  for _ in range(2)]
        other = gen.random_marking(base.shape, rng)
        sub = sorted(rng.sample(sorted(base.labels), max(3, n // 2)))
        payload = [base_json] + [ser.tree_of_spheres_to_json(t) for t in twists + [other]]
        return {"size": f"n{n}", "form": form, "payload": payload, "labels": sub}

    def run(self, inputs: dict, steps) -> dict:
        trees = [steps.call("serialize.parse", ser.tree_of_spheres_from_json, obj)
                 for obj in inputs["payload"]]
        canon = [steps.call("moduli.canonical", canonical_form, t) for t in trees]
        verdicts = [steps.call("moduli.iso", spheres_iso, trees[0], t)
                    for t in trees[1:]]
        projected = [steps.call("moduli.project", project, t, inputs["labels"])
                     for t in trees]
        text = steps.call("serialize.dump", ser.canonical_dumps, {
            "canonical": [ser.tree_of_spheres_to_json(t) for t in canon],
            "isomorphic": verdicts,
            "projected": [ser.tree_of_spheres_to_json(t) for t in projected],
        })
        return {"canonical": canon, "verdicts": verdicts, "projected": projected,
                "text": text}

    def check(self, inputs: dict, outputs: dict) -> None:
        canon, verdicts = outputs["canonical"], outputs["verdicts"]
        for i, verdict in enumerate(verdicts, start=1):
            if verdict != (canon[0] == canon[i]):
                raise CheckFailed(f"iso verdict {i} disagrees with canonical forms")
        if not (verdicts[0] and verdicts[1]):
            raise CheckFailed("a Moebius twist was not found isomorphic")
        proj = [canonical_form(t) for t in outputs["projected"][:3]]
        if proj[1] != proj[0] or proj[2] != proj[0]:
            raise CheckFailed("projections of a tree and its twists differ")

    def output_json(self, outputs: dict) -> str:
        return outputs["text"]

    def cli_cases(self, rng: random.Random, workdir: pathlib.Path) -> list[dict]:
        base = gen.random_tree(8, rng, CLI_INTERNAL[8])
        other = twist(base, {v: gen.random_moebius(rng) for v in base.shape.internal})
        files = {"base.json": ser.tree_of_spheres_to_json(base),
                 "twist.json": ser.tree_of_spheres_to_json(other)}
        sub = sorted(rng.sample(sorted(base.labels), 4))
        # An odd number of commands puts the median process inside one command.
        return [
            cli_case(workdir, ["validate", "base.json"], files, lambda: {"ok": True}),
            cli_case(workdir, ["validate", "twist.json"], files, lambda: {"ok": True}),
            cli_case(workdir, ["embed", "base.json"], files,
                     lambda: ser.embedding_to_json(embed(base))),
            cli_case(workdir, ["iso", "base.json", "twist.json"], files,
                     lambda: {"isomorphic": spheres_iso(base, other)}),
            cli_case(workdir, ["project", "base.json", "--labels", ",".join(sub)], files,
                     lambda: ser.tree_of_spheres_to_json(project(base, sub))),
        ]


# ---------------------------------------------------------------------------
# covers: limit, portrait, reconstruction, validation, dynamics


def identify_targets(cover: TreeCover) -> TreeCover:
    """Rename each target label to one of its source preimages.

    After the renaming the cover's source and target share their labels,
    which is how a dynamical system is marked.
    """
    vm = cover.vm
    rename = {}
    used: set = set()
    for z in sorted(cover.target.labels):
        pick = next(y for y in sorted(cover.source.labels)
                    if vm[y] == z and y not in used)
        rename[z] = pick
        used.add(pick)

    def rn(v):
        return rename.get(v, v) if isinstance(v, str) else v

    shape = cover.target.shape
    target = TreeOfSpheres.make(
        MarkedTree.make([rn(x) for x in shape.leaves], shape.internal,
                        [tuple(rn(v) for v in e) for e in shape.edges]),
        {v: {rn(n): p for n, p in cover.target.edge_points(v).items()}
         for v in shape.internal})
    return TreeCover.make(cover.source, target, {v: rn(w) for v, w in vm.items()},
                          dict(cover.maps))


class Covers:
    name = "covers"
    # (d, pattern): pattern[j] is the collision centre of fibre j (see
    # generators.cover_family), which fixes the limit shapes.  Source label
    # counts run from 8 to 16.  Three of the eight patterns give a source
    # chain deep enough to hit the known reconstruction defect (the sentinel
    # target label "@t" is reused at every recursion level), so
    # reconstruct_cover raises NotRealizable on them; they stay in the mix
    # and are counted as failed items with their witnesses.
    PATTERNS = [
        (2, (1, 1, 1, 2, 3)),     # 12 labels
        (4, (1, 1, 2)),           # 14 labels
        (2, (1, 1, 0, 2, 3)),     # 12 labels, deep chain
        (4, (0, 1, 2)),           # 14 labels
        (2, (0, 1, 2)),           # 8 labels
        (4, (1, 1, 0)),           # 14 labels, deep chain
        (2, (1, 1, 2, 3)),        # 10 labels
        (2, (1, 1, 2, 2, 0, 3, 4)),  # 16 labels, deep chain
    ]
    # The three d=4 patterns cost about the same and sit in the middle of
    # the cost range, with a gap below them.  Two of them run twice per ten
    # items, so the median, and the tail (p75 of 40 items), fall inside the
    # d=4 items rather than in a gap between patterns.
    PLAN = PATTERNS + [(4, (1, 1, 2)), (4, (0, 1, 2))]
    TRACE_PLAN = PATTERNS
    WARMUP_PLAN = [(2, (0, 1, 2))]
    RATE = 2.5
    # Only the known defect: reconstruct_cover's fibre sums see the reused
    # sentinel label "@t" in the witness.
    REFUSALS = (
        ("covers.reconstruct", lambda inputs, exc: isinstance(exc, NotRealizable)
         and "@t" in (exc.witness or {})),
    )

    def make(self, stratum: tuple, rng: random.Random, steps) -> dict:
        d, pattern = stratum
        fam = gen.cover_family(d, pattern, rng)
        return {"size": f"d{d}", "form": "".join(map(str, pattern)), "family": fam}

    def run(self, inputs: dict, steps) -> dict:
        fam = inputs["family"]
        out: dict = {}
        out["limit"] = steps.call("limits.limit_cover", limit_cover, fam)
        out["portrait"] = steps.call("covers.extract_portrait", extract_portrait,
                                     out["limit"])
        out["rebuilt"] = steps.call("covers.reconstruct", reconstruct_cover,
                                    out["limit"].source, out["portrait"])
        out["violations"] = steps.call("covers.validate", validate_cover,
                                       out["rebuilt"], out["portrait"])
        dyn = identify_targets(out["limit"])
        out["member"], _ = steps.call("dynamics.membership", dyn_membership,
                                      dyn, sorted(dyn.target.labels))
        return out

    def check(self, inputs: dict, outputs: dict) -> None:
        if outputs["portrait"] != inputs["family"].portrait:
            raise CheckFailed("extracted portrait differs from the family's")
        if outputs["violations"]:
            raise CheckFailed(f"rebuilt cover is invalid: {outputs['violations']}")
        try:
            iso = cover_iso(outputs["rebuilt"], outputs["limit"])
        except SphereTreesError as exc:
            raise CheckFailed(f"cover_iso refused the rebuilt cover: {exc.code}") from exc
        if not iso:
            raise CheckFailed("rebuilt cover is not isomorphic to the limit cover")

    def output_json(self, outputs: dict) -> str:
        return ser.canonical_dumps({
            "limit": ser.cover_to_json(outputs["limit"]),
            "rebuilt": ser.cover_to_json(outputs["rebuilt"]),
            "member": outputs["member"],
        })

    def cli_cases(self, rng: random.Random, workdir: pathlib.Path) -> list[dict]:
        fam = gen.cover_family(2, (0, 1, 2), rng)
        return [cli_case(workdir, ["limit-cover", "family.json"],
                         {"family.json": ser.cover_family_to_json(fam)},
                         lambda: ser.cover_to_json(limit_cover(fam)))]


WORKLOADS = {w.name: w for w in (Degenerate, Numeric, Classify, Covers)}
