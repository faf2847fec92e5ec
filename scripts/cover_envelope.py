#!/usr/bin/env python3
"""Envelope of limit_cover: cost and output digests by degree and collision pattern.

For each cover degree d in {2, 4} and each prefix of one collision pattern
(see ``cover_family`` in bench/generators.py, whose seeded families of
M2 . z^d . M1^-1 this reads), builds a few families up to a bound on the
source label count, and the same families under a random eps-dependent
Moebius twist of source and target paths with the map conjugated to match,
so that the map itself degenerates.  Per row it prints the median CPU time
of limit_cover per item, plain and twisted, and for each the first 16 hex
digits of a sha256 over every item's outcome: the canonical ``cover_to_json``
dump of the limit, or a refusal's code and witness.  Equal digests before
and after a change show that limit_cover returned byte-identical covers at
those sizes.  The two last columns digest, plain and twisted, what the
covers bench does with each limit afterwards: its ``extract_portrait``, the
``cover_to_json`` dump of ``reconstruct_cover``, the ``validate_cover`` list
of the rebuilt cover and ``dyn_membership`` on ``identify_targets`` (from
bench/workloads.py) of the limit; a refusal's code and witness stand in for
the steps it stops.

Usage: python3 scripts/cover_envelope.py [max_source_labels] [items_per_row]
       e.g. python3 scripts/cover_envelope.py 34 3
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import generators as gen
from sphere_trees.covers import extract_portrait, reconstruct_cover, validate_cover
from sphere_trees.dynamics import dyn_membership
from sphere_trees.errors import SphereTreesError
from sphere_trees.gaussian import gr
from sphere_trees.laurent import LaurentMoebius, LaurentPoly
from sphere_trees.limits import CoverFamily, LaurentFamily, limit_cover
from sphere_trees.serialize import (
    canonical_dumps,
    cover_to_json,
    portrait_to_json,
    tree_of_spheres_to_json,
    witness_to_json,
)
from workloads import identify_targets

# fibre j collides with the fibres before it that share its centre (an index
# into generators.CENTRES; 0 is the critical value's centre)
PATTERN = (1, 1, 0, 2, 3, 2, 4, 1, 3, 0, 4, 2, 1, 3, 0, 4)
LENGTHS = (3, 4, 6, 8, 12, 16)


def random_twist(rng: random.Random) -> LaurentMoebius:
    """A Moebius family with entries a + b eps, a and b small Gaussian integers."""
    def entry() -> LaurentPoly:
        return LaurentPoly.make([(e, gr(rng.randint(-2, 2), rng.randint(-1, 1))) for e in (0, 1)])
    while True:
        try:
            return LaurentMoebius.make(entry(), entry(), entry(), entry())
        except ValueError:  # singular
            continue


def twisted(fam: CoverFamily, source: LaurentMoebius, target: LaurentMoebius) -> CoverFamily:
    """Source paths moved by `source`, target paths by `target`, the map conjugated."""
    f = fam.map_family.precompose(source.inverse()).postcompose(target)
    y = {x: source.apply(p) for x, p in fam.y_family.paths}
    z = {x: target.apply(p) for x, p in fam.z_family.paths}
    return CoverFamily.make(fam.portrait, LaurentFamily.make(y), LaurentFamily.make(z), f)


def run(fam: CoverFamily, digest, steps_digest) -> float:
    """limit_cover's CPU time on fam; its outcome goes into digest, and the
    outcomes of the steps after it into steps_digest."""
    started = time.process_time()
    try:
        limit = limit_cover(fam)
    except SphereTreesError as exc:
        outcome = {"error": exc.code, "witness": witness_to_json(exc.witness)}
        limit = None
    else:
        outcome = cover_to_json(limit)
    spent = time.process_time() - started
    digest.update(canonical_dumps(outcome).encode())
    if limit is not None:
        steps_digest.update(canonical_dumps(downstream(limit)).encode())
    return spent


def downstream(limit) -> dict:
    """Portrait, rebuilt cover, its violations and dynamical membership of a limit."""
    out: dict = {}
    try:
        portrait = extract_portrait(limit)
        out["portrait"] = portrait_to_json(portrait)
        rebuilt = reconstruct_cover(limit.source, portrait)
        out["rebuilt"] = cover_to_json(rebuilt)
        out["violations"] = validate_cover(rebuilt, portrait)
        dyn = identify_targets(limit)
        member, witness = dyn_membership(dyn, sorted(dyn.target.labels))
        out["member"] = [member, None if witness is None else tree_of_spheres_to_json(witness)]
    except SphereTreesError as exc:
        out["error"] = {"error": exc.code, "witness": witness_to_json(exc.witness)}
    return out


def main() -> None:
    max_labels = int(sys.argv[1]) if len(sys.argv) > 1 else 34
    items = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    print(f"{'d':>2} {'labels':>6} {'pattern':<17} {'plain':>9} {'sha256':>16} "
          f"{'twisted':>9} {'sha256':>16} {'plain-steps':>16} {'twisted-steps':>16}")
    for d in (2, 4):
        for length in LENGTHS:
            pattern = PATTERN[:length]
            if 2 + d * length > max_labels:
                break
            rng = random.Random(f"cover-envelope-{d}-{length}")
            row = [([], hashlib.sha256(), hashlib.sha256()) for _ in ("plain", "twisted")]
            for _ in range(items):
                fam = gen.cover_family(d, pattern, rng)
                for (times, digest, steps), f in zip(row, (fam, twisted(fam, random_twist(rng),
                                                                        random_twist(rng)))):
                    times.append(run(f, digest, steps))
            cells = " ".join(f"{f'{1000 * statistics.median(t):.1f} ms':>9} "
                             f"{h.hexdigest()[:16]:>16}" for t, h, _ in row)
            steps = " ".join(f"{s.hexdigest()[:16]:>16}" for _, _, s in row)
            print(f"{d:>2} {2 + d * length:>6} {''.join(map(str, pattern)):<17} {cells} {steps}")


if __name__ == "__main__":
    main()
