"""The input contract: every CLI input ends in exit 0, exit 1 with an
{"error", "witness"} payload, or exit 2, and never in a traceback.

The sweep swaps single JSON values of the shipped ``data/`` files for values
of the wrong type or out of range, or deletes them, and runs every subcommand
that reads that kind of payload, in-process through ``cli.main``.  The
regression cases below it pin one input for each crash the sweep used to find.
Every command run here must also finish within ``CASE_SECONDS``; a case that
could also allocate without bound runs in a child process with a memory limit.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from conftest import DATA_DIR, random_marking, random_moebius, random_stable_shape
from sphere_trees import cli, limits
from sphere_trees import serialize as ser
from sphere_trees.errors import SchemaError
from sphere_trees.gaussian import gr
from sphere_trees.covers import Portrait
from sphere_trees.laurent import LP_ONE, LP_ZERO, LaurentMap, LaurentPoint, LaurentPoly
from sphere_trees.limits import CoverFamily, LaurentFamily, limit_tree
from sphere_trees.moduli import MarkedSphere, embed, sphere_as_tree
from sphere_trees.plumbing import plumb_family
from sphere_trees.projective import ProjPoint
from sphere_trees.rational import poly_mul

ZERO = {"re": "0/1", "im": "0/1"}
ONE = {"re": "1/1", "im": "0/1"}
ZERO_POINT = {"u": ZERO, "v": ZERO}
MUTANTS = [None, "x", 0, -1, [], {}, [[0]], ZERO_POINT, float("inf")]
DELETED = "<deleted>"  # a mutant that removes the key or list item instead
# Generous: every case here takes milliseconds, a small input that makes the
# program work for minutes is a finding.
CASE_SECONDS = 10.0


class CaseTimeout(BaseException):
    """A case ran past CASE_SECONDS.  Not an Exception, so the program's handlers let it
    through: a TimeoutError is an OSError, which ``cli._load`` turns into a schema error."""


def _time_out(signum, frame):
    raise CaseTimeout


def run_main(*args: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(args)``, run in-process.

    A real-time interval timer (``signal.setitimer(ITIMER_REAL)``) interrupts the command
    once it has run CASE_SECONDS, and the case fails: a hang stops there instead of
    stalling the suite.  The timer acts on this test process only, and it bounds time,
    not memory.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(args))
    except CaseTimeout:
        pytest.fail(f"{args} ran past {CASE_SECONDS} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


# The address space of a child case: an interpreter running a command needs well
# under 100 MiB, and a case past the limit fails with MemoryError in the child.
CHILD_MEMORY_BYTES = 512 << 20


def run_child(*argv: str) -> subprocess.CompletedProcess:
    """``argv`` as a child process, its address space capped at CHILD_MEMORY_BYTES by
    ``resource.setrlimit(RLIMIT_AS)`` in the child before it starts, and killed after
    CASE_SECONDS: a case that allocates without bound fails there, and the limit acts
    on that child only."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=CASE_SECONDS,
                              env={"PYTHONPATH": str(DATA_DIR.parent / "src")},
                              preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{argv} ran past {CASE_SECONDS} s")


def run_cli_child(*args: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m sphere_trees.cli args`` in `run_child`."""
    done = run_child(sys.executable, "-m", "sphere_trees.cli", *args)
    return done.returncode, done.stdout, done.stderr


def test_the_child_memory_limit_stops_an_allocation():
    done = run_child(sys.executable, "-c", f"bytearray({2 * CHILD_MEMORY_BYTES})")
    assert done.returncode == 1 and "MemoryError" in done.stderr
    assert resource.getrlimit(resource.RLIMIT_AS)[0] != CHILD_MEMORY_BYTES


def test_the_timer_stops_a_hang(monkeypatch):
    def hang(argv):
        while True:
            pass

    before = signal.getsignal(signal.SIGALRM)
    monkeypatch.setattr(cli, "main", hang)
    monkeypatch.setitem(globals(), "CASE_SECONDS", 0.05)
    with pytest.raises(pytest.fail.Exception, match="ran past 0.05 s"):
        run_main("validate", "hang.json")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def assert_contract(*args: str) -> int:
    code, out, _ = run_main(*args)
    assert code in (0, 1, 2), args
    if code == 1:
        assert set(json.loads(out)) == {"error", "witness"}, args
    return code


def data(name: str) -> str:
    return str(DATA_DIR / name)


def commands(kind: str, name: str, path: str) -> list[list[str]]:
    """Every subcommand that reads a payload of this kind, with path as that payload."""
    return {
        "tree": [["validate", path], ["iso", path, path]],
        "tree_of_spheres": [["validate", path], ["embed", path], ["iso", path, data(name)],
                            ["project", path, "--labels", "1,2,3"], ["plumb", path],
                            ["compat", path, data(name)], ["compat", data(name), path],
                            ["reconstruct", path, data("portrait_z2.json")]],
        "marked_sphere": [["validate", path]],
        "portrait": [["validate", path], ["reconstruct", data("source_z2.json"), path]],
        "cover": [["validate", path], ["iso", path, data(name)],
                  ["dyn-member", path, "--labels", "1,2,3"]],
        "dyn": [["validate", path], ["iso", path, path]],
        "family": [["validate", path], ["limit", path], ["sample", path, "--eps", "1/3"]],
        "cover_family": [["validate", path], ["limit-cover", path]],
        "numeric": [["limit", path]],
    }[kind]


def value_paths(obj, depth: int, prefix: tuple = ()):
    """Paths to depth 4, entering only the first two items of each list.

    The bound keeps the sweep short: the numeric sequence alone holds 91
    snapshots, and later items repeat the shape of the first.
    """
    yield prefix
    if depth == 0:
        return
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj[:2])
    else:
        return
    for key, value in items:
        yield from value_paths(value, depth - 1, prefix + (key,))


def mutated(obj, path: tuple, value):
    if not path:
        return copy.deepcopy(value)
    out = copy.deepcopy(obj)
    cur = out
    for key in path[:-1]:
        cur = cur[key]
    if value is DELETED:
        del cur[path[-1]]
    else:
        cur[path[-1]] = copy.deepcopy(value)
    return out


def write(tmp_path, blob, name: str = "input.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA_DIR.glob("*.json")))
def test_mutation_sweep(tmp_path, name):
    base = json.loads((DATA_DIR / name).read_text())
    kind = ser.detect_kind(base)
    path = str(tmp_path / "mutant.json")
    escaped = []
    for where in value_paths(base, 4):
        for value in MUTANTS + ([DELETED] if where else []):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(mutated(base, where, value), fh)
            for args in commands(kind, name, path):
                try:
                    assert_contract(*args)
                except Exception as exc:  # collect every escape, not only the first
                    escaped.append((where, value, args[0], f"{type(exc).__name__}: {exc}"))
    assert not escaped, escaped[:10]


# ---------------------------------------------------------------------------
# one regression case per crash the sweep found


def numeric_blob() -> dict:
    return json.loads((DATA_DIR / "numeric_sequence.json").read_text())


def cover_with_constant_map() -> dict:
    blob = json.loads((DATA_DIR / "cover_dyn.json").read_text())
    blob["maps"]["#0"]["num"] = []
    return blob


@pytest.mark.parametrize("parse, blob", [
    (ser.point_from_json, ZERO_POINT),
    (ser.rational_map_from_json, {"num": [ONE], "den": []}),
    (ser.laurent_map_from_json, {"num": [], "den": []}),
    (ser.laurent_map_from_json, [[0, []]]),
    (ser.tree_of_spheres_from_json,
     {"leaves": ["1", "2", "3"], "internal": [0], "edges": [["1", 0], ["2", 0], ["3", 0]],
      "marking": {"#0": None}}),
], ids=["zero-point", "zero-denominator", "zero-laurent-map", "laurent-map-not-object",
        "marking-row-not-object"])
def test_malformed_value_is_schema_error(parse, blob):
    with pytest.raises(SchemaError):
        parse(blob)


@pytest.mark.parametrize("value", [{}, {"0": ONE}, ONE], ids=["empty-object", "object", "coefficient"])
@pytest.mark.parametrize("side", ["num", "den"])
def test_rational_map_sides_are_lists(tmp_path, side, value):
    # "num": {} used to read as the empty list, so as the constant map 0
    blob = json.loads((DATA_DIR / "cover_z2.json").read_text())
    blob["maps"]["#0"][side] = value
    code, out, err = run_main("validate", write(tmp_path, blob))
    assert (code, out) == (2, "") and err == "schema error: rational map sides are lists of coefficients\n"


MINUS_ONE = {"re": "-1/1", "im": "0/1"}


@pytest.mark.parametrize("parse, blob, what", [
    (ser.laurent_poly_from_json, [[0, ONE], [0, MINUS_ONE]], "Laurent exponent 0"),
    (ser.laurent_poly_from_json, [[-3, ONE], [2, ONE], [-3, ONE]], "Laurent exponent -3"),
    (ser.laurent_map_from_json, {"num": [[1, [[0, ONE]]], [1, [[1, ONE]]]], "den": [[0, [[0, ONE]]]]},
     "coefficient index 1"),
], ids=["exponent-summing-to-zero", "exponent", "map-index"])
def test_repeated_key_in_laurent_data_is_schema_error(parse, blob, what):
    # exponents used to be summed, so [[0, 1], [0, -1]] read as 0, and of two equal
    # coefficient indices the later one was kept
    with pytest.raises(SchemaError, match=f"^{what} is listed twice$"):
        parse(blob)


@pytest.mark.parametrize("name, edit", [
    ("family_eps.json", lambda b: b["paths"]["4"]["u"].append(b["paths"]["4"]["u"][0])),
    ("cover_family_degenerate.json", lambda b: b["map"]["num"].append([2, [[1, ONE]]])),
], ids=["family-path", "cover-family-map"])
def test_repeated_key_in_a_laurent_payload_is_schema_error(tmp_path, name, edit):
    blob = json.loads((DATA_DIR / name).read_text())
    edit(blob)
    for args in commands(ser.detect_kind(blob), name, write(tmp_path, blob)):
        code, out, err = run_main(*args)
        assert (code, out) == (2, "") and "is listed twice" in err, args


@pytest.mark.parametrize("edit", [
    lambda b: b.update(snapshots=None),
    lambda b: b["eps"].__setitem__(0, "x"),
    lambda b: b["eps"].__setitem__(0, 10 ** 400),
    lambda b: b["snapshots"][0].__setitem__("1", ["x", 0]),
    lambda b: b["snapshots"][0].__setitem__("1", [None, 0]),
], ids=["snapshots-none", "eps-string", "eps-beyond-float",
        "coordinate-string", "coordinate-null"])
def test_malformed_numeric_sequence_is_schema_error(tmp_path, edit):
    blob = numeric_blob()
    edit(blob)
    code, _, err = run_main("limit", write(tmp_path, blob))
    assert code == 2 and err.startswith("schema error:")


# snapshot 5 is read by no ladder and snapshot 90, the smallest eps, by ladder 0: make
# checks every snapshot, and not only those numeric_limit_tree normalizes
NON_FINITE_COORDINATES = [(i, value) for i in (5, 90) for value in (
    [float("nan"), 0.0], [0.0, float("inf")], [1.7e308, 1.7e308])]


@pytest.mark.parametrize("edit, args", [
    (None, ["--tolerance", "nan"]),
    (None, ["--tolerance", "inf"]),
    (lambda b: b["eps"].__setitem__(3, float("nan")), []),
    (lambda b: b["eps"].__setitem__(3, float("inf")), []),
] + [(lambda b, i=i, value=value: b["snapshots"][i].__setitem__("1", value), [])
     for i, value in NON_FINITE_COORDINATES],
    ids=["tolerance-nan", "tolerance-inf", "eps-nan", "eps-inf", "coordinate-nan",
         "coordinate-inf", "modulus-beyond-float", "coordinate-nan-at-90", "coordinate-inf-at-90",
         "modulus-beyond-float-at-90"])
def test_non_finite_numeric_input_is_refused(tmp_path, edit, args):
    eps = numeric_blob()["eps"]
    read = {i for skip in range(5) for i in limits._ladder_nodes(eps, skip)}
    assert 5 not in read and 90 in read
    blob = numeric_blob()
    if edit is not None:
        edit(blob)
    code, out, _ = run_main("limit", write(tmp_path, blob), *args)
    assert code == 1 and json.loads(out)["error"] == "InvalidFamily"


def test_iso_on_constant_vertex_map_is_domain_error(tmp_path):
    path = write(tmp_path, cover_with_constant_map())
    code, out, _ = run_main("iso", path, path)
    assert code == 1 and json.loads(out)["error"] == "InvalidFamily"


def star_of_spheres(n: int) -> dict:
    """One sphere with n labels at 0, 1, ..., n - 2 and infinity."""
    points = {f"x{k:02d}": ProjPoint.of(gr(k)) for k in range(n - 1)}
    points["xinf"] = ProjPoint.infinity()
    return ser.tree_of_spheres_to_json(sphere_as_tree(MarkedSphere.make(points)))


def test_embed_above_the_label_bound_is_schema_error(tmp_path):
    n = cli.MAX_EMBED_LABELS + 1
    code, out, err = run_main("embed", write(tmp_path, star_of_spheres(n)))
    assert code == 2 and out == "" and err.startswith("schema error:")
    assert str(cli.MAX_EMBED_LABELS) in err
    # the in-process oracle is not bounded
    big = ser.tree_of_spheres_from_json(star_of_spheres(n))
    assert len(embed(big)) == 6 * comb(n, 3) * n
    # the bound admits every tree of spheres shipped in data/ and the n = 10
    # trees of the classify benchmark
    shipped = [json.loads(p.read_text()) for p in DATA_DIR.glob("*.json")]
    sizes = [len(blob["leaves"]) for blob in shipped
             if ser.detect_kind(blob) == "tree_of_spheres"]
    assert sizes and max(sizes + [10]) <= cli.MAX_EMBED_LABELS
    code, out, _ = run_main("embed", write(tmp_path, star_of_spheres(6)))
    assert code == 0 and len(json.loads(out)) == 6 * 20 * 6


def dense_map(degree: int) -> dict:
    """num_k = (k + 1)/(k + 2) for k = 0..degree, den = 1 + (1/7 + i) z^(degree - 1)."""
    def c(re: str, im: str = "0/1") -> dict:
        return {"re": re, "im": im}
    return {"num": [c(f"{k + 1}/{k + 2}") for k in range(degree + 1)],
            "den": [c("1/1")] + [c("0/1")] * (degree - 2) + [c("1/7", "1/1")]}


def test_dense_map_of_the_largest_degree_validates(tmp_path):
    # 4.6 KB; reducing the map once took minutes, when the Euclidean
    # remainders were not made monic.  run_main bounds the time.
    blob = json.loads((DATA_DIR / "cover_z2.json").read_text())
    blob["maps"]["#0"] = dense_map(ser.MAX_MAP_DEGREE)
    code, out, _ = run_main("validate", write(tmp_path, blob))
    assert code == 0 and json.loads(out)["ok"] is False


def test_root_of_the_largest_multiplicity_validates(tmp_path):
    # f = 1 + (z - 1/3)^64 and the edge point toward a3 moved to 1/3, over b1 = 1:
    # its local degree divides by (z - 1/3) 64 times, which ran for minutes
    # when the quotients were not reduced between divisions.
    def c(x: Fraction) -> dict:
        return {"re": f"{x.numerator}/{x.denominator}", "im": "0/1"}
    d, third = ser.MAX_MAP_DEGREE, Fraction(1, 3)
    num = [comb(d, k) * (-third) ** (d - k) + (k == 0) for k in range(d + 1)]
    blob = json.loads((DATA_DIR / "cover_z2.json").read_text())
    blob["maps"]["#0"] = {"num": [c(x) for x in num], "den": [ONE]}
    blob["source"]["marking"]["#0"]["a3"]["u"] = c(third)
    code, out, _ = run_main("validate", write(tmp_path, blob))
    violations = json.loads(out)["violations"]
    assert code == 0 and violations
    # 1/3 carries the whole fibre over b1
    assert not any("'a3'" in v or "over the point toward 'b1'" in v for v in violations)


@pytest.mark.parametrize("side", ["num", "den"])
@pytest.mark.parametrize("name", ["cover_z2.json", "dyn_z_squared.json"])
def test_map_above_the_degree_bound_is_schema_error(tmp_path, name, side):
    blob = json.loads((DATA_DIR / name).read_text())
    cover = blob.get("cover", blob)
    # degree MAX_MAP_DEGREE + 1: one entry more than the bound admits
    cover["maps"]["#0"][side] = [ONE] * (ser.MAX_MAP_DEGREE + 2)
    for args in commands(ser.detect_kind(blob), name, write(tmp_path, blob)):
        code, out, err = run_main(*args)
        assert code == 2 and out == "", args
        assert f"exceeds the bound {ser.MAX_MAP_DEGREE}" in err, args


def test_limit_cover_on_non_object_is_schema_error(tmp_path):
    code, _, err = run_main("limit-cover", write(tmp_path, [1, 2]))
    assert code == 2 and err.startswith("schema error:")


def cover_family_scaled(*ks: int) -> dict:
    """The shipped cover family with every map coefficient times the product of
    (1 - k eps), a unit of Q(i)(eps) that vanishes at eps = 1/k."""
    blob = json.loads((DATA_DIR / "cover_family_degenerate.json").read_text())
    factor = LaurentPoly.constant(gr(1))
    for k in ks:
        factor = factor * LaurentPoly.make([(0, gr(1)), (1, gr(-k))])
    m = ser.laurent_map_from_json(blob["map"])
    blob["map"] = ser.laurent_map_to_json(
        LaurentMap.make([c * factor for c in m.num], [c * factor for c in m.den]))
    return blob


@pytest.mark.parametrize("ks", [(7,), (7, 11, 13)], ids=["1-7eps", "1-7eps-1-11eps-1-13eps"])
def test_map_times_a_unit_keeps_its_limit(tmp_path, ks):
    # the map, and so the family, is the same over Q(i)(eps), whatever eps the unit kills
    path = write(tmp_path, cover_family_scaled(*ks))
    code, out, _ = run_main("limit-cover", path)
    assert code == 0
    assert out == run_main("limit-cover", data("cover_family_degenerate.json"))[1]
    code, out, _ = run_main("validate", path)
    assert code == 0 and json.loads(out) == {"ok": True}


def sparse_identity_family(digits: int) -> dict:
    """The identity on four labels whose path components each have two terms, at
    eps^-1000 and eps^1000, with Gaussian coefficients of `digits` digits."""
    rng = random.Random(digits)

    def part() -> LaurentPoly:
        return LaurentPoly.make([(e, gr(rng.randrange(10 ** (digits - 1), 10 ** digits),
                                        rng.randrange(10 ** (digits - 1), 10 ** digits)))
                                 for e in (-1000, 1000)])
    # not LaurentPoint.make, which would shift the exponents to 0 and 2000
    fam = LaurentFamily.make({x: LaurentPoint(part(), part()) for x in "abcd"})
    portrait = Portrait.make({x: x for x in "abcd"}, {x: 1 for x in "abcd"}, 1)
    identity = LaurentMap.make([LP_ZERO, LP_ONE], [LP_ONE])
    return ser.cover_family_to_json(CoverFamily(portrait, fam, fam, identity))


def test_limit_cover_of_a_sparse_family_is_fast(tmp_path):
    # a limit read over ints of (exponent spread x coefficient width) bits took 13 s
    started = time.perf_counter()
    code, out, _ = run_main("limit-cover", write(tmp_path, sparse_identity_family(40)))
    assert time.perf_counter() - started < 1.0
    assert code == 0 and json.loads(out)["vertex_map"]


def dense_family(d: int) -> dict:
    """A map of degree d whose 2(d + 1) coefficients are each c + c' eps^k, k <= 100, over
    paths 0, infinity and (j + 2 + i) + eps, j < d, and targets 0, infinity and 1: a valid
    portrait the map does not realize."""
    rng = random.Random(d)

    def coefficient() -> LaurentPoly:
        return LaurentPoly.make([(0, gr(rng.randint(-9, 9), rng.randint(-9, 9))),
                                 (rng.randint(1, 100), gr(rng.randint(1, 9), rng.randint(-9, 9)))])
    f = LaurentMap.make([coefficient() for _ in range(d + 1)], [coefficient() for _ in range(d + 1)])
    zero, inf = LaurentPoint.make(LP_ZERO, LP_ONE), LaurentPoint.make(LP_ONE, LP_ZERO)
    labels = [f"a{j:02d}" for j in range(d)]
    y = {"y0": zero, "yinf": inf}
    y.update((a, LaurentPoint.make(LaurentPoly.make([(0, gr(j + 2, 1)), (1, gr(1))]), LP_ONE))
             for j, a in enumerate(labels))
    z = LaurentFamily.make({"c0": zero, "cinf": inf, "c1": LaurentPoint.make(LP_ONE, LP_ONE)})
    portrait = Portrait.make({"y0": "c0", "yinf": "cinf", **dict.fromkeys(labels, "c1")},
                             {"y0": d, "yinf": d, **dict.fromkeys(labels, 1)}, d)
    return ser.cover_family_to_json(CoverFamily(portrait, LaurentFamily.make(y), z, f))


def test_a_dense_map_is_refused_fast(tmp_path):
    # a degree check that specialized the map at three sample eps, each reduced by a
    # Euclidean gcd, took 4.5 s here; the exact root order at 'a00' refuses it at once
    path = write(tmp_path, dense_family(24))
    message = "map family does not send the path of 'a00' to the path of F('a00')"
    for args, expected in [
            (("limit-cover", path), (1, {"error": "InvalidFamily", "witness": None})),
            (("validate", path), (0, {"ok": False, "violations": ["InvalidFamily: " + message]}))]:
        started = time.perf_counter()
        code, out, _ = run_main(*args)
        assert time.perf_counter() - started < 1.0, args
        assert (code, json.loads(out)) == expected, args


def wide_path_family(d: int) -> dict:
    """The shipped cover family with a map of degree d, each numerator coefficient of 3 terms
    and den = 1, and each source path (u : 1), u of 10 terms: exponents are distinct draws
    below 300, coefficients a/b + c i with a, b in 1..9 and c in -9..9."""
    rng = random.Random(d)

    def part(terms: int) -> LaurentPoly:
        return LaurentPoly.make([(e, gr(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                                        rng.randint(-9, 9))) for e in rng.sample(range(300), terms)])
    blob = json.loads((DATA_DIR / "cover_family_degenerate.json").read_text())
    blob["map"] = ser.laurent_map_to_json(LaurentMap.make([part(3) for _ in range(d + 1)], [LP_ONE]))
    blob["portrait"]["d"] = d
    blob["y_family"]["paths"] = {y: ser.laurent_point_to_json(LaurentPoint.make(part(10), LP_ONE))
                                 for y in blob["y_family"]["paths"]}
    return blob


@pytest.mark.parametrize("d", [32, 64])
def test_a_wide_family_of_high_degree_is_refused_fast(tmp_path, d):
    # its root orders took 4.7 s at degree 32 and 96 s at degree 64; the work estimate
    # refuses it once the payload is read
    path = write(tmp_path, wide_path_family(d))
    for command in ("validate", "limit-cover"):
        started = time.perf_counter()
        code, out, err = run_cli_child(command, path)
        assert time.perf_counter() - started < 1.0, command
        assert (code, out) == (2, ""), (command, err)
        assert f"exceeds the bound {limits.MAX_COVER_FAMILY_WORK}" in err, command


def test_a_wide_family_of_high_degree_is_refused_in_process():
    # CoverFamily.make itself checks the work estimate, before any form or root order:
    # built directly, the degree-32 family took 7.1 s in its root orders
    blob = wide_path_family(32)
    parts = (ser.portrait_from_json(blob["portrait"]), ser.family_from_json(blob["y_family"]),
             ser.family_from_json(blob["z_family"]), ser.laurent_map_from_json(blob["map"]))
    started = time.perf_counter()
    with pytest.raises(SchemaError, match=f"exceeds the bound {limits.MAX_COVER_FAMILY_WORK}$"):
        CoverFamily.make(*parts)
    assert time.perf_counter() - started < 1.0


def deep_root_family(d: int) -> dict:
    """The map (z - u)^d, u = 1/2 + (1 + i) eps, over source paths u and infinity of local
    degree d and u + 1 over 1: the root order at u takes d Horner passes.  Work estimate
    4 d^2; the portrait lacks d - 1 points over 1."""
    u = LaurentPoly.make([(0, gr(Fraction(1, 2))), (1, gr(1, 1))])
    num = [LP_ONE]
    for _ in range(d):
        num = poly_mul(num, [-u, LP_ONE], LP_ZERO)
    zero, inf, one = (LaurentPoint.make(LP_ZERO, LP_ONE), LaurentPoint.make(LP_ONE, LP_ZERO),
                      LaurentPoint.make(LP_ONE, LP_ONE))
    y = LaurentFamily.make({"y0": LaurentPoint.make(u, LP_ONE), "yinf": inf,
                            "y1": LaurentPoint.make(u + LP_ONE, LP_ONE)})
    z = LaurentFamily.make({"c0": zero, "cinf": inf, "c1": one})
    portrait = Portrait.make({"y0": "c0", "yinf": "cinf", "y1": "c1"}, {"y0": d, "yinf": d, "y1": 1}, d)
    return ser.cover_family_to_json(CoverFamily(portrait, y, z, LaurentMap.make(num, [LP_ONE])))


@pytest.mark.parametrize("d, expected", [(48, 1), (64, 2)], ids=["inside", "outside"])
def test_the_work_bound_on_a_root_of_high_order(tmp_path, d, expected):
    # 9,216 is read, and its root orders, up to 48, all run; 16,384 is refused
    assert (4 * d * d <= limits.MAX_COVER_FAMILY_WORK) == (expected == 1)
    code, out, err = run_cli_child("limit-cover", write(tmp_path, deep_root_family(d)))
    assert code == expected, err
    if expected == 1:
        assert json.loads(out) == {"error": "NotRealizable", "witness": [
            f"fiber of 'c1' sums to 1, expected {d}"]}


@pytest.mark.parametrize("n", [64, 128])
def test_the_limit_of_a_large_twisted_family_in_a_capped_child(tmp_path, n):
    # label count, the first size in the sweep: a twisted plumbed family read, made
    # and assembled within CASE_SECONDS and the memory cap, byte for byte in-process
    rng = random.Random(f"size-sweep-{n}")
    fam = plumb_family(random_marking(random_stable_shape(n, rng), rng)).twist(random_moebius(rng))
    code, out, err = run_cli_child("limit", write(tmp_path, ser.family_to_json(fam)))
    assert code == 0, err
    assert out == ser.canonical_dumps(ser.tree_of_spheres_to_json(limit_tree(fam)))


def sparse_gap_family(coincident: bool) -> dict:
    """64 labels on the paths 1 + c_x eps^1000, c_x distinct, so every series shares 1000
    coefficients; with coincident, x47 takes the path of x31."""
    paths = {f"x{k:02d}": LaurentPoint.from_poly(LaurentPoly.make([(0, gr(1)), (1000, gr(k + 1, k % 5))]))
             for k in range(64)}
    if coincident:
        paths["x47"] = paths["x31"]
    return {"labels": sorted(paths), "paths": {x: ser.laurent_point_to_json(p) for x, p in paths.items()}}


@pytest.mark.parametrize("coincident", [False, True], ids=["distinct", "coincident-pair"])
def test_the_limit_of_paths_sharing_a_long_prefix_in_a_capped_child(tmp_path, coincident):
    # the trie reads every series to depth 1000, and a coincident pair's to depth 2000, within
    # CASE_SECONDS and the memory cap, byte for byte in-process
    path = write(tmp_path, sparse_gap_family(coincident))
    code, out, err = run_cli_child("limit", path)
    assert (code, out) == run_main("limit", path)[:2], err
    if coincident:
        assert code == 1 and json.loads(out) == {"error": "InvalidFamily", "witness": ["x31", "x47"]}
    else:
        fam = ser.family_from_json(sparse_gap_family(False))
        assert code == 0 and out == ser.canonical_dumps(ser.tree_of_spheres_to_json(limit_tree(fam)))


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                         ids=["integer-of-5000-digits", "array-nested-100000-deep"])
def test_json_beyond_the_reader_limits_is_schema_error(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_main("validate", str(path))
    assert (code, out) == (2, "") and err.startswith("schema error:")


@pytest.mark.parametrize("value", ["1e10000000", "-3E-3000000", "1e1_000_000", "1e4301"])
def test_decimal_exponent_beyond_the_bound_is_refused(tmp_path, value):
    # Fraction would expand 10^exponent exactly: 1e3000000 took 1.7 s, 1e10000000 12.8 s
    blob = json.loads((DATA_DIR / "star_spheres.json").read_text())
    blob["marking"]["#0"]["1"]["u"]["re"] = value
    sample = ["sample", data("family_eps.json"), f"--eps={value}"]
    for args in (["validate", write(tmp_path, blob)], sample):
        started = time.perf_counter()
        code, out, err = run_main(*args)
        assert time.perf_counter() - started < 1.0, args
        assert (code, out) == (2, "") and repr(value) in err, args
    blob["marking"]["#0"]["1"]["u"]["re"] = "5e-4300"  # within the bound
    assert run_main("validate", write(tmp_path, blob))[0] == 0


# ---------------------------------------------------------------------------
# internal vertex keys have one spelling, and labels are strings

OTHER_SPELLINGS = ["#00", "#+0", "# 0", "#0_0", "#-0", "#0 ", "#٠"]


@pytest.mark.parametrize("spelling", OTHER_SPELLINGS)
@pytest.mark.parametrize("name, where", [
    ("two_vertex_spheres.json", ["marking"]),
    ("two_vertex_spheres.json", ["marking", "#1"]),
    ("cover_z2.json", ["vertex_map"]),
    ("cover_z2.json", ["maps"]),
    ("cover_z2.json", ["source", "marking"]),
], ids=["marking", "marking-row", "vertex-map", "maps", "cover-source-marking"])
def test_vertex_key_spelled_twice_is_schema_error(tmp_path, name, where, spelling):
    # the spelling used to parse to vertex 0 as well, so the later of the two
    # rows silently replaced the earlier one
    blob = json.loads((DATA_DIR / name).read_text())
    table = blob
    for key in where:
        table = table[key]
    table[spelling] = copy.deepcopy(table["#0"])
    code, out, err = run_main("validate", write(tmp_path, blob))
    assert (code, out) == (2, "") and err.startswith("schema error:")
    assert repr(spelling) in err


@pytest.mark.parametrize("spelling", OTHER_SPELLINGS)
def test_vertex_key_spelled_otherwise_is_schema_error(tmp_path, spelling):
    blob = json.loads((DATA_DIR / "cover_z2.json").read_text())
    blob["vertex_map"]["#0"] = spelling
    code, out, err = run_main("validate", write(tmp_path, blob))
    assert (code, out) == (2, "") and repr(spelling) in err
    with pytest.raises(SchemaError, match="internal vertex keys are '#<id>'"):
        ser.vertex_from_key(spelling)


def test_negative_vertex_ids_keep_their_keys(tmp_path):
    text = (DATA_DIR / "two_vertex_spheres.json").read_text()
    blob = json.loads(text)
    blob["internal"] = [0, -1]
    blob["edges"] = [[-1 if v == 1 else v for v in e] for e in blob["edges"]]
    blob["marking"]["#-1"] = blob["marking"].pop("#1")
    blob["marking"]["#0"]["#-1"] = blob["marking"]["#0"].pop("#1")
    assert ser.vertex_from_key("#-1") == -1 and ser.vertex_to_key(-1) == "#-1"
    t = ser.tree_of_spheres_from_json(blob)
    assert t.shape.internal == {0, -1}
    dumped = ser.canonical_dumps(ser.tree_of_spheres_to_json(t))
    assert '"#-1"' in dumped and ser.tree_of_spheres_from_json(json.loads(dumped)) == t
    code, out, _ = run_main("validate", write(tmp_path, blob))
    assert code == 0 and json.loads(out) == {"ok": True}
    code, out, _ = run_main("iso", write(tmp_path, blob), data("two_vertex_spheres.json"))
    assert code == 0 and json.loads(out)["isomorphic"] is True


@pytest.mark.parametrize("label", [1, 1.5, None, True, ["1"], {"1": 1}])
def test_non_string_label_is_schema_error(tmp_path, label):
    blob = json.loads((DATA_DIR / "two_vertex_spheres.json").read_text())
    blob["leaves"] = [label if x == "1" else x for x in blob["leaves"]]
    blob["edges"] = [[label if v == "1" else v for v in e] for e in blob["edges"]]
    path = write(tmp_path, blob)
    for args in (["validate", path], ["embed", path], ["iso", path, path],
                 ["project", path, "--labels", "2,3,4"]):
        code, out, err = run_main(*args)
        assert (code, out) == (2, "") and err.startswith("schema error:"), args
    # a portrait's "Y" and "Z" used to go unread, so any value passed
    for key in ("Y", "Z"):
        portrait = json.loads((DATA_DIR / "portrait_z2.json").read_text())
        portrait[key][0] = label
        code, out, err = run_main("validate", write(tmp_path, portrait))
        assert (code, out) == (2, "") and err.startswith("schema error:"), key


@pytest.mark.parametrize("key, value", [
    ("Y", ["a0", "a1", "a2"]), ("Y", ["a0", "a1", "a2", "a3", "a9"]), ("Z", ["b0", "b1"]),
    ("Z", ["b0", "b1", "b2", "b2"]),
], ids=["Y-short", "Y-extra", "Z-short", "Z-repeated"])
def test_portrait_label_lists_match_its_map(tmp_path, key, value):
    portrait = json.loads((DATA_DIR / "portrait_z2.json").read_text())
    portrait[key] = value
    code, out, err = run_main("validate", write(tmp_path, portrait))
    assert (code, out) == (2, "") and "'Y' and 'Z' must list exactly" in err


def repeat_in_tree(blob, key):
    """blob with one entry of its tree list `key` repeated; an edge is repeated twice,
    once with its ends swapped."""
    if key == "edges":
        blob["edges"] += [blob["edges"][0], blob["edges"][0][::-1]]
    else:
        blob[key].append(blob[key][0])
    return blob


@pytest.mark.parametrize("key, what", [("leaves", "a leaf"), ("internal", "an internal vertex"),
                                       ("edges", "an edge")])
@pytest.mark.parametrize("name", ["two_vertex_tree.json", "two_vertex_spheres.json"])
def test_tree_lists_name_each_vertex_and_edge_once(tmp_path, name, key, what):
    # a repeat collapsed into the vertex and edge sets, so the payload validated
    blob = repeat_in_tree(json.loads((DATA_DIR / name).read_text()), key)
    code, out, err = run_main("validate", write(tmp_path, blob))
    assert (code, out) == (2, "") and f"a tree lists {what} twice" in err
    with pytest.raises(SchemaError, match=f"a tree lists {what} twice"):
        ser.tree_from_json(blob, check=False)


def test_tree_with_every_list_repeated_is_refused(tmp_path):
    blob = json.loads((DATA_DIR / "two_vertex_tree.json").read_text())
    blob["leaves"].append("3")
    blob["internal"].append(0)
    blob["edges"] += [["1", 0], [0, "1"]]
    code, out, err = run_main("validate", write(tmp_path, blob))
    assert (code, out) == (2, "") and "a tree lists a leaf twice" in err


def tree_list_as(blob, key, form):
    """blob with its tree list `key` (or, for "edge", its edge ["1", 0]) written in the
    JSON form `form` instead of a list."""
    if key == "edge":
        i = blob["edges"].index(["1", 0])
        blob["edges"][i] = "10" if form == "string" else {"1": 0}
    else:
        items = blob[key]
        blob[key] = ("".join(map(str, items)) if form == "string"
                     else {str(x): None for x in items})
    return blob


@pytest.mark.parametrize("key, form", [("leaves", "string"), ("leaves", "object"),
                                       ("internal", "string"), ("edges", "object"),
                                       ("edge", "string"), ("edge", "object")])
@pytest.mark.parametrize("name", ["two_vertex_tree.json", "two_vertex_spheres.json"])
def test_tree_lists_are_json_lists(tmp_path, name, key, form):
    # the reader iterated what it found: leaves "1234" read as four labels and the tree
    # validated, and an edge "10" read as the labels "1" and "0", so the payload was taken
    # for an invalid tree rather than refused as malformed
    blob = tree_list_as(json.loads((DATA_DIR / name).read_text()), key, form)
    code, out, err = run_main("validate", write(tmp_path, blob))
    assert (code, out) == (2, "") and "each edge are lists" in err
    with pytest.raises(SchemaError, match="each edge are lists"):
        ser.tree_from_json(blob, check=False)


@pytest.mark.parametrize("labels", [["bogus"], [], ["1", "2", "3", "4", "4"], ["1", "2", "3"],
                                    "1234"])
def test_family_labels_list_its_paths(tmp_path, labels):
    blob = json.loads((DATA_DIR / "family_eps.json").read_text())
    assert blob["labels"] == ["1", "2", "3", "4"]
    blob["labels"] = labels
    path = write(tmp_path, blob)
    for args in (["limit", path], ["sample", path, "--eps", "1/100"], ["validate", path]):
        code, out, err = run_main(*args)
        assert (code, out) == (2, "") and "'labels' must list exactly" in err, args
    cover_family = json.loads((DATA_DIR / "cover_family_degenerate.json").read_text())
    cover_family["y_family"]["labels"] = labels
    code, out, err = run_main("limit-cover", write(tmp_path, cover_family))
    assert (code, out) == (2, "") and "'labels' must list exactly" in err


@pytest.mark.parametrize("labels", [["zz"], ["1", "2", "3", "4", "4"], ["1", "2", "3"]])
def test_marked_sphere_labels_list_its_points(tmp_path, labels):
    code, out, _ = run_main("sample", data("family_eps.json"), "--eps", "1/100")
    blob = json.loads(out)
    assert code == 0 and blob["labels"] == ["1", "2", "3", "4"]
    code, out, _ = run_main("validate", write(tmp_path, blob))
    assert (code, json.loads(out)) == (0, {"ok": True})
    blob["labels"] = labels
    code, out, err = run_main("validate", write(tmp_path, blob))
    assert (code, out) == (2, "") and "'labels' must list exactly" in err


@pytest.mark.parametrize("labels", [["p0", "p1", "pinf", "p1"], ["p0", "p1"], "p0"])
def test_dyn_labels_list_its_tree_once(tmp_path, labels):
    blob = json.loads((DATA_DIR / "dyn_z_squared.json").read_text())
    blob["X"] = labels
    code, out, err = run_main("validate", write(tmp_path, blob))
    assert (code, out) == (2, "") and "'X' must list exactly" in err
