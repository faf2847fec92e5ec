"""End-to-end CLI behavior on the shipped example files."""

from __future__ import annotations

import importlib
import json
import pathlib
import pkgutil
import re
import subprocess
import sys
import time

import pytest

from conftest import DATA_DIR, INF, pt, relabel_internal_ids
import sphere_trees
from sphere_trees import cli
from sphere_trees import serialize as ser
from sphere_trees.dynamics import DynSystem, dyn_membership
from sphere_trees.moduli import MarkedSphere
from test_covers import leafless_centre, swapped_cubic
from test_dynamics import dyn_z_squared, mismatch_cover, source_twisted
from test_limits import VANISHING_ROW_SNAPSHOTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
GOLDEN = ROOT / "tests" / "golden"


def run_cli(*args: str, hash_seed: str | None = None):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "sphere_trees.cli", *args],
        capture_output=True, text=True, env=env)


def data(name: str) -> str:
    return str(DATA_DIR / name)


class TestCommands:
    def test_validate_tree(self):
        r = run_cli("validate", data("star_tree.json"))
        assert r.returncode == 0
        assert json.loads(r.stdout) == {"ok": True}

    def test_limit_family(self):
        r = run_cli("limit", data("family_eps.json"))
        assert r.returncode == 0
        tree = json.loads(r.stdout)
        assert len(tree["internal"]) == 2

    def test_iso_false(self):
        r = run_cli("iso", data("star_spheres.json"), data("star_spheres_alt.json"))
        assert r.returncode == 0
        assert json.loads(r.stdout) == {"isomorphic": False}

    def test_iso_true_self(self):
        r = run_cli("iso", data("star_spheres.json"), data("star_spheres.json"))
        assert json.loads(r.stdout) == {"isomorphic": True}

    def test_embed(self):
        r = run_cli("embed", data("star_spheres.json"))
        assert r.returncode == 0
        assert len(json.loads(r.stdout)) == 24 * 4  # ordered triples x labels

    def test_project(self):
        r = run_cli("project", data("two_vertex_spheres.json"), "--labels", "1,3,4")
        assert r.returncode == 0
        assert json.loads(r.stdout)["leaves"] == ["1", "3", "4"]

    def test_reconstruct(self):
        r = run_cli("reconstruct", data("source_z2.json"), data("portrait_z2.json"))
        assert r.returncode == 0
        cover = json.loads(r.stdout)
        assert cover["maps"]["#0"]["num"][-1] == {"im": "0/1", "re": "1/1"}

    @pytest.mark.parametrize("make", [
        lambda: swapped_cubic("d3", "d4"), lambda: swapped_cubic("c2a", "d4"), leafless_centre,
    ], ids=["validation", "last_fiber", "leafless_centre"])
    def test_reconstruct_refusals(self, make, tmp_path):
        source, portrait = make()
        (tmp_path / "source.json").write_text(
            ser.canonical_dumps(ser.tree_of_spheres_to_json(source)))
        (tmp_path / "portrait.json").write_text(
            ser.canonical_dumps(ser.portrait_to_json(portrait)))
        r = run_cli("reconstruct", str(tmp_path / "source.json"), str(tmp_path / "portrait.json"))
        assert r.returncode == 1 and "Traceback" not in r.stderr
        assert json.loads(r.stdout)["error"] == "NotRealizable"

    def test_plumb_then_limit(self, tmp_path):
        r = run_cli("plumb", data("two_vertex_spheres.json"))
        assert r.returncode == 0
        fam = tmp_path / "fam.json"
        fam.write_text(r.stdout)
        r2 = run_cli("limit", str(fam))
        assert r2.returncode == 0
        assert len(json.loads(r2.stdout)["internal"]) == 2

    def test_sample(self):
        r = run_cli("sample", data("family_eps.json"), "--eps", "1/10")
        assert r.returncode == 0
        points = json.loads(r.stdout)["points"]
        assert points["4"]["u"]["re"] == "1/10"

    def test_compat(self):
        r = run_cli("compat", data("compat_sub.json"), data("two_vertex_spheres.json"))
        assert json.loads(r.stdout) == {"compatible": True}

    def test_dyn_member(self):
        r = run_cli("dyn-member", data("cover_dyn.json"), "--labels", "p0,p1,pinf")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["member"] is True and out["witness"] is not None

    def test_limit_cover(self):
        r = run_cli("limit-cover", data("cover_family_degenerate.json"))
        assert r.returncode == 0
        cover = json.loads(r.stdout)
        assert len(cover["source"]["internal"]) == 2

    @pytest.mark.parametrize("pair, conjugate", [
        (lambda: (dyn_z_squared(), dyn_z_squared()), True),
        (lambda: (dyn_z_squared(), relabel_internal_ids(dyn_z_squared())), True),
        (lambda: (dyn_z_squared(), source_twisted(dyn_z_squared())), True),
        (lambda: (mismatch_cover(2), mismatch_cover(3)), False),
    ], ids=["self", "permuted-ids", "twisted", "different-fiber"])
    def test_iso_on_dynamical_systems(self, tmp_path, pair, conjugate):
        paths = []
        for k, cover in enumerate(pair()):
            _, witness = dyn_membership(cover, ["p0", "p1", "pinf"])
            path = tmp_path / f"dyn{k}.json"
            path.write_text(json.dumps(ser.dyn_to_json(DynSystem(cover, witness))))
            paths.append(str(path))
        r = run_cli("iso", *paths)
        assert r.returncode == 0
        assert json.loads(r.stdout) == {"isomorphic": conjugate}

    def test_numeric_limit(self):
        r = run_cli("limit", data("numeric_sequence.json"),
                    "--tolerance", "1e-6", "--window", "5")
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["internal"]) == 2


class TestErrors:
    def test_missing_file(self):
        r = run_cli("validate", "no_such_file.json")
        assert r.returncode == 2

    @pytest.mark.parametrize("content", [None, bytes(range(128, 228))],
                             ids=["directory", "not-utf-8"])
    def test_unreadable_input_is_schema_error(self, tmp_path, content):
        path = tmp_path
        if content is not None:
            path = tmp_path / "binary.json"
            path.write_bytes(content)
        r = run_cli("validate", str(path))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith(f"schema error: cannot read {path}: ")

    @pytest.mark.parametrize("eps, message", [
        ("nan", "--eps must be a rational number: 'nan'"),
        ("1/0", "--eps must be a rational number: '1/0'"),
        ("0", "--eps must be positive"),
        ("-1", "--eps must be positive"),
    ], ids=["nan", "division-by-zero", "zero", "negative"])
    def test_bad_eps_is_usage_error(self, eps, message):
        r = run_cli("sample", data("family_eps.json"), "--eps", eps)
        assert (r.returncode, r.stdout) == (2, "")
        assert "Traceback" not in r.stderr
        assert r.stderr.endswith(f"error: argument --eps: {message}\n")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        r = run_cli("validate", str(bad))
        assert r.returncode == 2

    def test_domain_error_payload(self, tmp_path):
        # admissibility failure: non-admissible partitions cannot build a tree
        r = run_cli("dyn-member", data("cover_z2.json"), "--labels", "a0,a1,a2")
        assert r.returncode == 1
        payload = json.loads(r.stdout)
        assert payload["error"] == "NotASubset"

    def test_coincident_paths_name_their_labels(self, tmp_path):
        bad = tmp_path / "coincident.json"
        bad.write_text(coincident_family())
        r = run_cli("limit", str(bad))
        assert r.returncode == 1
        assert json.loads(r.stdout) == {"error": "InvalidFamily", "witness": ["2", "3"]}

    def test_underflowing_cross_ratio_is_refused(self, tmp_path):
        # a product of two brackets underflows to (0 : 0), though no two labels coincide
        seq = tmp_path / "vanishing_row.json"
        seq.write_text(json.dumps({
            "snapshots": [{x: "inf" if z is None else [z.real, z.imag] for x, z in snap.items()}
                          for snap in VANISHING_ROW_SNAPSHOTS],
            "eps": [1.0 / (k + 2) for k in range(len(VANISHING_ROW_SNAPSHOTS))]}))
        r = run_cli("limit", str(seq))
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert json.loads(r.stdout) == {"error": "NotStabilized", "witness": {
            "quadruple": ["a", "b", "c", "a"], "eps": 1.0 / 13}}

    def test_degree_one_portrait_is_rejected(self, tmp_path):
        # reconstruction accepts degree 1; validating a bare portrait does not
        portrait = tmp_path / "portrait_d1.json"
        portrait.write_text(json.dumps({"Y": ["a", "b", "c"], "Z": ["a", "b", "c"],
                                        "F": {"a": "a", "b": "b", "c": "c"},
                                        "deg": {"a": 1, "b": 1, "c": 1}, "d": 1}))
        r = run_cli("validate", str(portrait))
        assert r.returncode == 0
        assert json.loads(r.stdout) == {"ok": False, "violations": ["portrait degree d = 1 < 2"]}

    def test_non_integer_internal_vertex_is_schema_error(self, tmp_path):
        blob = json.loads((DATA_DIR / "star_tree.json").read_text())
        blob["internal"] = ["x"]
        bad = tmp_path / "bad_tree.json"
        bad.write_text(json.dumps(blob))
        r = run_cli("validate", str(bad))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("schema error:")

    @pytest.mark.parametrize("exponents, eps, reason", [
        # exact sampling would raise 3 to this power, then fail to print it
        ([2_000_000], "1/3", "exponent"),
        ([-2_000_000], "1/3", "exponent"),
        # within the exponent bound, but eps^1000 has 5,001 digits
        ([1000], "1/100000", "digit limit"),
        # eps^999 + eps^1000 at a 600-digit eps: refused before the sum is formed
        pytest.param([999, 1000], "1/" + "7" * 600, "digit limit", id="eps-of-600-digits"),
    ])
    def test_oversized_sample_is_schema_error(self, tmp_path, exponents, eps, reason):
        blob = json.loads((DATA_DIR / "family_eps.json").read_text())
        label = sorted(blob["paths"])[0]
        blob["paths"][label]["u"] += [[e, {"re": "1/1", "im": "0/1"}] for e in exponents]
        big = tmp_path / "big_family.json"
        big.write_text(json.dumps(blob))
        started = time.perf_counter()
        r = run_cli("sample", str(big), "--eps", eps)
        assert time.perf_counter() - started < 10
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("schema error:") and reason in r.stderr

    def test_oversized_map_degree_is_schema_error(self, tmp_path):
        blob = json.loads((DATA_DIR / "cover_family_degenerate.json").read_text())
        blob["map"]["num"].append([10 ** 9, [[0, {"re": "1/1", "im": "0/1"}]]])
        big = tmp_path / "big_map.json"
        big.write_text(json.dumps(blob))
        started = time.perf_counter()
        r = run_cli("limit-cover", str(big))
        assert time.perf_counter() - started < 10
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("schema error:") and "coefficient index" in r.stderr

    @pytest.mark.parametrize("command, name, refusal", [
        ("validate", "star_tree.json", "usage:"),  # argparse: only limit declares the flags
        ("limit", "family_eps.json", "schema error:"),  # limit on a Laurent family
    ])
    def test_numeric_flags_rejected_on_exact(self, command, name, refusal):
        r = run_cli(command, data(name), "--tolerance", "1e-3")
        assert r.returncode == 2
        assert r.stdout == "" and r.stderr.startswith(refusal)

    def test_validation_verdict_is_exit_zero(self, tmp_path):
        blob = json.loads((DATA_DIR / "star_tree.json").read_text())
        blob["edges"] = blob["edges"][:-1]
        bad = tmp_path / "bad_tree.json"
        bad.write_text(json.dumps(blob))
        r = run_cli("validate", str(bad))
        assert r.returncode == 0
        assert json.loads(r.stdout)["ok"] is False


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("validate", "star_tree.json"),
        ("embed", "star_spheres.json"),
        ("limit", "family_eps.json"),
        ("plumb", "two_vertex_spheres.json"),
        ("limit-cover", "cover_family_degenerate.json"),
    ])
    def test_byte_identical_runs(self, args):
        cmd = [args[0]] + [data(a) for a in args[1:]]
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_admissibility_witness_does_not_depend_on_the_hash_seed(self, tmp_path):
        # twelve identical snapshots cluster into partitions that are not admissible
        snapshot = {"0": [1.4748, -0.1571], "1": [-0.5147, -0.4711],
                    "2": [0.1192, -1.8655], "3": [-1.6374, 1.1766]}
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"snapshots": [snapshot] * 12,
                                   "eps": [1 / (k + 2) for k in range(12)]}))
        golden = GOLDEN / "limit_numeric_inadmissible_tolerance_0.8_window_5.out"
        for seed in ("1", "2"):
            r = run_cli("limit", str(seq), "--tolerance", "0.8", "--window", "5",
                        hash_seed=seed)
            assert r.returncode == 1
            assert r.stdout == golden.read_text()

    def test_tree_diagnostics_do_not_depend_on_the_hash_seed(self, tmp_path):
        # without its internal vertex every edge of the star leaves the vertex
        # set, and the tree's edges are a frozenset
        blob = json.loads((DATA_DIR / "star_tree.json").read_text())
        blob["internal"] = []
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(blob))
        golden = GOLDEN / "validate_star_tree_without_internal.out"
        for seed in ("1", "2"):
            r = run_cli("validate", str(tree), hash_seed=seed)
            assert r.returncode == 0
            assert r.stdout == golden.read_text()


def coincident_family() -> str:
    blob = json.loads((DATA_DIR / "family_eps.json").read_text())
    blob["paths"]["3"] = blob["paths"]["2"]  # infinity becomes the constant path 1
    return json.dumps(blob)


class TestOut:
    def test_out_holds_the_stdout_bytes(self, tmp_path):
        out = tmp_path / "limit.json"
        r = run_cli("limit", data("family_eps.json"), "--out", str(out))
        assert r.returncode == 0
        golden = GOLDEN / "limit_family_eps.out"
        assert out.read_bytes() == r.stdout.encode() == golden.read_bytes()

    @pytest.mark.parametrize("text, code", [
        (coincident_family, 1),
        (lambda: "{not json", 2),
    ], ids=["domain-error", "schema-error"])
    def test_failed_run_writes_no_file(self, tmp_path, text, code):
        family = tmp_path / "family.json"
        family.write_text(text())
        out = tmp_path / "limit.json"
        r = run_cli("limit", str(family), "--out", str(out))
        assert r.returncode == code
        assert not out.exists()

    def test_unwritable_out_is_schema_error(self, tmp_path):
        out = tmp_path / "missing" / "limit.json"
        r = run_cli("limit", data("family_eps.json"), "--out", str(out))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith(f"schema error: cannot write {out}: ")
        assert "Traceback" not in r.stderr


class TestRefusedKinds:
    @pytest.mark.parametrize("args, refusal", [
        (["validate", "numeric_sequence.json"], "validate does not handle 'numeric' payloads"),
        (["iso", "family_eps.json", "family_eps.json"],
         "iso does not handle 'family' payloads"),
        (["iso", "cover_family_degenerate.json", "cover_family_degenerate.json"],
         "iso does not handle 'cover_family' payloads"),
        (["iso", "portrait_z2.json", "portrait_z2.json"],
         "iso does not handle 'portrait' payloads"),
        (["iso", "marked_sphere.json", "marked_sphere.json"],
         "iso does not handle 'marked_sphere' payloads"),
        (["iso", "numeric_sequence.json", "numeric_sequence.json"],
         "iso does not handle 'numeric' payloads"),
        (["iso", "star_tree.json", "star_spheres.json"],
         "cannot compare 'tree' with 'tree_of_spheres'"),
        (["iso", "cover_z2.json", "dyn_z_squared.json"], "cannot compare 'cover' with 'dyn'"),
    ], ids=["validate-numeric", "iso-family", "iso-cover_family", "iso-portrait",
            "iso-marked_sphere", "iso-numeric", "iso-tree-tree_of_spheres", "iso-cover-dyn"])
    def test_refusal(self, tmp_path, args, refusal):
        # data/ ships no marked sphere
        sphere = tmp_path / "marked_sphere.json"
        sphere.write_text(ser.canonical_dumps(ser.marked_sphere_to_json(
            MarkedSphere.make({"a": pt(0), "b": pt(1), "c": INF}))))
        paths = [str(sphere) if a == sphere.name else data(a) for a in args[1:]]
        r = run_cli(args[0], *paths)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"schema error: {refusal}\n")


def readme_commands() -> set:
    """The subcommands README's command-line block runs."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return {line.split()[1] for line in block.splitlines() if line.startswith("sphere-trees ")}


def readme_modules() -> set:
    """The modules README's Layout block lists under src/sphere_trees/."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Layout", 1)[1].split("src/sphere_trees/\n", 1)[1].split("```", 1)[0]
    return {line.split()[0].removesuffix(".py") for line in block.splitlines()
            if line.startswith("  ") and line.split()[0].endswith(".py")}


class TestDocs:
    def test_readme_names_every_command(self):
        assert readme_commands() == set(cli.COMMANDS)

    def test_readme_layout_names_every_module(self):
        assert readme_modules() == {m.name for m in pkgutil.iter_modules(sphere_trees.__path__)}

    def test_readme_names_only_existing_code(self):
        # every backticked `module.name` whose module is a package module resolves
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        modules = {m.name for m in pkgutil.iter_modules(sphere_trees.__path__)}
        names = [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", text) if m in modules]
        assert names
        assert [f"{m}.{n}" for m, n in names
                if not hasattr(importlib.import_module(f"sphere_trees.{m}"), n)] == []

    @pytest.mark.parametrize("command", sorted(readme_commands()))
    def test_help(self, command):
        r = run_cli(command, "--help")
        assert r.returncode == 0 and r.stdout.startswith(f"usage: sphere-trees {command} ")
