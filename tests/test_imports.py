"""The package's public names and the modules each `cobweb` process loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cobweb
from cobweb import Natural, construct_tiling

# The public names of the package, by the submodule that defines them.
EXPORTS = {
    "errors": [
        "CapExceeded", "CobwebError", "FamilySpecError", "LambdaRuleError",
        "NonIntegralCoefficient", "SearchBudgetExceeded", "TableRangeError",
        "TilingFormatError",
    ],
    "fsequence": [
        "CustomTable", "CustomTLambda", "Fp", "FSequence", "Gaussian", "LambdaPair",
        "ModifiedGaussian", "Natural", "Powers", "TLambdaAB", "composition",
        "is_cobweb_admissible", "lambda_composition", "lambda_composition_reversed",
        "lambda_split", "parse_family_spec", "term", "term_via_ones",
    ],
    "coefficients": [
        "check_fnomial_recurrence", "check_identities", "check_multi_recurrence",
        "f_factorial", "falling_f_factorial", "fnomial", "multi_fnomial",
    ],
    "geometry": [
        "Block", "Layer", "MultiShape", "PlainShape", "block_family", "blocks_disjoint",
        "build_layer", "iter_max_paths", "make_block", "point_to_path",
    ],
    "tiling": [
        "ChoiceStrategy", "Exhaustive", "LowestLabels", "Seeded", "Tiling",
        "construct_multi_tiling", "construct_tiling", "construction_census",
        "count_construction_tilings", "enumerate_all_tilings",
        "enumerate_construction_tilings", "tiling_from_json", "verify_tiling",
    ],
    "blockgraph": [
        "BlockGraph", "block_count_formula", "build_block_graph", "clique_to_tiling",
        "count_size_d_cliques", "enumerate_maximal_cliques", "enumerate_size_d_cliques",
        "find_clique", "tiling_to_clique", "to_dot",
    ],
}

SRC = str(Path(cobweb.__file__).resolve().parent.parent)
HEAVY = {"cobweb.tiling", "cobweb.blockgraph", "cobweb.geometry", "cobweb.render"}


class TestPublicNames:
    def test_every_name_is_its_submodules_attribute(self):
        assert sorted(cobweb.__all__) == sorted(n for names in EXPORTS.values() for n in names)
        for module, names in EXPORTS.items():
            submodule = importlib.import_module(f"cobweb.{module}")
            for name in names:
                assert getattr(cobweb, name) is getattr(submodule, name), name

    def test_star_import_and_dir(self):
        namespace: dict = {}
        exec("from cobweb import *", namespace)
        assert set(cobweb.__all__) <= set(namespace)
        assert set(cobweb.__all__) <= set(dir(cobweb))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cobweb.no_such_name
        with pytest.raises(ImportError):
            exec("from cobweb import no_such_name", {})


def loaded_modules(cwd, *argv):
    """Run `cobweb ARGV` in a fresh interpreter without `site` (so no `.pth`
    file imports anything first) and return the modules it loaded."""
    probe = ("import json, sys\n"
             "from cobweb.cli import main\n"
             "main(sys.argv[1:])\n"
             "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestImportBoundary:
    @pytest.mark.parametrize("argv", [
        ("seq", "fp:p=2", "--count", "8"),
        ("coeff", "gaussian:q=2", "9", "4", "--check-recurrence"),
        ("multicoeff", "natural", "6", "2,2,2"),
        ("admissible", "fp:p=2", "--max", "12"),
    ], ids=lambda argv: argv[0])
    def test_number_commands_load_no_layer_modules(self, tmp_path, argv):
        loaded = loaded_modules(tmp_path, *argv)
        assert "cobweb.fsequence" in loaded
        assert not loaded & HEAVY

    def test_verify_loads_no_block_graph(self, tmp_path):
        tiling = construct_tiling(Natural(), 2, 3).to_json_obj()
        (tmp_path / "t.json").write_text(json.dumps(tiling), encoding="utf-8")
        loaded = loaded_modules(tmp_path, "verify", "t.json")
        assert "cobweb.tiling" in loaded
        assert "cobweb.blockgraph" not in loaded

    @pytest.mark.parametrize("argv", [
        ("seq", "natural"),
        ("tile", "natural", "2", "4"),
        ("graph", "natural", "2", "3", "--find-clique"),
    ], ids=lambda argv: argv[0])
    def test_commands_load_no_dataclasses_inspect_or_typing(self, tmp_path, argv):
        # records are plain `__slots__` classes and annotations are lazy
        assert not loaded_modules(tmp_path, *argv) & {"dataclasses", "inspect", "typing"}

    def test_package_import_loads_no_submodule(self, tmp_path):
        # a submodule is still an attribute of the package, loaded on first use
        probe = ("import sys, cobweb\n"
                 "print(sorted(m for m in sys.modules if m.startswith('cobweb')))\n"
                 "print(cobweb.tiling.__name__)")
        proc = subprocess.run([sys.executable, "-S", "-c", probe], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "['cobweb']\ncobweb.tiling\n")
