"""The package root and the CLI import lazily: a name or a command loads only
the modules it uses, and every name still resolves to its home module's
object."""

import ast
import importlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import delpezzo
from delpezzo import cli, casework

#: The names the package root exports, by home module.
EXPORTS = {
    "lattice": [
        "CONFIGURATIONS", "GENERAL", "DivisorClass", "InternalFaultError", "QDivisorClass",
        "SurfaceConfiguration", "anticanonical_class", "canonical_class", "class_from_json",
        "class_to_json", "from_curve_basis", "get_configuration", "intersect", "parse_class_label",
        "riemann_roch_chi", "to_curve_basis",
    ],
    "curves": [
        "NegativeCurve", "incidence_graph", "minus_one_curves", "minus_two_curves", "ruling_classes",
    ],
    "cohomology": ["h0", "h0_with_trace", "is_effective", "find_half_anticanonical_pencils"],
    "contraction": ["SigmaClass", "mumford_pullback", "sigma_intersect", "singularity_types"],
    "symmetry": [
        "LatticeAutomorphism", "cremona_automorphism", "generate_group", "line_transitivity_report",
        "perm_automorphism", "same_family", "transport_cover_data",
    ],
    "covers": [
        "BidoubleData", "DoubleCoverScenario", "albanese_gate", "bidouble_invariants",
        "double_cover_invariants", "ramification_check", "surface_numerology",
    ],
    "casework": [
        "ConstraintSystem", "SolutionRow", "decompose_class", "diff_tables", "enumerate_table",
        "load_printed_table", "preimage_configuration_search",
    ],
}
NAMES = [(home, name) for home, names in EXPORTS.items() for name in names]
SUBMODULES = ["casework", "cli", "cohomology", "contraction", "covers", "curves", "exact", "lattice",
              "symmetry", "verify"]


def test_there_are_50_exported_names():
    assert len(NAMES) == len({name for _, name in NAMES}) == 50
    assert sorted(delpezzo.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("home, name", NAMES)
def test_name_resolves_to_its_home_object(home, name):
    assert name in delpezzo.__all__
    assert name in dir(delpezzo)
    assert getattr(delpezzo, name) is getattr(importlib.import_module(f"delpezzo.{home}"), name)


def test_resolved_name_is_cached_in_the_package_namespace():
    delpezzo.h0
    assert vars(delpezzo)["h0"] is delpezzo.cohomology.h0


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attribute(name):
    assert name in dir(delpezzo)
    assert getattr(delpezzo, name) is importlib.import_module(f"delpezzo.{name}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from delpezzo import *", namespace)
    for home, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"delpezzo.{home}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        delpezzo.no_such_name
    assert not hasattr(delpezzo, "no_such_name")
    with pytest.raises(ImportError):
        exec("from delpezzo import no_such_name", {})


def test_version_is_eager():
    assert vars(delpezzo)["__version__"] == "0.1.0"


def test_cli_table_cases_match_casework():
    assert cli.TABLE_CASES == casework.TABLE_CASES
    parser = cli._build_parser()
    for case in casework.TABLE_CASES:
        assert parser.parse_args(["tables", "--case", case]).case == case


# -- fresh interpreters --------------------------------------------------------

def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports this delpezzo package."""
    env = dict(os.environ)
    src = str(Path(delpezzo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env,
                          timeout=120)


LOADED = """
import sys
before = set(sys.modules)
{code}
print(" ".join(sorted(set(sys.modules) - before)))
"""


def loaded_by(code: str) -> set[str]:
    result = fresh_python(LOADED.format(code=code))
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_package_import_loads_no_submodule():
    loaded = loaded_by("import delpezzo")
    assert {m for m in loaded if m.startswith("delpezzo")} == {"delpezzo"}


def test_h0_query_loads_only_what_it_uses():
    loaded = loaded_by(
        "import contextlib, io, delpezzo.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert delpezzo.cli.run(['h0', '--class', 'l']) == 0"
    )
    assert {m for m in loaded if m.startswith("delpezzo")} == {
        "delpezzo", "delpezzo.cli", "delpezzo.lattice", "delpezzo.exact",
        "delpezzo.curves", "delpezzo.cohomology",
    }
    assert not loaded & {"json", "csv"}


def test_h0_query_loads_no_dataclasses_or_fractions():
    loaded = loaded_by(
        "import contextlib, io, delpezzo.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert delpezzo.cli.run(['h0', '--class', 'l']) == 0"
    )
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}


def test_decompose_query_loads_no_csv():
    loaded = loaded_by(
        "import contextlib, io, delpezzo.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert delpezzo.cli.run(['decompose', '--class', 'l-e4']) == 0"
    )
    assert "delpezzo.casework" in loaded
    assert "csv" not in loaded


def test_ruling_classes_load_no_cohomology():
    loaded = loaded_by(
        "from delpezzo.curves import ruling_classes\n"
        "from delpezzo.lattice import CONFIGURATIONS\n"
        "for cfg in CONFIGURATIONS.values():\n"
        "    ruling_classes(cfg, False), ruling_classes(cfg, True)"
    )
    assert "delpezzo.curves" in loaded
    assert "delpezzo.cohomology" not in loaded


@pytest.mark.parametrize("path", sorted(Path(delpezzo.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    """Every import in the package is relative or names a standard library
    module: the package is stdlib-only."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, node.lineno, name)


def names_read(tree: ast.AST) -> set[str]:
    """The names a module reads, in code and in annotations, quoted ones
    included."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        annotations = [getattr(node, key, None) for key in ("annotation", "returns")]
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    read |= names_read(ast.parse(text.value, mode="eval"))
    return read


PACKAGE = Path(delpezzo.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_every_imported_name_is_read(path):
    """Each name an import binds is read somewhere in its module; a
    `from __future__` import binds no name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = names_read(tree)
    unread = {name: line for name, line in bound.items() if name not in read}
    assert not unread, (path.name, unread)


def test_verify_import_loads_no_dataclasses():
    assert "dataclasses" not in loaded_by("import delpezzo.verify")


def scenario(name: str) -> str:
    return str(resources.files("delpezzo.data").joinpath(f"scenarios/{name}"))


#: Per subcommand, argument lists that together reach each output format.
COMMANDS = {
    "curves": [["curves", "--config", "P4", "--format", f] for f in ("text", "json", "csv")],
    "h0": [["h0", "--class", "2l-e1-e2", "--verbose", "--format", f] for f in ("text", "json")],
    "pullback": [["pullback", "--config", "P4", "--class", "l-e3-e4", "--format", f] for f in ("text", "json")],
    "orbits": [["orbits", "--format", f] for f in ("text", "json")],
    "transport": [
        ["transport", "--scenario", scenario("bidouble_burniat.json"), "--apply", "cremona:123",
         "--apply", "perm:1243", "--format", f]
        for f in ("text", "json")
    ],
    "cover": [["cover", "--scenario", scenario("cover_disjoint_minus4_pair.json"), "--format", f]
              for f in ("text", "json", "csv")],
    "tables": [["tables", "--case", "p4", "--format", f] for f in ("text", "json", "csv")],
    "decompose": [["decompose", "--class", "l-e4", "--parts", p] for p in ("lines", "rulings", "file:{parts}")],
    "verify": [["verify"], ["verify", "--format", "json"]],
}

RUN_ALL = """
import contextlib, io, json, sys
argvs = json.loads(sys.argv[1])
from delpezzo.cli import run
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    assert code == 0, (argv, code, err.getvalue())
"""


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_exits_zero_in_a_fresh_interpreter(command, tmp_path):
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([{"coeffs": [1, 0, 0, 0, -1]}]))
    argvs = [[a.format(parts=parts) for a in argv] for argv in COMMANDS[command]]
    result = fresh_python(RUN_ALL, json.dumps(argvs))
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_loads_no_dataclasses(command, tmp_path):
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([{"coeffs": [1, 0, 0, 0, -1]}]))
    argvs = [[a.format(parts=parts) for a in argv] for argv in COMMANDS[command]]
    loaded = loaded_by(
        "import contextlib, io\n"
        "from delpezzo.cli import run\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert run(argv) == 0, argv"
    )
    assert "delpezzo.cli" in loaded
    assert "dataclasses" not in loaded
