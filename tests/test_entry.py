"""Process entry point and import contracts, each in a fresh interpreter."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homsensor
from homsensor import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURE_STACK = ROOT / "bench" / "fixtures" / "stack.json"
BUILTIN_SHA256 = any(importlib.util.find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))


def _python(*args, cwd=None):
    """Run a fresh interpreter with the package's sources on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _loaded_after(code):
    """The homsensor modules a fresh interpreter holds after `code`."""
    out = _python("-c", code + "\nimport sys; print(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'homsensor'))")
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def _entry(tmp_path, command, cfg):
    """python -m homsensor <command> on cfg; (process, output dir)."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "entry"
    return _python("-m", "homsensor", command, "--config", str(config),
                   "--out", str(out)), out


def test_module_entry_matches_in_process(tmp_path):
    """Auto-calibrated default spectrum: the same bytes either way."""
    proc, out = _entry(tmp_path, "spectrum", {})
    assert proc.returncode == 0, proc.stderr
    inproc = tmp_path / "inproc"
    assert cli.main(["spectrum", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(inproc)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["spectrum.csv", "spectrum_run.json"]
    assert names == sorted(p.name for p in inproc.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (inproc / name).read_bytes()


def test_module_entry_bad_config_exits_1(tmp_path):
    proc, out = _entry(tmp_path, "spectrum", {"n_s_grd": 1.3})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: unknown config keys")
    assert not out.exists()


def test_module_entry_calibration_failure_exits_2(tmp_path):
    proc, out = _entry(tmp_path, "spectrum",
                       {"calibration": {"target_ns": 1.0}})
    assert proc.returncode == 2
    assert "calibration failed: no balanced point" in proc.stderr
    assert not out.exists()


def test_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["homsensor"]
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_only_the_entry_point_freezes():
    """cli.main leaves the heap unfrozen for in-process callers; the
    entry point freezes what it imported before it runs the command,
    with the collector, which it turns off for the import, back on."""
    out = _python("-c", "import gc, sys\n"
                  "from homsensor import cli\n"
                  "from homsensor.__main__ import run\n"
                  "assert cli.main(['calibrate']) == 0\n"
                  "print(gc.get_freeze_count())\n"
                  "main = cli.main\n"
                  "def traced(*args):\n"
                  "    print('enabled', gc.isenabled())\n"
                  "    return main(*args)\n"
                  "cli.main = traced\n"
                  "sys.argv = ['homsensor', 'calibrate']\n"
                  "assert run() == 0\n"
                  "print(gc.get_freeze_count())\n")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[1] == "0"
    assert lines[2] == "enabled True"
    assert int(lines[4]) > 0


def test_cli_import_loads_every_traced_module():
    """bench/inprocess.py installs its tracer right after `import
    homsensor.cli`, indexing every module bench/tracer.py TRACED names."""
    out = _python("-c", "import sys\n"
                  "import homsensor.cli\n"
                  "loaded = {m.rsplit('.', 1)[-1] for m in sys.modules\n"
                  "          if m.startswith('homsensor.')}\n"
                  "sys.path.insert(0, 'bench')\n"
                  "from tracer import TRACED\n"
                  "print(sorted({m for m, _, _ in TRACED} - loaded))",
                  cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(not BUILTIN_SHA256,
                    reason="the interpreter has no built-in SHA-256")
def test_fisher_run_leaves_hashlib_unloaded(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"stack_path": str(FIXTURE_STACK),
                                  "phi_ab_policy": "scan"}))
    out = _python("-c", "import sys\n"
                  "from homsensor import cli\n"
                  "code = cli.main(['fisher', '--config', sys.argv[1], "
                  "'--out', sys.argv[2]])\n"
                  "print(code, '_hashlib' in sys.modules)",
                  str(config), str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"


def test_continuum_run_leaves_numpy_polynomial_unloaded(tmp_path):
    """The quadrature rule is built without numpy.polynomial."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"stack_path": str(FIXTURE_STACK),
                                  "n_s_grid": [1.30, 1.31]}))
    out = _python("-c", "import sys\n"
                  "from homsensor import cli\n"
                  "code = cli.main(['continuum', '--config', sys.argv[1], "
                  "'--out', sys.argv[2]])\n"
                  "print(code, 'numpy.polynomial' in sys.modules)",
                  str(config), str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"


def test_cli_import_leaves_dataclasses_unloaded():
    """The records are built without dataclasses' code generation."""
    out = _python("-c", "import sys, numpy\n"
                  "before = set(sys.modules)\n"
                  "import homsensor.cli\n"
                  "print(sorted(m for m in set(sys.modules) - before\n"
                  "             if m.split('.')[0] == 'dataclasses'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_loads_no_submodule():
    assert _loaded_after("import homsensor") == "['homsensor']"
    assert _loaded_after(
        "import homsensor; homsensor.load_stack(%r)" % str(FIXTURE_STACK)) \
        == str(["homsensor", "homsensor.errors", "homsensor.materials",
                "homsensor.records", "homsensor.tmm"])


def test_public_names_resolve():
    """Every __all__ name and submodule resolves lazily and is the owning
    module's object; `import *` binds them all; others raise."""
    out = _python("-c", "import importlib, homsensor\n"
                  "ns = {}\n"
                  "exec('from homsensor import *', ns)\n"
                  "bad = [n for n in homsensor.__all__ if ns.get(n) is not\n"
                  "       getattr(importlib.import_module('homsensor.' +\n"
                  "               homsensor._OWNER[n]), n)]\n"
                  "bad += [m for m in homsensor._EXPORTS if\n"
                  "        getattr(homsensor, m) is not\n"
                  "        importlib.import_module('homsensor.' + m)]\n"
                  "bad += sorted(set(homsensor.__all__) - set(dir(homsensor)))\n"
                  "try:\n"
                  "    homsensor.no_such_name\n"
                  "except AttributeError:\n"
                  "    print(len(homsensor.__all__), bad)\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "43 []"


def _references(module: ast.Module) -> set:
    """The names a module reads: every Name and Attribute, except those
    inside the top-level def or class that defines the same name."""
    used = set()
    for node in module.body:
        used |= {sub.id if isinstance(sub, ast.Name) else sub.attr
                 for sub in ast.walk(node)
                 if isinstance(sub, (ast.Name, ast.Attribute))} \
            - {getattr(node, "name", None)}
    return used


def test_every_export_has_a_user():
    """Each __all__ name is read by a library module other than
    __init__.py (docstrings do not count) or wrapped by bench/tracer.py
    TRACED, whose runs resolve it by name."""
    used = set()
    for path in (SRC / "homsensor").glob("*.py"):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {attribute.split(".")[0] for _, attribute, _ in tracer.TRACED}
    assert sorted(set(homsensor.__all__) - used - traced) == []


def _json_uses(functions):
    """(module, top-level name) of each json.<function> in src/homsensor
    with function in functions, and of each `from json import`."""
    found = []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [(path.stem, getattr(node, "name", None))
                      for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id == "json" and sub.attr in functions
                      or isinstance(sub, ast.ImportFrom)
                      and sub.module == "json"]
    return found


def test_json_is_parsed_by_one_reader():
    """Every input file (config, stack, budget sources, the packaged gold
    table) is parsed by errors.read_json: json.load and json.loads appear
    in src/homsensor in that function only."""
    assert _json_uses(("load", "loads")) == [("errors", "read_json")]


def test_json_is_written_by_one_writer():
    """Every JSON output file (a saved stack, each <command>_run.json) is
    written by errors.write_json: json.dump appears in src/homsensor in
    that function only.  run_identifier's json.dumps hashes a payload
    and writes no file."""
    assert _json_uses(("dump",)) == [("errors", "write_json")]


def test_bad_cells_are_named_by_one_rule():
    """Every check of an array names its first bad cell through
    errors.first_bad: outside errors no src/homsensor module names
    np.argwhere, and no module defines or names one of the retired
    per-module refusals."""
    retired = {"_first_bad", "_check_theta", "_check_wavelength"}
    found = []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.FunctionDef)
                    else None)
            if name in retired or name == "argwhere" and path.stem != "errors":
                found.append((path.stem, node.lineno, name))
    assert found == []


def test_outcome_models_are_read_through_one_table():
    """Outside quantum_stats, no src/homsensor module names a raw outcome
    model; every information figure reads them through
    quantum_stats.probe_outcomes."""
    models = {"_hom_click_vector", "_hom_pair_vector", "_coherent_mean_pair"}
    found = []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        if path.stem != "quantum_stats":
            found += [(path.stem, name) for node in ast.walk(ast.parse(
                path.read_text(encoding="utf-8")))
                for name in ([node.id] if isinstance(node, ast.Name)
                             else [node.attr] if isinstance(node, ast.Attribute)
                             else [alias.name for alias in node.names]
                             if isinstance(node, ast.ImportFrom) else [])
                if name in models]
    assert found == []


def test_figures_of_merit_are_formed_in_cli():
    """Outside cli, no src/homsensor module calls defined_ratio or
    precision_bound: the library returns information figures, and the
    command that writes an enhancement or a precision bound forms it."""
    merit = {"defined_ratio", "precision_bound"}
    found = []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        if path.stem != "cli":
            found += [(path.stem, node.lineno, name) for node in ast.walk(
                ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call)
                for name in [node.func.id if isinstance(node.func, ast.Name)
                             else getattr(node.func, "attr", None)]
                if name in merit]
    assert found == []


def test_sensor_layout_has_one_owner():
    """Outside tmm, no src/homsensor module subscripts a stack's .layers
    or calls with_thickness: tmm owns the sensor layout, where
    make_sensor_stack builds the default design, with_sensor, the one
    writer, derives every variant, and the readers check it."""
    found = []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        if path.stem != "tmm":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Subscript) \
                        and isinstance(node.value, ast.Attribute) \
                        and node.value.attr == "layers":
                    found.append((path.stem, node.lineno, "layers[]"))
                elif isinstance(node, ast.Attribute) \
                        and node.attr == "with_thickness":
                    found.append((path.stem, node.lineno, "with_thickness"))
    assert found == []


def test_only_two_derivative_steps_are_left():
    """No src/homsensor module binds a module-level name ending in _STEP
    but NS_STEP (every n_s derivative) and BUDGET_STEP (the budget's
    sensitivities): a derivative that can be written down takes no
    step, and this list only shrinks."""
    found = set()
    for path in sorted((SRC / "homsensor").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [sub.id for target in targets
                         for sub in ast.walk(target)
                         if isinstance(sub, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found.update(name for name in names if name.endswith("_STEP"))
    assert found <= {"NS_STEP", "BUDGET_STEP"}


def test_wavepacket_grid_has_one_owner():
    """Outside continuum, no src/homsensor module constructs a
    QuadratureGrid: the single frequency is continuum's one-node grid,
    so continuum_fisher is the one information pair.  Outside tmm, no
    module uses NS_STEP in arithmetic or a list literal and none calls
    np.kron: tmm.param_stencil builds every +- stencil row, and outside
    tmm only continuum._stencil_moments, the one chain from a stack to
    the moments, calls it.  continuum imports nothing from estimation,
    so every estimation figure can run on that chain."""
    def steps(node):
        return isinstance(node, (ast.BinOp, ast.List)) and any(
            isinstance(sub, ast.Name) and sub.id == "NS_STEP"
            for sub in ast.walk(node))

    def called(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    grids, stencils, stencil_calls, imports = [], set(), [], []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if called(node, "QuadratureGrid"):
                    grids.append((path.stem, getattr(top, "name", None)))
                elif called(node, "param_stencil") and path.stem != "tmm":
                    stencil_calls.append((path.stem,
                                          getattr(top, "name", None)))
                elif steps(node) or called(node, "kron"):
                    stencils.add(path.stem)
                elif isinstance(node, ast.ImportFrom) \
                        and path.stem == "continuum":
                    imports.append(node.module)
    assert grids == [("continuum", "single_frequency"),
                     ("continuum", "quadrature_grid")]
    assert stencils == {"tmm"}
    assert stencil_calls == [("continuum", "_stencil_moments")]
    assert "estimation" not in imports and "errors" in imports


def test_every_probe_reads_one_information_path():
    """Each probe's information is _information(probe_outcomes(...)), so
    a new probe is a row of the probe table, not a branch.  Outside
    quantum_stats only estimation.fisher_from_distribution, where outside
    values enter the kernel, calls _information; isinstance(...,
    CoherentInput) appears only in quantum_stats._raw_model and
    probe_outcomes; and no module defines _distribution_information."""
    def called(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    kernel, branches, defined = [], [], []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if called(node, "_information") \
                        and path.stem != "quantum_stats":
                    kernel.append(where)
                elif called(node, "isinstance") and any(
                        isinstance(sub, ast.Name) and sub.id == "CoherentInput"
                        for sub in ast.walk(node.args[1])):
                    branches.append(where)
                elif getattr(node, "name", None) \
                        == "_distribution_information":  # a def or import
                    defined.append(where)
    assert kernel == [("estimation", "fisher_from_distribution")]
    assert branches == [("quantum_stats", "_raw_model"),
                        ("quantum_stats", "probe_outcomes")]
    assert defined == []


def test_every_figure_reads_the_one_chain():
    """The moments of every estimation figure (the information pair,
    the decomposition, the phase scan and the budget) come from
    continuum._stencil_moments: estimation calls none of the chain's
    links (stack_response, param_stencil, validate_points,
    splitter_moments, continuum_hom_moments); outside quantum_stats only
    continuum.continuum_hom_moments calls splitter_moments; and no
    module defines _assumed_moments, the phase freeze that rebuilt the
    moments from the points."""
    def called(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    links = ("stack_response", "param_stencil", "validate_points",
             "splitter_moments", "continuum_hom_moments")
    chained, moments, defined = [], [], []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if path.stem == "estimation" \
                        and any(called(node, name) for name in links):
                    chained.append(where)
                if called(node, "splitter_moments") \
                        and path.stem != "quantum_stats":
                    moments.append(where)
                if getattr(node, "name", None) == "_assumed_moments":
                    defined.append(where)  # a def or an import
    assert chained == []
    assert moments == [("continuum", "continuum_hom_moments")]
    assert defined == []


def test_every_json_object_is_read_by_one_reader():
    """Every JSON object of an input file is read by errors.read_fields
    and every file's errors named by errors.read_file: no src/homsensor
    module catches KeyError, no string outside errors writes a
    `<what> <path>: ` file prefix, and outside errors check_keys is
    called only by tmm._material_from_dict, whose exactly-one-of rule
    on builtin, constant and table is not a schema's."""
    caught, prefixed, checked = [], [], []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and "KeyError" in {
                        getattr(sub, "id", None)
                        for sub in ast.walk(node.type or ast.Pass())}:
                    caught.append(where)
                if path.stem != "errors" and isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and "file %s: " in node.value:
                    prefixed.append(where)
                if path.stem != "errors" and isinstance(node, ast.Call) \
                        and "check_keys" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None)):
                    checked.append(where)
    assert caught == []
    assert prefixed == []
    assert checked == [("tmm", "_material_from_dict")]


def test_no_second_reader_or_locator_is_imported():
    """No src/homsensor module imports csv or importlib.resources: tables
    are JSON, and errors.package_data locates the packaged files.  The
    source is checked, as site may have loaded importlib.resources."""
    found = []
    for path in sorted((SRC / "homsensor").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + ["%s.%s" % (node.module, alias.name)
                                         for alias in node.names]
            else:
                continue
            found += [(path.stem, name) for name in names
                      if name in ("csv", "importlib.resources")]
    assert found == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_every_data_file_is_package_data():
    """A wheel ships each file under src/homsensor/data: every one matches
    a [tool.setuptools.package-data] pattern of pyproject.toml."""
    import fnmatch
    import tomllib
    with open(ROOT / "pyproject.toml", "rb") as f:
        patterns = tomllib.load(f)["tool"]["setuptools"]["package-data"][
            "homsensor"]
    files = sorted(p.relative_to(SRC / "homsensor").as_posix()
                   for p in (SRC / "homsensor" / "data").iterdir())
    assert "data/gold_johnson_christy_1972.json" in files
    assert [f for f in files
            if not any(fnmatch.fnmatch(f, pat) for pat in patterns)] == []


@pytest.mark.parametrize("command, cfg", [
    ("calibrate", {"target_ns": 1.31, "wavelength_nm": 800.0,
                   "theta_deg": 70.0}),
    ("spectrum", {"stack_path": None, "n_s": 1.33}),
    ("fisher", {"stack_path": "/data/Brechungsindex-Messung/Größe µm.json",
                "phi_ab": 1.5707963267948966}),
    ("budget", {"sources_path": "données/源.json", "n_analyte": 1.32}),
])
def test_run_identifier_is_the_sha256_prefix(command, cfg):
    payload = json.dumps({"command": command, "config": cfg,
                          "version": cli.__version__}, sort_keys=True)
    assert cli.run_identifier(command, cfg) \
        == hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
