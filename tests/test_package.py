"""The package's public names: every ``__all__`` entry must resolve."""

import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import fracplate

MODULES = ["fracplate"] + [
    f"fracplate.{info.name}" for info in pkgutil.iter_modules(fracplate.__path__)
]


@pytest.mark.parametrize("mod_name", MODULES)
def test_all_names_resolve(mod_name):
    module = importlib.import_module(mod_name)
    names = getattr(module, "__all__", [])
    assert names, f"{mod_name} declares no __all__"
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


def test_package_exports_come_from_one_submodule_each():
    # the package re-exports names; each one is declared by exactly one
    # submodule and is the very object found there
    submodules = [importlib.import_module(m) for m in MODULES[1:]]
    for name in fracplate.__all__:
        if name == "__version__":
            continue
        owners = [m for m in submodules if name in getattr(m, "__all__", [])]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        assert getattr(owners[0], name) is getattr(fracplate, name), name


@pytest.mark.parametrize("mod_name", ["fracplate.solver", "fracplate.hidden_regularity"])
def test_probe_layer_returns_plain_documents(mod_name):
    # the probe layer returns what the CLI prints; VerificationReport is the
    # acceptance gate's type only
    module = importlib.import_module(mod_name)
    source = pathlib.Path(module.__file__).read_text()
    assert "VerificationReport" not in source


# No scipy module is loaded by the CLI: Gauss-Legendre rules, the inverse
# normal CDF and the Laplace-pair quadrature are the package's own, and scipy
# serves only as a test oracle.  mpmath is imported only where extended
# precision runs: no subcommand at alpha = 1.5 loads it, except the report,
# whose criterion 1 sums the series oracle (the report runs last).
_IMPORT_GRAPH = """
import sys

from fracplate import cli

def modules(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

assert modules("scipy") == [], ("import", modules("scipy"))
assert modules("mpmath") == [], ("import", modules("mpmath"))
for argv in ARGVS:
    assert cli.main(argv) == 0, argv
    assert modules("scipy") == [], (argv, modules("scipy"))
    if argv[0] != "report":
        assert modules("mpmath") == [], (argv, modules("mpmath"))
"""


def test_cli_start_up_leaves_scipy_integrate_out(tmp_path):
    argvs = [
        ["fracops"],
        ["fracops", "--beta", "0.5", "--gamma", "2", "--grading", "3"],
        ["modes"],
        ["modes", "--domain", "rectangle:pixpi"],
        ["ml", "--alpha", "1.5", "--beta", "1", "--z=-60"],
        ["solve", "--nodes", "512", "--out", str(tmp_path / "solve.json")],
        ["identities", "--nodes", "512", "--out", str(tmp_path / "identities.csv")],
        ["probe", "--modes", "8,16", "--time-nodes", "64", "--members", "2",
         "--out", str(tmp_path / "probe.json")],
        ["probe", "--domain", "rectangle:pixpi", "--modes", "16,32",
         "--time-nodes", "64", "--members", "2", "--out", str(tmp_path / "probe2.json")],
        ["report", "--profile", "quick", "--out", str(tmp_path / "report.json")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", f"ARGVS = {argvs!r}\n{_IMPORT_GRAPH}"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
