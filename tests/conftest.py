"""Shared fixtures: the compiled kernel, built from source for the tests, a
parametrisation that runs a test under each kernel, spectrum's memo of its
last seaweeds, cleared before each test, and the pure kernel's walks,
watched by pure_walks."""

import importlib
import importlib.util
import os
import pkgutil
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import seaweedspec
from seaweedspec import _engine, _kernel

# Import every module of the package now, so that each_kernel finds every
# module that binds the kernel and no module binds a swapped-in one later.
for _info in pkgutil.iter_modules(seaweedspec.__path__):
    importlib.import_module(f"seaweedspec.{_info.name}")
# The package binds the name spectrum to the function, so fetch the module.
spectrum_module = importlib.import_module("seaweedspec.spectrum")

WALK_C = Path(__file__).resolve().parent.parent / "src" / "seaweedspec" / "_walk.c"


@pytest.fixture
def child_env():
    """os.environ for a child interpreter, with the root of the package
    under test first on PYTHONPATH, so that the child imports the same
    package as this process, installed or not, whatever its working
    directory."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(seaweedspec.__file__)))
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


def build_walk(tmp_path_factory, *defines):
    """_walk.c built into a temporary directory (never into src/) with the
    interpreter's compiler and flags plus -Wextra -Werror and the given -D
    macros, loaded but not registered in sys.modules, so the package under
    test keeps the kernel it picked at import. A compile error fails the
    tests that use it; only a missing compiler skips them."""
    var = sysconfig.get_config_var
    cc = shlex.split(var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]} not found")
    out = tmp_path_factory.mktemp("walk")
    obj = out / "_walk.o"
    lib = out / f"_walk{var('EXT_SUFFIX')}"
    compile_ = cc + shlex.split(var("CFLAGS") or "") + shlex.split(var("CCSHARED") or "")
    compile_ += ["-Wextra", "-Werror", "-I", sysconfig.get_path("include")]
    compile_ += [f"-D{define}" for define in defines]
    compile_ += ["-c", str(WALK_C), "-o", str(obj)]
    link = shlex.split(var("LDSHARED")) + [str(obj), "-o", str(lib)]
    for argv in (compile_, link):
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode:
            pytest.fail(f"{shlex.join(argv)}\n{done.stdout}{done.stderr}", pytrace=False)
    spec = importlib.util.spec_from_file_location("seaweedspec._walk", lib)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def walk(tmp_path_factory):
    """The compiled kernel as shipped (see build_walk)."""
    return build_walk(tmp_path_factory)


@pytest.fixture(scope="session")
def walk_delegating(tmp_path_factory):
    """The compiled kernel built with SHORT_HALF at 0, so that every block
    of 3 or more vertices goes to _kernel._add_triangles, in one call per
    seaweed. _add_triangles counts the blocks whose half is at most
    _kernel._SHORT_HALF pair by pair; patch that to 0 to fold them all."""
    return build_walk(tmp_path_factory, "SHORT_HALF=0")


def use_kernel(monkeypatch, chosen):
    """Swap chosen into every module of the package whose `kernel` is the
    one the package picked at import."""
    picked = _engine.kernel
    for name, module in list(sys.modules.items()):
        if name.startswith("seaweedspec.") and getattr(module, "kernel", None) is picked:
            monkeypatch.setattr(module, "kernel", chosen)


@pytest.fixture(params=["pure", "compiled"])
def each_kernel(request, monkeypatch):
    """Run the test under each kernel (see use_kernel)."""
    use_kernel(monkeypatch, _kernel if request.param == "pure" else request.getfixturevalue("walk"))
    return request.param


@pytest.fixture(autouse=True)
def fresh_seaweed_memo():
    """Clear spectrum's memo of its last seaweeds before each test, so that
    a test that patches a kernel reads its own walk and nothing built
    under one kernel is read under the other."""
    spectrum_module._memo.clear()


@pytest.fixture
def pure_walks(monkeypatch):
    """The part pairs that the pure kernel, swapped in (see use_kernel),
    walks, in order: each walk builds the partner array of its top and
    then of its bottom."""
    use_kernel(monkeypatch, _kernel)
    walked, pending = [], []
    neighbors = _kernel._neighbors

    def recording(parts, n):
        pending.append(parts)
        if len(pending) == 2:
            walked.append(tuple(pending))
            pending.clear()
        return neighbors(parts, n)

    monkeypatch.setattr(_kernel, "_neighbors", recording)
    return walked
