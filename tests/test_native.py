"""The loader of INFINITY's C comparisons: one build per interpreter into the
bytecode cache, reused by later imports, and an exact fallback when it cannot
build.  Each case that imports extinf in a child gives it a fresh
``-X pycache_prefix``, so no case sees another's build or the checkout's."""

import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

from conftest import needs_c
from extinf import _native, weights

ROOT = Path(__file__).resolve().parent.parent

# Imports extinf from src, notes what the import loaded, then runs
# cross_check's operator table on whichever comparisons it loaded.
_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {tools!r}]
import extinf.weights as weights
loaded = set(sys.modules)
import cross_check
print(json.dumps({{
    "comparisons": weights.SENTINEL_COMPARISONS,
    "failure": weights.NATIVE_FAILURE,
    "sysconfig": "sysconfig" in loaded,
    "subprocess": "subprocess" in loaded,
    "problems": cross_check.operator_problems(),
}}))
"""


def _import(prefix, *flags, path=None, src=ROOT / "src"):
    """The probe's report from a child with pycache_prefix set to prefix."""
    unset = ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    if path is not None:
        env["PATH"] = path
    probe = _PROBE.format(src=str(src), tools=str(ROOT / "tools"))
    result = subprocess.run(
        [sys.executable, *flags, "-X", f"pycache_prefix={prefix}", "-c", probe],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _files(prefix):
    """Every file a build left under prefix, temporary files included."""
    return sorted(p for p in Path(prefix).rglob("_absinf.*") if p.is_file())


def _processes_naming(text):
    """Running processes whose command line holds text (Linux /proc only)."""
    found = []
    for pid in os.listdir("/proc"):
        try:
            command = Path("/proc", pid, "cmdline").read_bytes()
        except OSError:  # not a process, or it has exited
            continue
        if text.encode() in command:
            found.append(command.replace(b"\0", b" ").decode(errors="replace"))
    return found


def _assert_no_build_running(prefix):
    if os.path.isdir("/proc"):
        assert _processes_naming(str(prefix)) == []


def _compiler():
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc)[0] if cc else None


needs_compiler = pytest.mark.skipif(
    _compiler() is None or shutil.which(_compiler()) is None,
    reason=f"no C compiler to build with (sysconfig CC is {_compiler()!r})",
)


@needs_compiler
def test_this_process_loaded_the_c_comparisons():
    # A run that checked only the fallback where a compiler exists would go
    # unnoticed: every other test accepts either implementation.
    assert (weights.SENTINEL_COMPARISONS, weights.NATIVE_FAILURE) == ("c", None)


@needs_c
def test_every_name_of_the_table_holds_the_extensions_own_function():
    # A silent miss would put the rule back into every call, a wrapper a frame.
    for (module, name), (function, _) in _native._TABLE.items():
        held, own = getattr(sys.modules[module], name), getattr(_native._absinf, function)
        assert getattr(held, "func", held) is own, name  # or a partial over it


def test_python_rules_give_back_what_each_name_held_on_entry(monkeypatch):
    # Not the table's C function: a test's stand-in is back after the block,
    # also when it raised, as the gate's catches-a-wrong-answer tests need.
    stand_ins = {key: lambda *args: "stand-in" for key in _native._TABLE}
    for (module, name), stand_in in stand_ins.items():
        monkeypatch.setattr(sys.modules[module], name, stand_in)
    with pytest.raises(ZeroDivisionError):
        with _native.python_rules():
            for module, name in _native._TABLE:
                assert getattr(sys.modules[module], name) is _native._rule(module, name)
            1 / 0
    for (module, name), stand_in in stand_ins.items():
        assert getattr(sys.modules[module], name) is stand_in


@needs_compiler
def test_the_source_builds_without_a_warning(tmp_path):
    # The flags _native._build passes, with every common warning an error.
    command = [
        *shlex.split(sysconfig.get_config_var("CC")),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
        "-shared",
        "-O2",
        "-Wall",
        "-Wextra",
        "-Werror",
        "-I",
        sysconfig.get_paths()["include"],
        _native.SOURCE,
        "-o",
        str(tmp_path / "_absinf.so"),
    ]
    result = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


@needs_compiler
def test_first_import_builds_once_and_later_imports_reuse_it(tmp_path):
    # -B governs bytecode only, so it neither stops the build nor its reuse.
    for flags in ((), ("-B",)):
        prefix = tmp_path / (flags[0] if flags else "default")
        first = _import(prefix, *flags)
        assert first == {
            "comparisons": "c",
            "failure": None,
            "sysconfig": True,
            "subprocess": True,
            "problems": [],
        }, flags
        (built,) = _files(prefix)
        mtime = built.stat().st_mtime_ns
        second = _import(prefix, *flags)
        assert second == dict(first, sysconfig=False, subprocess=False), flags
        assert _files(prefix) == [built] and built.stat().st_mtime_ns == mtime
    _assert_no_build_running(tmp_path)


@needs_compiler
def test_an_edited_source_is_built_again_and_the_older_build_removed(tmp_path):
    shutil.copytree(
        ROOT / "src" / "extinf",
        tmp_path / "src" / "extinf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    prefix, source = tmp_path / "cache", tmp_path / "src" / "extinf" / "_absinf.c"
    assert _import(prefix, src=tmp_path / "src")["comparisons"] == "c"
    (first,) = _files(prefix)
    mtime = source.stat().st_mtime_ns + 10**9
    os.utime(source, ns=(mtime, mtime))
    report = _import(prefix, src=tmp_path / "src")
    assert report["comparisons"] == "c" and report["subprocess"]
    (second,) = _files(prefix)
    assert second != first and f"-{mtime}." in second.name
    _assert_no_build_running(tmp_path)


def test_no_compiler_falls_back(tmp_path):
    if _compiler() is None or os.path.isabs(_compiler()):
        pytest.skip(f"PATH cannot hide sysconfig's C compiler {_compiler()!r}")
    empty = tmp_path / "bin"
    empty.mkdir()
    report = _import(tmp_path / "cache", path=str(empty))
    assert report["comparisons"] == "python"
    assert report["failure"].startswith("building ") and _compiler() in report["failure"]
    assert report["problems"] == []
    assert _files(tmp_path) == []
    _assert_no_build_running(tmp_path)


def test_unwritable_cache_falls_back(tmp_path):
    # Root writes through any mode bits, so the cache sits inside a regular
    # file instead, where no one can create a directory.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    report = _import(blocker / "cache")
    assert report["comparisons"] == "python"
    assert report["failure"].startswith("building ") and "Not a directory" in report["failure"]
    assert report["problems"] == []
    assert _files(tmp_path) == []
    _assert_no_build_running(tmp_path)


def test_a_build_past_the_timeout_is_killed_with_its_children(tmp_path, monkeypatch):
    # The stand-in compiler starts its output file and one sleeping child, as
    # a driver starts cc1.
    script = tmp_path / "slow_cc.py"
    script.write_text(
        "import subprocess, sys, time\n"
        "open(sys.argv[-1], 'w').close()\n"
        "sleeper = [sys.executable, '-c', 'import time; time.sleep(300)', __file__]\n"
        "subprocess.Popen(sleeper, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
        "time.sleep(300)\n"
    )
    source = tmp_path / "_absinf.c"
    shutil.copyfile(_native.SOURCE, source)
    config_var = sysconfig.get_config_var
    cc = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    monkeypatch.setattr(
        sysconfig, "get_config_var", lambda name: cc if name == "CC" else config_var(name)
    )
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "SOURCE", str(source))
    monkeypatch.setattr(_native, "BUILD_TIMEOUT_S", 1)
    module, failure = _native.load()
    assert module is None
    assert failure.startswith("building ") and failure.endswith("took more than 1 s")
    assert list(tmp_path.rglob("*.tmp")) == []
    deadline = time.monotonic() + 10  # SIGKILL is sent, not yet acted on
    while (
        os.path.isdir("/proc")
        and _processes_naming(str(tmp_path))
        and time.monotonic() < deadline
    ):
        time.sleep(0.05)
    _assert_no_build_running(tmp_path)
