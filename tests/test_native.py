"""The loader of INFINITY's C comparisons: one build per interpreter into the
bytecode cache, reused by later imports, and an exact fallback when it cannot
build.  Each case imports extinf in a child whose ``-X pycache_prefix`` is a
fresh directory, so no case sees another's build or the checkout's."""

import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Imports extinf, notes what the import loaded, then runs cross_check's
# operator table on whichever comparisons it loaded.
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
""".format(src=str(ROOT / "src"), tools=str(ROOT / "tools"))


def _import(prefix, *flags, path=None):
    """The probe's report from a child with pycache_prefix set to prefix."""
    unset = ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    if path is not None:
        env["PATH"] = path
    result = subprocess.run(
        [sys.executable, *flags, "-X", f"pycache_prefix={prefix}", "-c", _PROBE],
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


def test_first_import_builds_once_and_later_imports_reuse_it(tmp_path):
    if _compiler() is None or shutil.which(_compiler()) is None:
        pytest.skip(f"no C compiler to build with (sysconfig CC is {_compiler()!r})")
    first = _import(tmp_path)
    assert first == {
        "comparisons": "c",
        "failure": None,
        "sysconfig": False,  # the child compiles; the importer never loads it
        "subprocess": True,
        "problems": [],
    }
    (built,) = _files(tmp_path)
    mtime = built.stat().st_mtime_ns
    second = _import(tmp_path)
    assert second == dict(first, subprocess=False)
    assert _files(tmp_path) == [built] and built.stat().st_mtime_ns == mtime
    _assert_no_build_running(tmp_path)


def test_no_bytecode_writing_falls_back_without_building(tmp_path):
    report = _import(tmp_path, "-B")
    assert report["comparisons"] == "python"
    assert report["failure"].endswith("is not built: -B or PYTHONDONTWRITEBYTECODE forbids it")
    assert report["problems"] == [] and not report["subprocess"]
    assert _files(tmp_path) == []
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
