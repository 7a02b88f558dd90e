"""Build and load ``_absinf.c`` on first import, and bind names to it.

``_absinf`` is the extension, or None, and ``FAILURE`` says why it did not
load.  Its type ``AbsInf`` is INFINITY's first base (see ``weights``); each
of its functions backs one name of another module, which ``_TABLE`` lists
with the Python rule it holds without the extension.  ``bind`` is the one
place that picks either, and on the C path gives the extension's own
callable, or a ``partial`` over it, which runs no Python frame.
``python_rules`` puts every rule in place for the length of a ``with``
block, so that tests and ``tools/cross_check.py`` run both in-process.

The extension lives in the package's bytecode cache (``__pycache__``, or
under ``sys.pycache_prefix``), in a file named for the source's size and
mtime and the interpreter's extension suffix, so each interpreter builds its
own and an edited source is built again.  A cache hit costs two stats and a
dlopen and imports no module that start-up has not.  A miss runs the
interpreter's sysconfig ``CC``, with its ``CCSHARED`` and include directory,
in a session of its own that is killed after ``BUILD_TIMEOUT_S``; it writes a
temporary file moved into place by ``os.replace`` and removes the
interpreter's older builds.  ``-B`` does not stop a build: it governs
bytecode, and the extension is not bytecode.  Whatever fails, ``load`` says
why instead of raising, and every name of the table holds its rule.
"""

import _imp
import os
import sys
from functools import partial

# importlib.machinery re-exports these; the frozen module is loaded at start-up.
from _frozen_importlib_external import (
    ExtensionFileLoader,
    cache_from_source,
    spec_from_file_location,
)

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_absinf.c")
BUILD_TIMEOUT_S = 120


def load():
    """``(module, None)`` with the built ``_absinf``, or ``(None, reason)``."""
    try:
        stat = os.stat(SOURCE)
        suffix = _imp.extension_suffixes()[0]
        target = os.path.join(
            os.path.dirname(cache_from_source(SOURCE)),
            f"_absinf.{stat.st_size}-{stat.st_mtime_ns}{suffix}",
        )
        if not os.path.exists(target):
            failure = _build(target)
            if failure is not None:
                return None, failure
        loader = ExtensionFileLoader("extinf._absinf", target)
        module = loader.create_module(spec_from_file_location(loader.name, target, loader=loader))
        loader.exec_module(module)
        return module, None
    except Exception as exc:  # the import must not fail: the fallback is exact
        return None, f"{type(exc).__name__}: {exc}"


def _build(target):
    """Compile SOURCE to target and remove older builds; None, or why it failed."""
    import shlex
    import signal
    import subprocess
    import sysconfig

    compiler = sysconfig.get_config_var("CC")
    if not compiler:
        return "sysconfig names no C compiler"
    directory = os.path.dirname(target)
    temporary = f"{target}.{os.getpid()}.tmp"
    command = [
        *shlex.split(compiler),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
        "-shared",
        "-O2",
        "-I",
        sysconfig.get_paths()["include"],
        SOURCE,
        "-o",
        temporary,
    ]
    try:
        os.makedirs(directory, exist_ok=True)
        child = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output = child.communicate(timeout=BUILD_TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the driver's own children too
            child.communicate()
            return f"building {target} took more than {BUILD_TIMEOUT_S} s"
        if child.returncode != 0:
            lines = output.strip().splitlines() or [f"exit status {child.returncode}"]
            return f"building {target} failed: {lines[-1]}"
        os.replace(temporary, target)
    except OSError as exc:
        return f"building {target} failed: {exc}"
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)
    stem, suffix = "_absinf.", _imp.extension_suffixes()[0]
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if name.startswith(stem) and name.endswith(suffix) and path != target:
            try:
                os.remove(path)
            except FileNotFoundError:  # another build removed it first
                pass
    return None


_absinf, FAILURE = load()

# (module, name) -> (the extension's function, the Python rule or its name in
# the module).  A rule's False or None means "look closer": Python decides.
_TABLE = {
    ("extinf.graphs", "_plain_graph"): ("plain_graph", lambda graph: False),
    ("extinf.graphs", "_plain_weights"): ("plain_weights", lambda graph: False),
    ("extinf.graphs", "_parse_plain"): ("parse_plain_graph", lambda text: None),
    ("extinf.shortest_path", "_from_search_in_c"): ("from_search", lambda *args: False),
    ("extinf.generators", "_splitmix_block"): ("splitmix_block", "_mix_words"),
}


def _rule(module, name):
    rule = _TABLE[module, name][1]
    return getattr(sys.modules[module], rule) if type(rule) is str else rule


def bind(module, name, *args):
    """What module's name holds: the table's function of the extension, a
    ``partial`` over args if given, or without the extension the rule."""
    if _absinf is None:
        return _rule(module, name)
    function = getattr(_absinf, _TABLE[module, name][0])
    return partial(function, *args) if args else function


class python_rules:
    """A ``with`` block in which every name of the table holds its rule; on
    exit, raised or not, each holds again what it held, a stand-in included."""

    def __enter__(self):
        self._held = [(module, name, getattr(sys.modules[module], name)) for module, name in _TABLE]
        for module, name, _ in self._held:
            setattr(sys.modules[module], name, _rule(module, name))

    def __exit__(self, *exc_info):
        for module, name, held in self._held:
            setattr(sys.modules[module], name, held)
