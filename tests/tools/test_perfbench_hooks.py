"""perfbench's tracer still finds every entry point it wraps.

``perfbench/tracing.py`` replaces each ``ENTRY_POINTS`` method in its
class's own ``__dict__`` (an inherited or renamed method raises a
``KeyError`` there, and only ``--trace 1`` runs that code) and rebinds
each module function in every ``repro`` module.  A second name bound to
a traced method when a module is imported would keep calling the
unwrapped function, and its calls would vanish from the per-layer
counts.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(REPO, "perfbench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracing):
    """``(owner, name, function)`` of every entry point, looked up the
    way ``tracing.install`` looks it up."""
    found = []
    for module_name, path, _ in tracing.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." not in path:
            found.append((module, path, getattr(module, path)))
            continue
        cls_name, attr = path.split(".")
        raw = getattr(module, cls_name).__dict__[attr]
        if isinstance(raw, staticmethod):
            raw = raw.__func__
        found.append((getattr(module, cls_name), attr, raw))
    return found


def test_every_entry_point_resolves(tracing):
    traced = _traced(tracing)
    assert len(traced) == len(tracing.ENTRY_POINTS)
    for owner, name, function in traced:
        assert inspect.isfunction(function), (owner, name)


def test_every_caller_module_imports(tracing):
    for name in tracing.CALLER_MODULES:
        importlib.import_module(name)


def test_no_second_name_for_a_traced_method(tracing):
    """Module functions are rebound by the tracer wherever a ``repro``
    module imports them; methods are not, so no module global and no
    class attribute may alias one."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    traced = {
        id(function): (owner, name)
        for owner, name, function in _traced(tracing)
        if inspect.isclass(owner)
    }
    aliases = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        owners = [module] + [
            value for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module_name
        ]
        for owner in owners:
            for name, value in vars(owner).items():
                if isinstance(value, staticmethod):
                    value = value.__func__
                home = traced.get(id(value))
                if home is not None and home != (owner, name):
                    aliases.append(
                        f"{module_name}: {name} is "
                        f"{home[0].__name__}.{home[1]}"
                    )
    assert aliases == []


def test_installed_tracer_counts_every_crossing():
    """Install the tracer in a fresh process and make two malloc/free
    pairs through the switcher: every layer they cross is counted.

    After the first pair has warmed the switcher (its stack chop and
    the bindings of the ``malloc`` and ``free`` tokens), a pair derives
    exactly two capabilities (``malloc``'s ``set_address`` and
    ``set_bounds``), checks none and unseals none, and the background
    revoker, idle between passes, is not among the bus's store
    snoopers: inlining a traced entry point would shrink these
    per-layer counts."""
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); "
        "import tracing; t = tracing.Tracer(); builds = []; "
        "tracing.install(t, builds); "
        "from repro.capability.capability import Capability; "
        "unseals = []; unseal = Capability.unseal; "
        "Capability.unseal = "
        "lambda cap, auth: unseals.append(cap) or unseal(cap, auth); "
        "t.start(); "
        "from repro.machine import System; s = System.build(); "
        "pair = lambda: s.free(s.malloc(64)) or print(repr(("
        "sorted(t.calls.items()), len(unseals), "
        "len(s.bus._store_snoopers)))); "
        "pair(); pair(); t.stop()"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    (first, first_unseals, first_snoopers), (both, both_unseals, snoopers) = (
        ast.literal_eval(line) for line in out.splitlines()
    )
    first, both = dict(first), dict(both)
    second = {key: both[key] - first.get(key, 0) for key in both}
    for calls in (first, second):
        assert calls["switcher.call"] == 2
        assert calls["alloc.malloc"] == calls["alloc.free"] == 1
        # Two handler frames, two return-path zeroings, one free-path
        # zeroing.
        assert calls["mem.fill"] == 5
        # malloc clears the chunk's bits, free paints them.
        assert calls["mem.revmap"] == 2
    assert first["machine.build"] == 1
    assert second["machine.build"] == 0
    assert second["cap.derive"] == 2
    assert second.get("cap.check", 0) == 0
    # Each token is unsealed once, when the switcher binds it.
    assert first_unseals == both_unseals == 2
    assert first_snoopers == snoopers == 0
