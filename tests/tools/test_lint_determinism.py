"""The determinism lint: every rule fires, every exemption holds."""

import importlib.util
import os
import sys

import pytest

_TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
)


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location(
        "lint_determinism", os.path.join(_TOOLS, "lint_determinism.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _findings(lint, tmp_path, source):
    path = tmp_path / "case.py"
    path.write_text(source)
    return lint.lint_file(str(path))


def _rules(findings):
    return [f.rule for f in findings]


def test_wall_clock_calls_are_flagged(lint, tmp_path):
    found = _findings(
        lint,
        tmp_path,
        "import time\n"
        "from time import perf_counter\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"
        "c = perf_counter()\n",
    )
    assert _rules(found) == ["wall-clock"] * 3


def test_datetime_now_is_flagged(lint, tmp_path):
    found = _findings(
        lint,
        tmp_path,
        "import datetime\n"
        "a = datetime.datetime.now()\n"
        "b = datetime.date.today()\n",
    )
    assert _rules(found) == ["wall-clock"] * 2


def test_global_rng_is_flagged_but_seeded_instances_pass(lint, tmp_path):
    found = _findings(
        lint,
        tmp_path,
        "import random\n"
        "from random import choice\n"
        "a = random.randint(0, 9)\n"
        "b = choice([1])\n"
        "rng = random.Random(42)\n"
        "c = rng.randint(0, 9)\n",
    )
    assert _rules(found) == ["global-rng"] * 2


def test_entropy_sources_are_flagged(lint, tmp_path):
    found = _findings(
        lint, tmp_path, "import os, uuid\na = os.urandom(8)\nb = uuid.uuid4()\n"
    )
    assert _rules(found) == ["global-rng"] * 2


def test_set_iteration_is_flagged(lint, tmp_path):
    found = _findings(
        lint,
        tmp_path,
        "for x in {1, 2}:\n    pass\n"
        "ys = [y for y in set([1, 2])]\n"
        "zs = [z for z in sorted({1, 2})]\n",
    )
    assert _rules(found) == ["set-iteration"] * 2


def test_directory_listing_requires_sorted(lint, tmp_path):
    found = _findings(
        lint,
        tmp_path,
        "import os, glob\n"
        "bad = os.listdir('.')\n"
        "also = glob.glob('*.py')\n"
        "good = sorted(os.listdir('.'))\n",
    )
    assert _rules(found) == ["dir-order"] * 2


def test_suppression_comment_is_honoured(lint, tmp_path):
    found = _findings(
        lint,
        tmp_path,
        "import time\n"
        "a = time.time()  # det: allow — measured, not reported\n",
    )
    assert found == []


def test_syntax_errors_surface_as_findings(lint, tmp_path):
    found = _findings(lint, tmp_path, "def broken(:\n")
    assert _rules(found) == ["parse"]


def test_declared_paths_all_resolve(lint):
    files = lint.declared_files()
    assert files
    assert all(os.path.exists(f) for f in files)


def test_the_declared_deterministic_paths_are_clean(lint):
    findings = []
    for path in lint.declared_files():
        findings.extend(lint.lint_file(path))
    assert findings == [], [str(f) for f in findings]


def test_every_module_of_a_linted_package_is_declared(lint):
    """The whole ``repro`` package is linted, so a module added to it is
    linted too; only the host-timed simspeed producer is left out."""
    src = os.path.join(os.path.dirname(_TOOLS), "src", "repro")
    modules = {
        os.path.join(directory, name)
        for directory, _, names in os.walk(src)
        for name in names
        if name.endswith(".py")
    }
    simspeed = os.path.join(src, "analysis", "simspeed.py")
    assert simspeed in modules
    assert set(lint.declared_files()) == modules - {simspeed}


def test_every_artifact_producer_is_linted(lint, artifacts):
    """Every byte-gated producer in the artifact table lives in a
    declared module; the host-timed simspeed entry reads the clock by
    design and gates on a tolerance instead."""
    linted = set(lint.declared_files())
    for artifact in artifacts.ARTIFACTS:
        if artifact.gate is not None:
            continue
        module = sys.modules[artifact.produce.__module__]
        assert os.path.abspath(module.__file__) in linted, artifact.name


@pytest.mark.parametrize("arg", ["--help", "no/such/module.py"])
def test_missing_path_argument_exits_2_with_one_line(lint, capsys, arg):
    assert lint.main([arg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert arg in err
