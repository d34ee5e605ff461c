"""What importing narxlm does: the BLAS thread policy it applies, its record,
and the modules it loads."""

import json
import sys

import pytest

from conftest import THREAD_VARS, run_child


def fresh_import(code, **env_vars):
    """What ``code`` prints, as JSON, in a new interpreter whose environment
    sets no thread variable except ``env_vars``."""
    return json.loads(run_child("-c", code, **env_vars))


REPORT = ("import json, os, narxlm; print(json.dumps("
          "[os.environ.get('OPENBLAS_NUM_THREADS'), narxlm.BLAS_THREADS_DEFAULTED]))")


def test_one_thread_by_default():
    assert fresh_import(REPORT) == ["1", True]


@pytest.mark.parametrize("var", THREAD_VARS)
def test_users_thread_count_wins(var):
    expected = "2" if var == "OPENBLAS_NUM_THREADS" else None
    assert fresh_import(REPORT, **{var: "2"}) == [expected, False]


def test_no_effect_once_numpy_is_loaded():
    # OpenBLAS has read its thread count by then; setting it would only
    # mislead the manifest
    assert fresh_import("import numpy\n" + REPORT) == [None, False]


def test_manifest_records_default():
    # what a fresh `narxlm` command writes to manifest.json
    code = "import json, narxlm.cli; print(json.dumps(narxlm.cli._environment()))"
    env = fresh_import(code)
    assert env["openblas_num_threads"] == "1"
    assert env["blas_threads_set_by_narxlm"] is True


def test_no_runtime_dependency_beyond_numpy():
    # every top-level module that importing narxlm adds on top of numpy's is
    # narxlm's own or the standard library's
    code = ("import json, sys, numpy\n"
            "before = set(sys.modules)\n"
            "import narxlm, narxlm.cli, narxlm.synth\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    added = fresh_import(code)
    assert "narxlm" in added
    assert [m for m in added if m != "narxlm" and m not in sys.stdlib_module_names] == []
