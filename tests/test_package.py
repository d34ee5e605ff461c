"""The BLAS thread policy that importing narxlm applies, and its record."""

import json

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
