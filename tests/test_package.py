"""The BLAS thread policy that importing narxlm applies, and its record."""

import json
import os
import subprocess
import sys

import pytest

import narxlm

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_import(code, **env_vars):
    """Run ``code`` in a new interpreter whose environment sets no thread
    variable except ``env_vars``, and return what it prints as JSON."""
    src = os.path.dirname(os.path.dirname(narxlm.__file__))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
