import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckelab.cli import main
from heckelab.errors import EXIT_DOMAIN_ERROR

SMOKE = ["scan", "--D", "-4", "--P", "5", "--c-max", "5", "--tol", "1e-8"]


def test_scan_prints_stable_json(capsys, tmp_path):
    outputs = []
    for _ in range(2):
        assert main(SMOKE) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["D"] == -4 and payload["P"] == [5] and payload["records"]

    assert main(SMOKE + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "scan.json").read_text() == outputs[0]


def test_domain_error_exit_code(capsys):
    assert main(["scan", "--D", "-5", "--P", "5", "--c-max", "5", "--tol", "1e-8"]) == EXIT_DOMAIN_ERROR
    assert "BadDiscriminant" in capsys.readouterr().err


def test_scan_does_not_depend_on_assert(capsys):
    # invariants must raise, not vanish: the scan under -O prints the same JSON
    assert main(SMOKE) == 0
    expected = capsys.readouterr().out
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "heckelab.cli", *SMOKE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tol", "0"),
        ("--tol", "-1"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--P", "4"),
        ("--c-max", "0"),
    ],
)
def test_malformed_scan_input_is_a_domain_error(capsys, flag, value):
    # rejected before the first record, with no traceback and no empty scan
    argv = SMOKE.copy()
    argv[argv.index(flag) + 1] = value
    assert main(argv) == EXIT_DOMAIN_ERROR
    captured = capsys.readouterr()
    assert "DomainError" in captured.err and captured.out == ""


def test_scan_builds_phi_by_one_rule_for_every_field(capsys):
    # six roots of unity, an even D and h = 2: phi comes from the same search
    for D in (-3, -8, -15):
        assert main(["scan", "--D", str(D), "--P", "5", "--c-max", "1", "--tol", "1e-8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["D"] == D and all(r["error"] is None for r in payload["records"])


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, first, expected",
    [
        ({}, "import heckelab, numpy", "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "import heckelab, numpy", "2"),
        ({"OMP_NUM_THREADS": "2"}, "import heckelab, numpy", None),
        ({}, "import numpy, heckelab", None),
    ],
)
def test_heckelab_loads_numpy_with_one_blas_thread(preset, first, expected):
    # heckelab makes no BLAS call: when it loads numpy it asks OpenBLAS for
    # no helper thread, but a user's setting or an earlier numpy import wins
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        f"{first}, json, os\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    value, threads = json.loads(proc.stdout)
    assert value == expected
    if expected == "1" and threads is not None:
        assert threads == 1, "numpy started a thread besides the main one"
