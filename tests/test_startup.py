"""Start-up guards for a cold ``hypar`` process.

Most of a cold command's time is imports, so these tests pin what a fresh
interpreter loads: the commands run without networkx (a test-only
oracle), serial commands load no process-pool machinery, the DAG search
loads no ``numpy.ma``, and ``import repro`` loads none of the heavier
subpackages.
Each check runs in a fresh subprocess, since this process has long since
imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The commands the cold-start benchmark times.
COLD_COMMANDS = (
    ["partition", "VGG-E"],
    ["simulate", "VGG-A"],
    ["simulate", "VGG-A", "--sim-engine", "network", "--topology", "torus"],
    ["sweep", "smoke"],
)

#: ``python -m repro`` with networkx made unimportable first.
WITHOUT_NETWORKX = (
    "import runpy, sys\n"
    "sys.modules['networkx'] = None\n"
    "runpy.run_module('repro', run_name='__main__')\n"
)


#: ``python -m repro`` that then prints which of the modules named in its
#: first argument (comma-separated) loaded.
LOADED_PROBE = (
    "import runpy, sys\n"
    "probed = sys.argv.pop(1).split(',')\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__')\n"
    "except SystemExit as stop:\n"
    "    if stop.code:\n"
    "        raise\n"
    "print('LOADED', ' '.join(name for name in probed if name in sys.modules))\n"
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    )


@pytest.mark.parametrize("argv", COLD_COMMANDS, ids=" ".join)
def test_command_runs_without_networkx(argv):
    blocked = _python("-c", WITHOUT_NETWORKX, *argv)
    assert blocked.stdout == _python("-m", "repro", *argv).stdout


def test_import_repro_loads_no_heavy_subpackage():
    probe = _python(
        "-c",
        "import sys, repro\n"
        "print(' '.join(name for name in ('repro.analysis', 'repro.service', "
        "'repro.resilience', 'repro.sweep', 'networkx') if name in sys.modules))",
    )
    assert probe.stdout.strip() == ""


def _loaded(argv: list[str], *modules: str) -> list[str]:
    """Which of ``modules`` a fresh ``python -m repro *argv`` loaded."""
    probe = _python("-c", LOADED_PROBE, ",".join(modules), *argv)
    return probe.stdout.splitlines()[-1].split()[1:]


@pytest.mark.parametrize("argv", [["partition", "VGG-E"], ["sweep", "smoke"]], ids=" ".join)
def test_serial_command_loads_no_process_pool(argv):
    assert _loaded(argv, "concurrent.futures.process", "multiprocessing") == []


def test_dag_search_loads_no_numpy_ma():
    """The cut-vertex search (gpt_r) must not reach ``np.unique``, whose
    NumPy 2 implementation imports ``numpy.ma`` on first use."""
    assert _loaded(["partition", "gpt_r-8"], "numpy.ma") == []


def test_benchmark_machine_probe_reads_the_kernels_stub():
    """``perfbench/run.py`` records ``repro.core.kernels.NUMBA_AVAILABLE``.

    The module is only that flag, ``False``, and loads nothing; without it
    the benchmark's machine probe fails before any workload is measured.
    """
    probe = _python(
        "-c",
        "import sys\n"
        "from repro.core import kernels\n"
        "print(kernels.NUMBA_AVAILABLE, 'numba' in sys.modules)",
    )
    assert probe.stdout.split() == ["False", "False"]
