"""Run `python -m hybeam.cli ...` and exit when it is ready for its first realization.

The benchmark times this process from launch to exit as the run's set-up:
interpreter start, imports, argument parsing and preset resolution.  The
CLI module runs as `__main__`, as under `python -m`; its call into
`run_scenario` ends the process before any channel is drawn.  Needs `src`
on `PYTHONPATH`.
"""

import os
import runpy
import sys

import hybeam.experiments


def _ready(*args, **kwargs):
    os._exit(0)


hybeam.experiments.run_scenario = _ready
sys.argv = ["hybeam.cli", *sys.argv[1:]]
try:
    runpy.run_module("hybeam.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    sys.exit(f"hybeam.cli exited with {exc.code!r} before its first realization")
sys.exit("hybeam.cli returned before its first realization")
