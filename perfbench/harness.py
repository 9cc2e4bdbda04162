"""Parent side of a run: hermetic subprocesses, cleanup, assembly.

Every workload runs in fresh worker processes (``PYTHONHASHSEED=0``,
a private ``REPRO_CACHE_DIR`` under ``.perfbench_work/`` at the root of
the checkout). Set-up is measured several times — extra set-up-only
workers besides the measuring one — and reported as the median. The
work directory, and with it every temporary store, is removed in a
``finally``; the workers get their own process group so that nothing
they started survives the run, also on failure or Ctrl-C.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from perfbench import DEFAULT_SEED, RUN_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-up-only workers run besides the measuring one (median of 5;
#: of 3 in quick mode).
SETUP_PROBES = 4
SETUP_PROBES_QUICK = 2


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def user_store_state():
    """What must not change: the real ``~/.cache/repro`` (or XDG) store.

    The newest directory mtime under it — creating, replacing or
    removing any entry touches its directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    root = os.path.join(base, "repro")
    if not os.path.isdir(root):
        return None
    return max(os.stat(path).st_mtime_ns for path, _, _ in os.walk(root))


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


def _worker(workdir: Path, args: list[str]) -> dict:
    """Run one worker to completion and parse its JSON line."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        REPRO_CACHE_DIR=str(workdir / "store0"),
    )
    env.pop("REPRO_REPLAY_SCALAR", None)
    env.pop("REPRO_CACHE_MAX_BYTES", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker",
         "--workdir", str(workdir), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate()
    finally:
        # Nothing outlives the run: the worker, and the server it may
        # have started, end here whatever happened above.
        if proc.poll() is None:
            _signal_group(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        _signal_group(proc.pid, signal.SIGKILL)
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(args)} exited with {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, seed: int = DEFAULT_SEED,
                 seconds: float = RUN_SECONDS, trace: int = 0,
                 rounds: int | None = None, quick: bool = False,
                 mode: str = "run") -> dict:
    """One full run of one workload; returns the worker's result with
    ``setup_s`` replaced by the median over all set-ups made."""
    if not (SRC / "repro").is_dir():
        raise BenchError(f"no library to measure under {SRC}")
    before = user_store_state()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)]
    if quick:
        common.append("--quick")
    try:
        setups = []
        if mode == "run" and not trace:
            for probe in range(SETUP_PROBES_QUICK if quick else SETUP_PROBES):
                sub = workdir / f"setup{probe}"
                sub.mkdir()
                setups.append(
                    _worker(sub, common + ["--mode", "setup"])["setup_s"]
                )
        extra = ["--mode", mode, "--trace", str(trace)]
        if rounds is not None:
            extra += ["--rounds", str(rounds)]
        main = workdir / "main"
        main.mkdir()
        result = _worker(main, common + extra)
        setups.append(result["setup_s"])
        result["setup_samples"] = setups
        result["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if user_store_state() != before:
        raise BenchError(
            "the user's artifact store (~/.cache/repro) was created or "
            "modified during the run"
        )
    if mode == "run" and not trace:
        result["metrics"]["setup_s"] = {
            "value": result["setup_s"], "unit": "s",
        }
    return result
