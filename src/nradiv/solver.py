"""Bridge to an external SMT solver process over stdin/stdout."""

from __future__ import annotations

import re
import shlex
import subprocess
import time
from dataclasses import dataclass

from .errors import SolverError

_CHECK_SAT = re.compile(r"\(\s*check-sat\s*\)")

ANSWERS = ("sat", "unsat", "unknown")


@dataclass(frozen=True)
class SolverVerdict:
    answer: str  # "sat" | "unsat" | "unknown" | "error"
    raw_output: str
    elapsed: float


def run_solver(
    script_text: str, command: str | list[str], timeout: float = 10.0
) -> SolverVerdict:
    """Pipe a script to `command` and read the verdict.

    The script text is sent as is, with `(check-sat)` appended when the
    text contains none.  The answer is the first nonempty output line;
    anything other than sat/unsat/unknown is reported as "error" with
    the raw output preserved.  A solver that exceeds `timeout` seconds
    is killed and reported "unknown", with what it printed until then.
    """

    argv = shlex.split(command) if isinstance(command, str) else list(command)
    if not argv:
        raise SolverError("empty solver command")
    if not _CHECK_SAT.search(script_text):
        script_text = script_text.rstrip("\n") + "\n(check-sat)\n"

    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    except OSError as exc:
        raise SolverError(f"cannot run solver {argv[0]!r}: {exc}") from exc
    try:
        output, _ = proc.communicate(script_text, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()  # everything read before the kill too
        return SolverVerdict("unknown", output, time.perf_counter() - start)
    elapsed = time.perf_counter() - start

    first = next((line.strip() for line in output.splitlines() if line.strip()), "")
    answer = first if first in ANSWERS else "error"
    return SolverVerdict(answer, output, elapsed)
