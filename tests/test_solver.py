import sys

import pytest

from nradiv import SolverError, run_solver


def fake_solver(tmp_path, name: str, body: str) -> list[str]:
    """A tiny stdin-to-stdout program standing in for an SMT solver."""

    path = tmp_path / f"{name}.py"
    path.write_text(body)
    return [sys.executable, str(path)]


ECHO_ANSWER = """\
import sys
data = sys.stdin.read()
print("{answer}")
"""


@pytest.mark.parametrize("answer", ["sat", "unsat", "unknown"])
def test_answers_pass_through(tmp_path, answer):
    cmd = fake_solver(tmp_path, answer, ECHO_ANSWER.format(answer=answer))
    verdict = run_solver("(assert true)", cmd)
    assert verdict.answer == answer
    assert verdict.raw_output.strip() == answer
    assert verdict.elapsed >= 0


def test_garbage_is_error(tmp_path):
    cmd = fake_solver(tmp_path, "garbage", ECHO_ANSWER.format(answer="segfault :("))
    verdict = run_solver("(assert true)", cmd)
    assert verdict.answer == "error"
    assert "segfault" in verdict.raw_output


def test_empty_output_is_error(tmp_path):
    cmd = fake_solver(tmp_path, "mute", "import sys\nsys.stdin.read()\n")
    assert run_solver("(assert true)", cmd).answer == "error"


def test_first_nonempty_line_wins(tmp_path):
    body = 'import sys\nsys.stdin.read()\nprint("\\n  \\nunsat\\nmodel stuff")\n'
    cmd = fake_solver(tmp_path, "chatty", body)
    verdict = run_solver("(assert true)", cmd)
    assert verdict.answer == "unsat"
    assert "model stuff" in verdict.raw_output


def test_stderr_is_merged(tmp_path):
    body = 'import sys\nsys.stdin.read()\nprint("warning", file=sys.stderr)\nprint("sat")\n'
    cmd = fake_solver(tmp_path, "noisy", body)
    verdict = run_solver("(assert true)", cmd)
    assert verdict.answer in ("sat", "error")  # stream interleaving may vary
    assert "warning" in verdict.raw_output


def test_check_sat_appended_exactly_when_missing(tmp_path):
    body = (
        "import re, sys\n"
        'n = len(re.findall(r"\\(\\s*check-sat\\s*\\)", sys.stdin.read()))\n'
        'print("sat" if n == 1 else "unsat")\n'
    )
    cmd = fake_solver(tmp_path, "counter", body)
    assert run_solver("(assert true)", cmd).answer == "sat"
    assert run_solver("(assert true)\n(check-sat)\n", cmd).answer == "sat"
    assert run_solver("(assert true)\n( check-sat )\n", cmd).answer == "sat"


def test_timeout_kills_and_reports_unknown(tmp_path):
    body = "import time, sys\ntime.sleep(60)\n"
    cmd = fake_solver(tmp_path, "sleeper", body)
    verdict = run_solver("(assert true)", cmd, timeout=0.3)
    assert (verdict.answer, verdict.raw_output) == ("unknown", "")
    assert 0.3 <= verdict.elapsed < 30  # measured, not the timeout


def test_timeout_keeps_what_the_solver_printed(tmp_path):
    body = 'import time, sys\nprint("partial", flush=True)\ntime.sleep(60)\n'
    cmd = fake_solver(tmp_path, "partial", body)
    verdict = run_solver("(assert true)", cmd, timeout=0.5)
    assert (verdict.answer, verdict.raw_output) == ("unknown", "partial\n")
    assert verdict.elapsed >= 0.5


def test_string_command_is_shell_split(tmp_path):
    cmd = fake_solver(tmp_path, "strcmd", ECHO_ANSWER.format(answer="sat"))
    as_string = f"{cmd[0]} {cmd[1]}"
    assert run_solver("(assert true)", as_string).answer == "sat"


def test_missing_binary_raises(tmp_path):
    with pytest.raises(SolverError, match="cannot run solver"):
        run_solver("(assert true)", [str(tmp_path / "no-such-solver")])


def test_empty_command_raises():
    with pytest.raises(SolverError, match="empty"):
        run_solver("(assert true)", [])
    with pytest.raises(SolverError, match="empty"):
        run_solver("(assert true)", "   ")
