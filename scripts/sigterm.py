"""A SIGTERM that ends a script together with the child process it waits on.

``install`` makes SIGTERM raise ``SystemExit(128 + signum)``, so that the
script unwinds and its ``finally`` clauses and temporary directories clean
up.  ``run`` starts and waits on a child like ``subprocess.run`` with
``capture_output=True``, and kills and reaps it whenever the SIGTERM lands.

``subprocess.run`` cannot do that by itself: a SystemExit raised while
``Popen.__init__`` still waits for the fork's exec escapes before ``run``'s
``with`` block holds the child, and the child outlives the script.  So while
``run`` starts a child the handler only notes the signal, and ``run`` raises
it once the child is in hand.  No signal is blocked, so the child inherits
no signal mask and ends on a SIGTERM of its own.
"""

import signal
import subprocess

_held: list[int] | None = None  # while run starts a child, the SIGTERMs it holds back


def _exit_on_sigterm(signum, frame):
    if _held is None:
        raise SystemExit(128 + signum)
    _held.append(signum)


def install() -> None:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)


def run(command: list[str], **kwargs) -> subprocess.CompletedProcess:
    """The finished child's return code and captured output; on any exception,
    a SIGTERM's SystemExit included, the child is killed and reaped first."""
    global _held
    _held = held = []
    try:
        process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)
    except BaseException:
        _held = None
        raise
    with process:
        try:
            _held = None
            if held:
                raise SystemExit(128 + held[0])
            stdout, stderr = process.communicate()
        except BaseException:
            process.kill()
            raise
    return subprocess.CompletedProcess(command, process.returncode, stdout, stderr)
