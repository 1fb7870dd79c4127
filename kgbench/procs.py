"""/proc helpers: process trees, peak-RSS reset and session clean-up."""

from __future__ import annotations

import os
import signal
import time


def stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # comm may contain spaces; the fields after it start at ") "
    return raw[raw.rindex(")") + 2:].split()


def all_pids() -> list[int]:
    return [int(d) for d in os.listdir("/proc") if d.isdigit()]


def tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    children: dict[int, list[int]] = {}
    for pid in all_pids():
        st = stat_fields(pid)
        if st is not None:
            children.setdefault(int(st[1]), []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def session_members(sid: int) -> list[int]:
    """Live, non-zombie processes whose session id is ``sid``."""
    out = []
    for pid in all_pids():
        st = stat_fields(pid)
        if st is not None and st[0] != "Z" and int(st[3]) == sid:
            out.append(pid)
    return out


def reset_peak_rss(pids: list[int]) -> None:
    """Reset VmHWM to the current RSS (``clear_refs`` value 5)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of VmHWM over ``pids``, in MiB."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return kb / 1024.0


def stop_session(sid: int, grace_s: float = 15.0) -> list[int]:
    """Wait up to ``grace_s`` for every process of session ``sid`` to
    exit, then SIGKILL the rest and wait for them. Returns the pids that
    had to be killed. Other sessions are never touched."""
    deadline = time.monotonic() + grace_s
    while session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.2)
    killed = session_members(sid)
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10.0
    while session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.1)
    return killed
