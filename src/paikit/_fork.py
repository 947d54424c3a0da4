"""Independent solves on every CPU the process may use, in forked children.

``fork_map(fn, items)`` returns ``[fn(x) for x in items]``.  With W CPUs in
the affinity mask the caller computes items ``0, W, 2W, ...`` itself and
forked child ``k`` computes items ``k, k + W, ...``.  Each item runs the
same code on the same inputs as in the serial loop, so every result is the
same bit for bit.  Fork hands ``fn`` and ``items`` to the children without
pickling, so ``fn`` may be a closure; only the results travel back, one
pipe message per item.  A fixed split keeps the caller's share, and hence
what a profiler of the calling process sees, the same on every run.

Threads would not help: the solves are chains of short numpy calls, and
the interpreter lock changes hands around each of them.
"""

from __future__ import annotations

import os
import pickle


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_share(fn, items, k: int, W: int, conn) -> None:
    """Child ``k``: send ``(index, ok, value)`` per item, stopping at a failure."""
    try:
        for i in range(k, len(items), W):
            try:
                out = (i, True, fn(items[i]))
            except Exception as exc:
                conn.send((i, False, _portable(exc)))
                return
            conn.send(out)
    finally:
        conn.close()


def _drain(conn, got: list) -> None:
    """Reader thread: keep one child's pipe empty until the child closes it."""
    try:
        while True:
            got.append(conn.recv())
    except (EOFError, OSError):     # closed, or cut off mid-message
        pass
    finally:
        conn.close()


def fork_map(fn, items) -> list:
    """``[fn(x) for x in items]``, with the items spread over every CPU.

    An exception raised by ``fn`` is re-raised here with its own class; when
    several items fail, the one of the lowest index is raised, as the serial
    loop would.  Inside a worker, on one CPU or without ``fork`` the items
    run in this process.  Every child is joined before this returns or
    raises.
    """
    items = list(items)
    try:
        W = min(len(items), len(os.sched_getaffinity(0)))
    except AttributeError:              # no affinity call on this platform
        W = 1
    if W > 1:
        import multiprocessing
        if (multiprocessing.parent_process() is not None
                or "fork" not in multiprocessing.get_all_start_methods()):
            W = 1
    if W <= 1:
        return [fn(x) for x in items]

    import threading
    ctx = multiprocessing.get_context("fork")
    children, readers, received = [], [], []
    results = [None] * len(items)
    failed = None                       # (index, exception) of the lowest failure
    try:
        # every child is forked before any reader thread starts
        pipes = []
        for k in range(1, W):
            recv_end, send_end = ctx.Pipe(duplex=False)
            p = ctx.Process(target=_run_share, args=(fn, items, k, W, send_end),
                            daemon=True)
            p.start()
            send_end.close()            # the child holds the only send end
            children.append(p)
            pipes.append(recv_end)
        for conn in pipes:
            received.append([])
            readers.append(threading.Thread(target=_drain,
                                            args=(conn, received[-1]), daemon=True))
            readers[-1].start()

        for i in range(0, len(items), W):
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                failed = (i, exc)
                break
    except BaseException:
        for p in children:
            p.terminate()
        raise
    finally:
        for p in children:
            p.join()
        for t in readers:
            t.join()

    for k, (p, got) in enumerate(zip(children, received), start=1):
        for i, good, value in got:
            if good:
                results[i] = value
            elif failed is None or i < failed[0]:
                failed = (i, value)
        share = range(k, len(items), W)
        if len(got) < len(share) and (not got or got[-1][1]):
            # the child ended before sending the item after its last message
            i = share[len(got)]
            if failed is None or i < failed[0]:
                failed = (i, RuntimeError(
                    f"fork_map worker {k} exited with code {p.exitcode} "
                    f"before returning item {i}"))
    if failed is not None:
        raise failed[1]
    return results
