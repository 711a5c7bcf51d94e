"""Campaign workers: forked processes that send their jobs' results down a pipe each."""

import ctypes
import multiprocessing
import os
import pickle
from contextlib import contextmanager, suppress


def _worker_setup() -> None:
    """Each worker's own setup: die with the campaign, and pin glibc's mmap and trim thresholds at 32
    and 64 MiB. As forked, they depend on the campaign's heap layout, and the workers of a two-chunk
    campaign near n = 1e5 took 19k to 76k minor faults where pinned ones take 10k."""
    with suppress(OSError):  # not glibc: nothing to set
        libc = ctypes.CDLL("libc.so.6")
        libc.prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@contextmanager
def forked(jobs: list, workers: int):
    """Yield the jobs' results in job order, job j run on worker j mod w of w = min(workers, len(jobs))
    forked processes. A job's exception is raised again here, and a dead worker raises RuntimeError."""
    w, parent, procs, pipes = min(workers, len(jobs)), os.getpid(), [], []

    def work(k: int, out) -> None:  # pipes holds the read ends worker k inherited
        _worker_setup()
        if os.getppid() != parent:  # the campaign died before the death signal was set
            os._exit(1)
        for pipe in pipes:
            pipe.close()
        with out:
            for job in jobs[k::w]:
                try:
                    pickle.dump((True, job()), out)
                except Exception as exc:
                    pickle.dump((False, exc), out)
                out.flush()

    def result(j: int):
        try:
            ok, value = pickle.load(pipes[j % w])
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"campaign worker {j % w + 1} of {w} died before finishing job {j}") from None
        if not ok:
            raise value
        return value

    try:
        for k in range(w):
            read_fd, out_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(out_fd, "wb") as out:  # only the worker keeps the write end
                procs.append(multiprocessing.get_context("fork").Process(target=work, args=(k, out), daemon=True))
                procs[-1].start()
        yield map(result, range(len(jobs)))
        for proc in procs:  # each exits on its own, which runs multiprocessing's exit finalizers
            proc.join()
    finally:
        for proc in procs:  # leaving early kills the workers; after a join this does nothing
            proc.kill()
            proc.join()
        for pipe in pipes:
            pipe.close()
