"""The worker pool of matcore._map: its callers, Pencil.eigh on large
stacks and the row blocks of oracle.sample_range and oracle.sample_hull,
give the same bits for every worker count, pass a worker's exception to
the caller, and leave the small queries of the benchmark inline."""

import contextlib
import io
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from numrange import cli, matcore as mc, oracle, rangegeo as rg

from conftest import random_matrix, record

COUNTS = (1, 2, 3)


@pytest.fixture
def workers(monkeypatch):
    """Sets the worker count of _map; each test starts without a pool and
    shuts down the pool it made."""
    monkeypatch.setattr(mc, "_pool", None)
    yield lambda n: monkeypatch.setattr(mc, "_WORKERS", n)
    if mc._pool is not None:
        mc._pool.shutdown()


@pytest.fixture
def eigh_calls(monkeypatch):
    """Records, per np.linalg.eigh call from any thread, whether it ran on
    the main thread."""
    return record(
        monkeypatch, np.linalg, "eigh", lambda *_, **__: threading.current_thread() is threading.main_thread()
    )


def _sample_edges(d, n_workers):
    rows = max(oracle.SAMPLE_BLOCK // (n_workers * d), 2)
    # 2 * rows + 1 leaves a one-row last block
    return {rows - 1, rows, rows + 1, 2 * rows + 1}


@pytest.mark.parametrize("d", [1, 3, 32])
def test_sample_range_same_bits_for_every_worker_count(rng, workers, d):
    A = random_matrix(rng, d)
    sizes = sorted(set().union(*(_sample_edges(d, w) for w in COUNTS)) | {50_000})
    results = {}
    for w in COUNTS:
        workers(w)
        results[w] = [oracle.sample_range(A, n, seed=29).points for n in sizes]
    for w in COUNTS[1:]:
        for n, serial, split in zip(sizes, results[1], results[w]):
            assert np.array_equal(serial, split), (w, n)
    assert mc._pool is not None  # 50 000 rows were split


@pytest.mark.parametrize("d", [3, 8, 32])
def test_sample_hull_same_bits_for_every_worker_count(rng, workers, d):
    # the screen and the exact draw of the survivors run in row blocks on
    # _map; the hull is hull(sample_range) for every worker count
    A = random_matrix(rng, d)
    sizes = (2000, 50_000)
    want = [oracle.hull(oracle.sample_range(A, n, seed=29)).vertices for n in sizes]
    for w in COUNTS:
        workers(w)
        for n, ref in zip(sizes, want):
            assert np.array_equal(oracle.sample_hull(A, n, seed=29).vertices, ref), (w, n)
    assert mc._pool is not None  # the screen of 50 000 rows was split


def _stacks(rng):
    """Pencils and angle arrays below and above the split threshold."""
    small = mc.Pencil(random_matrix(rng, 3))
    mid = mc.Pencil(random_matrix(rng, 8))
    big = mc.Pencil(random_matrix(rng, 32))
    t = rng.uniform(0.0, 2.0 * np.pi, 600)
    return [
        (small, t[:100], False),
        (mid, t[:255], False),
        (mid, t[:256], True),  # 256 * 8^3 is the threshold itself
        (mid, t[:513], True),
        (big, t[:3], False),
        (big, t[:4], True),
        (big, t[:99].reshape(33, 3), True),
        (big, t[:600], True),
    ]


def test_pencil_eigh_same_bits_for_every_worker_count(rng, workers, eigh_calls):
    cases = _stacks(rng)
    results = {}
    for w in COUNTS:
        workers(w)
        results[w] = []
        for pencil, t, split in cases:
            eigh_calls.clear()
            results[w].append(pencil.eigh(t))
            if w > 1 and split:
                assert len(eigh_calls) >= 2
            else:
                assert len(eigh_calls) == 1
            assert results[w][-1][0].shape == (*t.shape, pencil.d)
            assert results[w][-1][1].shape == (*t.shape, pencil.d, pencil.d)
    for w in COUNTS[1:]:
        for (pencil, t, _), (w1, V1), (ws, Vs) in zip(cases, results[1], results[w]):
            assert np.array_equal(w1, ws) and np.array_equal(V1, Vs), (w, pencil.d, t.shape)


def test_split_stack_runs_on_pool_threads(rng, workers, eigh_calls):
    workers(2)
    pencil = mc.Pencil(random_matrix(rng, 32))
    pencil.eigh(np.linspace(0.0, 1.0, 64))
    assert len(eigh_calls) >= 2 and not any(eigh_calls)
    eigh_calls.clear()
    pencil.eigh(np.linspace(0.0, 1.0, 3))  # below the threshold: inline
    assert eigh_calls == [True]


@pytest.mark.parametrize("d, N", [(3, 64), (8, 512), (8, 513), (32, 64)])
def test_grid_and_boundary_polygon_same_bits_for_every_worker_count(rng, workers, d, N):
    A = random_matrix(rng, d)
    grids, polygons = [], []
    for w in COUNTS:
        workers(w)
        pencil = mc.Pencil(A)
        gw = pencil.grid(N)[1]
        grids.append((gw, pencil._grid_eig(N, np.arange(N))[1]))
        polygons.append(rg.boundary_polygon(A, N).vertices)
    for (gw, gx), poly in zip(grids[1:], polygons[1:]):
        assert np.array_equal(gw, grids[0][0]) and np.array_equal(gx, grids[0][1])
        assert np.array_equal(poly, polygons[0])


def test_worker_exception_reaches_the_caller(rng, workers, monkeypatch):
    workers(2)
    plain = np.linalg.eigh

    def failing(a, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return plain(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    pencil = mc.Pencil(random_matrix(rng, 32))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        pencil.eigh(np.linspace(0.0, 1.0, 64))
    # a stack below the threshold is solved inline, on the calling thread
    assert pencil.eigh(np.linspace(0.0, 1.0, 3))[0].shape == (3, 32)


def test_map_keeps_order_and_runs_one_piece_inline(workers):
    workers(3)
    assert mc._map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
    assert mc._pool is not None
    mc._pool.shutdown()
    mc._pool = None
    assert mc._map(lambda x: threading.current_thread() is threading.main_thread(), [0]) == [True]
    assert mc._pool is None


@pytest.mark.parametrize("workload", ["points", "shapes3"])
def test_small_workloads_never_make_the_pool(workers, tmp_path, workload):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    workers(2)
    for q in workloads.build(workload, 5, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(q.argv))
        assert mc._pool is None, q.label


def test_many_workers_and_callers_under_fast_switching(rng, workers, monkeypatch):
    # more workers than cores and four calling threads at once, with the
    # interpreter switching threads every microsecond: one pool is made
    # and every result keeps its serial bits
    import concurrent.futures

    made = record(monkeypatch, concurrent.futures, "ThreadPoolExecutor")
    A = random_matrix(rng, 8)
    t = np.linspace(0.0, 2.0 * np.pi, 700)

    def job(k):
        return oracle.sample_range(A, 20_000, seed=k).points, mc.Pencil(A).eigh(t + k)

    workers(1)
    want = [job(k) for k in range(4)]
    workers(8)
    got = [None] * 4

    def caller(k):
        got[k] = job(k)

    threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(made) == 1
    for (pts, (w, V)), (pts_k, (w_k, V_k)) in zip(want, got):
        assert np.array_equal(pts, pts_k) and np.array_equal(w, w_k) and np.array_equal(V, V_k)


def _split_in_child(A, want, done):
    done.put(bool(np.array_equal(oracle.sample_range(A, 20_000, seed=3).points, want)))


def test_forked_child_makes_its_own_pool(rng, workers):
    # a forked child has none of the parent's pool threads: it must not
    # queue pieces on the parent's pool, where nothing would run them
    import multiprocessing
    import warnings

    workers(2)
    A = random_matrix(rng, 8)
    want = oracle.sample_range(A, 20_000, seed=3).points
    assert mc._pool is not None
    ctx = multiprocessing.get_context("fork")
    done = ctx.Queue()
    child = ctx.Process(target=_split_in_child, args=(A, want, done))
    with warnings.catch_warnings():
        # Python 3.12 warns on a fork of a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    try:
        assert done.get(timeout=60) is True
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
